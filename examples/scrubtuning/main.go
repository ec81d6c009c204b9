// Scrub tuning: an operator sizing the scrub period for a 14-drive SATA
// shelf under three workload profiles. The example derives the latent-
// defect rate from the workload's read volume (Table 1 arithmetic), takes
// the §6.2 rebuild and scrub minimums for a 500 GB SATA drive from
// package analytic, sweeps scrub periods, and prints the resulting 5-year
// DDF risk for each combination.
//
//	go run ./examples/scrubtuning
package main

import (
	"fmt"
	"log"
	"os"

	"raidrel/internal/analytic"
	"raidrel/internal/core"
	"raidrel/internal/report"
	"raidrel/internal/workload"
)

func main() {
	if err := run(); err != nil {
		log.Fatal(err)
	}
}

func run() error {
	const (
		groupSize  = 14
		mission    = 5 * 8760 // 5 years
		iterations = 1500
	)
	profiles := []workload.Profile{workload.Archive, workload.Nearline, workload.Transactional}
	periods := []float64{0, 336, 168, 48, 12}

	table := report.NewTable("workload", "defect rate (/h)", "rebuild floor (h)",
		"scrub (h)", "DDFs/1000 groups in 5 y")
	for _, prof := range profiles {
		rate, err := workload.DefectRate(workload.RERMedium, prof.BytesPerHour)
		if err != nil {
			return err
		}
		// A 500 GB drive streaming 50 MB/s on a 1.5 Gb/s SATA link.
		drive := analytic.RebuildInput{
			CapacityBytes:   500 * analytic.GB,
			DriveRateBps:    analytic.FCDriveRate,
			BusRateBps:      analytic.SATA15Gb,
			GroupSize:       groupSize,
			ForegroundShare: prof.ForegroundShare,
		}
		rebuildFloor, err := analytic.MinRebuildHours(drive)
		if err != nil {
			return err
		}
		scrubFloor, err := analytic.MinScrubHours(drive)
		if err != nil {
			return err
		}
		// Restore: the rebuild floor plus a 2 h service delay, right-skewed
		// (shape 2) with twice that as its scale.
		restore := rebuildFloor + 2
		for _, period := range periods {
			p := core.Params{
				GroupSize:     groupSize,
				Redundancy:    1,
				MissionHours:  mission,
				TTOp:          core.WeibullSpec{Scale: core.BaseMTBFHours, Shape: 1.12},
				TTR:           core.WeibullSpec{Location: restore, Scale: 2 * restore, Shape: 2},
				LatentDefects: true,
				TTLd:          core.WeibullSpec{Scale: 1 / rate, Shape: 1},
				TTScrub:       core.WeibullSpec{Location: scrubFloor},
			}.WithScrubPeriod(period)
			model, err := core.New(p)
			if err != nil {
				return err
			}
			res, err := model.Run(iterations, 7)
			if err != nil {
				return err
			}
			label := fmt.Sprintf("%.0f", period)
			if period == 0 {
				label = "none"
			}
			table.AddRow(prof.Name,
				fmt.Sprintf("%.2e", rate),
				fmt.Sprintf("%.1f", restore),
				label,
				fmt.Sprintf("%.1f", res.DDFsPer1000GroupsAt(mission)),
			)
		}
	}
	fmt.Println("Scrub-period sweep, 14x SATA-500GB, RAID5, medium read-error rate")
	if err := table.Render(os.Stdout); err != nil {
		return err
	}
	fmt.Println("\nReading the table: heavier workloads corrupt data faster AND slow")
	fmt.Println("rebuilds, so they need much shorter scrub periods to hold the same")
	fmt.Println("risk. 'none' rows show why unscrubbed systems are, in the paper's")
	fmt.Println("words, a recipe for disaster.")
	return nil
}

// Spare-pool provisioning: how many spares should a shelf of four RAID
// groups keep on hand, given a slow replacement supply chain? The fleet
// simulator couples the groups through one shared pool, so a failure
// burst in one group can starve another group's rebuild — exactly the
// question the paper's single-group model (which assumes "a spare HDD is
// available") cannot answer.
//
//	go run ./examples/sparepool
package main

import (
	"fmt"
	"log"
	"os"

	"raidrel/internal/dist"
	"raidrel/internal/report"
	"raidrel/internal/sim"
)

func main() {
	if err := run(); err != nil {
		log.Fatal(err)
	}
}

func run() error {
	group := sim.Config{
		Drives:     8,
		Redundancy: 1,
		Mission:    5 * 8760,
		Trans: sim.Transitions{
			// A stressed population: MTBF 50,000 h with wear-out.
			TTOp:    dist.MustWeibull(1.4, 50000, 0),
			TTR:     dist.MustWeibull(2, 12, 6),
			TTLd:    dist.MustExponential(1.08e-4),
			TTScrub: dist.MustWeibull(3, 168, 6),
		},
	}
	const (
		groups    = 4
		iters     = 800
		replenish = 336 // two weeks to receive a replacement drive
	)
	table := report.NewTable("spares on shelf", "DDFs per shelf (5 y)", "vs unlimited")
	var unlimited float64
	for _, initial := range []int{-1, 0, 1, 2, 4, 8} {
		var pool *sim.SparePolicy
		label := "unlimited"
		if initial >= 0 {
			pool = &sim.SparePolicy{Initial: initial, ReplenishHours: replenish}
			label = fmt.Sprintf("%d", initial)
		}
		// iters shelf chronologies; shelf i simulates groups from RNG
		// streams i*groups onward.
		res, err := sim.RunSparse(sim.RunSpec{
			Config:     group,
			Iterations: iters * groups,
			Seed:       77,
			Fleet:      &sim.FleetOptions{Groups: groups, SharedSpares: pool},
		})
		if err != nil {
			return err
		}
		perShelf := float64(res.TotalDDFs) / iters
		if pool == nil {
			unlimited = perShelf
		}
		ratio := "1.00x"
		if unlimited > 0 {
			ratio = fmt.Sprintf("%.2fx", perShelf/unlimited)
		}
		table.AddRow(label, fmt.Sprintf("%.3f", perShelf), ratio)
	}
	fmt.Printf("Shelf of %d RAID groups, %d-hour replacement lead time\n", groups, replenish)
	if err := table.Render(os.Stdout); err != nil {
		return err
	}
	fmt.Println("\nTwo lessons. First, one or two stocked spares recover nearly all of")
	fmt.Println("the unlimited-supply reliability. Second — and less intuitive — even")
	fmt.Println("ZERO spares only costs ~25%: two-week rebuild waits stretch the")
	fmt.Println("op+op exposure window, but the dominant latent+op coincidences are")
	fmt.Println("decided at the instant of the failure, before the rebuild even")
	fmt.Println("starts. Scrubbing policy moves this fleet's risk far more than spare")
	fmt.Println("logistics do (compare examples/scrubtuning).")
	return nil
}

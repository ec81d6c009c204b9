package experiments

import (
	"fmt"

	"raidrel/internal/core"
	"raidrel/internal/sim"
)

// FleetRow is one cell of the repair-bandwidth sweep: a fleet size and a
// concurrent-rebuild cap, with the resulting data-loss rate and heal
// backlog.
type FleetRow struct {
	// Groups is the fleet size (RAID groups per chronology); Slots is the
	// fleet-wide concurrent-rebuild cap, 0 meaning unlimited.
	Groups int
	Slots  int
	// DDFs is double disk failures per 1,000 groups over the mission.
	DDFs float64
	// WaitFrac is the fraction of rebuilds that queued for a repair slot.
	WaitFrac float64
	// MeanWaitH and MaxWaitH are the mean and worst failure-to-rebuild-start
	// waits in hours (over the rebuilds that waited).
	MeanWaitH float64
	MaxWaitH  float64
	// MaxExposureH is the longest any group ran degraded — failure to last
	// concurrent restore — across the campaign, in hours.
	MaxExposureH float64
}

// fleetRepairMTTRHours stretches the base-case restore to a
// bandwidth-limited rebuild: raidsim-class drives rebuilt over the fleet
// network take days, not the hot-spare copyback hours of the paper's
// single-group model, which is what makes the repair crews contend.
const fleetRepairMTTRHours = 96

// FleetSweep answers the operations question the independent-group model
// cannot ask: how many concurrent rebuilds must a fleet sustain before
// repair queueing starts adding data-loss risk? Each cell couples Groups
// base-case RAID groups into one fleet on a bounded repair server
// (degradation-priority grants) and reports the DDF rate next to the heal
// backlog; the unlimited-slot column is the independent-group baseline by
// the engine's equivalence property.
func FleetSweep(opt Options) ([]FleetRow, error) {
	if err := opt.validate(); err != nil {
		return nil, err
	}
	if opt.BiasOp != 0 && opt.BiasOp != 1 {
		return nil, fmt.Errorf("experiments: fleet sweep cannot run importance-sampled (the fleet engine is unbiased only)")
	}
	base := core.BaseCase()
	base.TTR = core.WeibullSpec{Scale: fleetRepairMTTRHours, Shape: 1}

	fleets := []int{16, 64}
	slots := []int{1, 2, 4, 0}
	out := make([]FleetRow, 0, len(fleets)*len(slots))
	for _, groups := range fleets {
		for _, k := range slots {
			p := base
			p.Fleet = &sim.FleetOptions{Groups: groups, MaxConcurrentRebuilds: k}
			res, err := opt.run(p)
			if err != nil {
				return nil, fmt.Errorf("experiments: fleet %dx%d: %w", groups, k, err)
			}
			f := res.Fleet()
			row := FleetRow{
				Groups:       groups,
				Slots:        k,
				DDFs:         res.DDFsPer1000GroupsAt(p.MissionHours),
				MaxWaitH:     f.MaxWaitHours,
				MaxExposureH: f.MaxExposureHours,
			}
			if f.Rebuilds > 0 {
				row.WaitFrac = float64(f.Waited) / float64(f.Rebuilds)
			}
			if f.Waited > 0 {
				row.MeanWaitH = f.TotalWaitHours / float64(f.Waited)
			}
			out = append(out, row)
		}
	}
	return out, nil
}

package experiments

import (
	"fmt"

	"raidrel/internal/analytic"
	"raidrel/internal/core"
)

// GroupSizeRow is one row of the group-size sweep: the design question the
// paper says the model should answer ("insights as to the best RAID group
// size based on a specific manufacturer's HDDs").
type GroupSizeRow struct {
	GroupSize int
	// Simulated is DDFs per 1,000 groups over the mission.
	Simulated float64
	// PerDataDrive normalizes by the N data drives a group protects —
	// the fair metric when comparing shelf carve-ups.
	PerDataDrive float64
	// MTTDLPrediction is the eq. 3 count for the same horizon.
	MTTDLPrediction float64
}

// GroupSizeSweep runs the base case across group sizes. The MTTDL view
// says risk grows as N(N+1); the enhanced model's latent-defect coupling
// makes large groups worse still, because every additional drive both
// fails and corrupts.
func GroupSizeSweep(sizes []int, opt Options) ([]GroupSizeRow, error) {
	if err := opt.validate(); err != nil {
		return nil, err
	}
	if len(sizes) == 0 {
		sizes = []int{4, 6, 8, 10, 14}
	}
	out := make([]GroupSizeRow, 0, len(sizes))
	for _, size := range sizes {
		if size < 2 {
			return nil, fmt.Errorf("experiments: group size %d invalid", size)
		}
		p := core.BaseCase()
		p.GroupSize = size
		res, err := opt.run(p)
		if err != nil {
			return nil, err
		}
		simulated := res.DDFsPer1000GroupsAt(p.MissionHours)
		mttdl, err := analytic.ExpectedDDFs(analytic.MTTDLInput{
			N: size - 1, MTBF: core.BaseMTBFHours, MTTR: 12,
		}, p.MissionHours, 1000)
		if err != nil {
			return nil, err
		}
		out = append(out, GroupSizeRow{
			GroupSize:       size,
			Simulated:       simulated,
			PerDataDrive:    simulated / float64(size-1),
			MTTDLPrediction: mttdl,
		})
	}
	return out, nil
}

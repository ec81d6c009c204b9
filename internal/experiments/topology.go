package experiments

import (
	"fmt"

	"raidrel/internal/core"
)

// TopologyRow is one row of the shared-hardware sweep: a group design with
// the same drives, the same RAID redundancy, and the same component budget,
// differing only in how the shared hardware is arranged.
type TopologyRow struct {
	Design string
	// DDFs is double disk failures per 1,000 groups over the mission —
	// actual data loss.
	DDFs float64
	// Unavail is unavailability onsets per 1,000 groups: episodes where the
	// group lost access to more slots than the redundancy covers, but the
	// data came back with the hardware. Never part of DDFs.
	Unavail float64
	// PUnavail is the probability a group saw at least one such episode.
	PUnavail float64
}

// sharedExpanderMTBF and sharedExpanderMTTR are the nominal component
// rates of the sweep: expander-class electronics (no moving parts) outlast
// drives, but a replacement is an ordered part plus a service visit, not a
// hot pull from a spares shelf.
const (
	sharedExpanderMTBF = 150000 // hours per path instance
	sharedExpanderMTTR = 72     // hours to swap one instance
)

// TopologySweep answers the enclosure-design question the flat model
// cannot see: with the group size and RAID redundancy fixed, is it better
// to hang every drive off one shared expander, or to split the group
// across dual-pathed enclosures? Drive-level DDF risk is identical across
// rows by construction — the differences are the component-caused DDF
// exposure (rebuilds pause while hardware is down) and the availability
// gap, which MTTDL-style drive-only models put at exactly zero.
func TopologySweep(opt Options) ([]TopologyRow, error) {
	if err := opt.validate(); err != nil {
		return nil, err
	}
	base := core.BaseCase()
	exp := core.WeibullSpec{Scale: sharedExpanderMTBF, Shape: 1}
	rep := core.WeibullSpec{Scale: sharedExpanderMTTR, Shape: 1}
	all := make([]int, base.GroupSize)
	for i := range all {
		all[i] = i
	}
	half := base.GroupSize / 2

	designs := []struct {
		name string
		topo *core.TopologySpec
	}{
		{"flat (drives only)", nil},
		{"one shared expander", &core.TopologySpec{Components: []core.ComponentSpec{
			{Name: "expander", Drives: all, TTOp: exp, TTR: rep},
		}}},
		// Same component budget as above — two path instances in total —
		// spent on redundancy instead of a single point of failure.
		{"one dual-pathed expander", &core.TopologySpec{Components: []core.ComponentSpec{
			{Name: "expander", Drives: all, Paths: 2, TTOp: exp, TTR: rep},
		}}},
		// Split the group across two enclosures, each dual-pathed: an
		// enclosure outage now takes out only half the slots.
		{"two dual-pathed enclosures", &core.TopologySpec{Components: []core.ComponentSpec{
			{Name: "enclosure-a", Drives: all[:half], Paths: 2, TTOp: exp, TTR: rep},
			{Name: "enclosure-b", Drives: all[half:], Paths: 2, TTOp: exp, TTR: rep},
		}}},
	}

	out := make([]TopologyRow, 0, len(designs))
	for _, d := range designs {
		p := base
		p.Topology = d.topo
		res, err := opt.run(p)
		if err != nil {
			return nil, fmt.Errorf("experiments: topology %s: %w", d.name, err)
		}
		out = append(out, TopologyRow{
			Design:   d.name,
			DDFs:     res.DDFsPer1000GroupsAt(p.MissionHours),
			Unavail:  res.UnavailPer1000Groups(),
			PUnavail: res.GroupUnavailProbability(),
		})
	}
	return out, nil
}

package sim

import (
	"math"
	"slices"
	"testing"

	"raidrel/internal/dist"
	"raidrel/internal/rng"
)

func TestFleetValidation(t *testing.T) {
	if err := (FleetOptions{Groups: 3}).Validate(fastConfig()); err != nil {
		t.Fatalf("valid fleet rejected: %v", err)
	}
	if err := (FleetOptions{Groups: 0}).Validate(fastConfig()); err == nil {
		t.Error("zero groups accepted")
	}
	bad := fastConfig()
	bad.Spares = &SparePolicy{Initial: 1}
	if err := (FleetOptions{Groups: 2}).Validate(bad); err == nil {
		t.Error("per-group spares accepted")
	}
	withBadPool := FleetOptions{Groups: 2, SharedSpares: &SparePolicy{Initial: -1}}
	if err := withBadPool.Validate(fastConfig()); err == nil {
		t.Error("invalid shared pool accepted")
	}
	if err := (FleetOptions{Groups: 2, MaxConcurrentRebuilds: -1}).Validate(fastConfig()); err == nil {
		t.Error("negative rebuild cap accepted")
	}
}

// Overflow and absurd-total rejection: Groups*Drives beyond the slot limit
// (or beyond int range entirely) must fail with a descriptive error, never
// wrap or try to allocate.
func TestFleetValidationRejectsOverflow(t *testing.T) {
	cfg := fastConfig()
	huge := FleetOptions{Groups: math.MaxInt/cfg.Drives + 1}
	if err := huge.Validate(cfg); err == nil {
		t.Error("int-overflowing Groups*Drives accepted")
	}
	absurd := FleetOptions{Groups: maxFleetDrives/cfg.Drives + 1}
	if err := absurd.Validate(cfg); err == nil {
		t.Error("absurd fleet total accepted")
	}
	// The largest permitted fleet must still validate.
	ok := FleetOptions{Groups: maxFleetDrives / cfg.Drives}
	if err := ok.Validate(cfg); err != nil {
		t.Errorf("maximum permitted fleet rejected: %v", err)
	}
}

// simulateFleetSeeded is the test shorthand: one chronology, per-group
// streams base..base+Groups-1. It returns every group's DDFs, indexed by
// group, and the heal-backlog statistics including per-group wait hours.
func simulateFleetSeeded(t *testing.T, group Config, fo FleetOptions, seed, base uint64) ([][]DDF, FleetStats) {
	t.Helper()
	res := make([][]DDF, fo.Groups)
	st := FleetStats{GroupWaitHours: make([]float64, fo.Groups)}
	err := SimulateFleetInto(group, fo, seed, base, func(g int, ddfs []DDF) {
		res[g] = slices.Clone(ddfs)
	}, &st)
	if err != nil {
		t.Fatal(err)
	}
	return res, st
}

// With unlimited repair slots and nil shared spares, every fleet group is
// bit-identical to an independent EventEngine run on the same RNG stream:
// the fleet engine's per-group streams and global-seq tie-breaks reproduce
// the single-group chronologies exactly. A one-group fleet with a finite
// shared pool is likewise bit-identical to EventEngine with the same
// policy as its Spares: the event engine is the one-group fleet. This is
// the cross-validation property test of the two drivers of the chronology
// core (their drifted predecessors disagreed on defect bookkeeping).
func TestFleetMatchesEngineBitIdentical(t *testing.T) {
	withDefects := fastConfig()
	withDefects.Trans.TTLd = dist.MustExponential(5e-4)
	withDefects.Trans.TTScrub = dist.MustWeibull(3, 168, 6)
	noScrub := fastConfig()
	noScrub.Trans.TTLd = dist.MustExponential(5e-4)
	raid6 := fastConfig()
	raid6.Redundancy = 2
	raid6.Trans.TTLd = dist.MustExponential(8e-4)
	raid6.Trans.TTScrub = dist.MustWeibull(3, 168, 6)

	cases := []struct {
		name           string
		cfg            Config
		groups, chrons int
		spares         *SparePolicy
	}{
		{"NoDefects", fastConfig(), 16, 40, nil},
		{"Scrubbed", withDefects, 16, 40, nil},
		{"NoScrub", noScrub, 16, 40, nil},
		{"Raid6", raid6, 16, 40, nil},
		{"OneGroupSpares0x48", withDefects, 1, 400, &SparePolicy{Initial: 0, ReplenishHours: 48}},
		{"OneGroupSpares1x200", withDefects, 1, 400, &SparePolicy{Initial: 1, ReplenishHours: 200}},
	}
	const seed = 700
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			engCfg := tc.cfg
			engCfg.Spares = tc.spares
			mismatches, events := 0, 0
			for c := 0; c < tc.chrons; c++ {
				base := uint64(c * tc.groups)
				fleet, _ := simulateFleetSeeded(t, tc.cfg, FleetOptions{Groups: tc.groups, SharedSpares: tc.spares}, seed, base)
				for g := 0; g < tc.groups; g++ {
					single, err := simulate(EventEngine{}, engCfg, rng.ForStream(seed, base+uint64(g)))
					if err != nil {
						t.Fatal(err)
					}
					events += len(single)
					if len(single) != len(fleet[g]) {
						mismatches++
						t.Errorf("chron %d group %d: fleet %d DDFs, engine %d", c, g, len(fleet[g]), len(single))
						continue
					}
					for j := range single {
						if single[j] != fleet[g][j] {
							mismatches++
							t.Errorf("chron %d group %d event %d: fleet %+v, engine %+v", c, g, j, fleet[g][j], single[j])
							break
						}
					}
				}
				if mismatches > 5 {
					t.Fatalf("too many mismatches; aborting")
				}
			}
			if events == 0 {
				t.Fatalf("no DDFs in %d groups; bit-identity test is vacuous", tc.chrons*tc.groups)
			}
		})
	}
}

// Groups in a fleet with unlimited spares are independent: K groups yield
// ~K times the single-group DDF count.
func TestFleetScalesLinearlyWithoutSharing(t *testing.T) {
	cfg := fastConfig()
	cfg.Trans.TTLd = dist.MustExponential(5e-4)
	cfg.Trans.TTScrub = dist.MustWeibull(3, 168, 6)
	count := func(groups, iters int, seed uint64) float64 {
		total := 0
		for i := 0; i < iters; i++ {
			res, _ := simulateFleetSeeded(t, cfg, FleetOptions{Groups: groups}, seed, uint64(i*groups))
			for _, gr := range res {
				total += len(gr)
			}
		}
		return float64(total) / float64(iters*groups)
	}
	perGroup1 := count(1, 3000, 610)
	perGroup4 := count(4, 750, 611)
	rel := (perGroup1 - perGroup4) / perGroup1
	if rel < 0 {
		rel = -rel
	}
	if rel > 0.15 {
		t.Errorf("per-group rate changed with fleet size: %v vs %v", perGroup1, perGroup4)
	}
}

// A starved shared pool couples the groups: the fleet suffers more DDFs
// than the same groups with unlimited spares, and a bigger shared pool
// recovers monotonically.
func TestFleetSharedSpareContention(t *testing.T) {
	cfg := fastConfig()
	run := func(pool *SparePolicy) int {
		total := 0
		for i := 0; i < 1200; i++ {
			res, _ := simulateFleetSeeded(t, cfg, FleetOptions{Groups: 4, SharedSpares: pool}, 620, uint64(i*4))
			for _, gr := range res {
				total += len(gr)
			}
		}
		return total
	}
	unlimited := run(nil)
	starved := run(&SparePolicy{Initial: 0, ReplenishHours: 500})
	stocked := run(&SparePolicy{Initial: 8, ReplenishHours: 500})
	if starved <= unlimited*2 {
		t.Errorf("starved shared pool should multiply DDFs: %d vs unlimited %d", starved, unlimited)
	}
	if !(unlimited <= stocked && stocked <= starved) {
		t.Errorf("ordering violated: unlimited=%d stocked=%d starved=%d",
			unlimited, stocked, starved)
	}
}

// Cross-group coincidences never create DDFs: with 2 groups of 2 drives
// and one drive failing in each group simultaneously-ish, no DDF arises
// unless the coincidence is within one group.
func TestFleetDDFsAreGroupLocal(t *testing.T) {
	cfg := Config{
		Drives:     2,
		Redundancy: 1,
		Mission:    87600,
		Trans: Transitions{
			TTOp: dist.MustExponential(5e-4), // hot: overlaps guaranteed
			TTR:  dist.MustExponential(1e-3), // 1,000 h rebuilds
		},
	}
	sawDDF := false
	for i := 0; i < 400; i++ {
		res, _ := simulateFleetSeeded(t, cfg, FleetOptions{Groups: 2}, 630, uint64(i*2))
		for _, gr := range res {
			for _, d := range gr {
				sawDDF = true
				if d.Cause != CauseOpOp {
					t.Fatalf("no latent defects configured but cause %v", d.Cause)
				}
			}
		}
	}
	if !sawDDF {
		t.Fatal("expected some within-group DDFs at these rates")
	}
	res, _ := simulateFleetSeeded(t, cfg, FleetOptions{Groups: 3}, 631, 0)
	for _, gr := range res {
		for j := 1; j < len(gr); j++ {
			if gr[j].Time < gr[j-1].Time {
				t.Fatal("group DDFs unsorted")
			}
		}
	}
}

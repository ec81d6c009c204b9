package sim

import (
	"math"
	"testing"

	"raidrel/internal/dist"
	"raidrel/internal/rng"
)

func TestFleetValidation(t *testing.T) {
	good := FleetConfig{Groups: 3, Group: fastConfig()}
	if err := good.Validate(); err != nil {
		t.Fatalf("valid fleet rejected: %v", err)
	}
	if err := (FleetConfig{Groups: 0, Group: fastConfig()}).Validate(); err == nil {
		t.Error("zero groups accepted")
	}
	bad := fastConfig()
	bad.Spares = &SparePolicy{Initial: 1}
	if err := (FleetConfig{Groups: 2, Group: bad}).Validate(); err == nil {
		t.Error("per-group spares accepted")
	}
	withBadPool := FleetConfig{Groups: 2, Group: fastConfig(),
		SharedSpares: &SparePolicy{Initial: -1}}
	if err := withBadPool.Validate(); err == nil {
		t.Error("invalid shared pool accepted")
	}
	if err := (FleetConfig{Groups: 2, Group: fastConfig(), MaxConcurrentRebuilds: -1}).Validate(); err == nil {
		t.Error("negative rebuild cap accepted")
	}
}

// Overflow and absurd-total rejection: Groups*Drives beyond the slot limit
// (or beyond int range entirely) must fail with a descriptive error, never
// wrap or try to allocate.
func TestFleetValidationRejectsOverflow(t *testing.T) {
	cfg := fastConfig()
	huge := FleetConfig{Groups: math.MaxInt/cfg.Drives + 1, Group: cfg}
	if err := huge.Validate(); err == nil {
		t.Error("int-overflowing Groups*Drives accepted")
	}
	absurd := FleetConfig{Groups: maxFleetDrives/cfg.Drives + 1, Group: cfg}
	if err := absurd.Validate(); err == nil {
		t.Error("absurd fleet total accepted")
	}
	// The largest permitted fleet must still validate.
	ok := FleetConfig{Groups: maxFleetDrives / cfg.Drives, Group: cfg}
	if err := ok.Validate(); err != nil {
		t.Errorf("maximum permitted fleet rejected: %v", err)
	}
}

// simulateFleetSeeded is the test shorthand: one chronology, per-group
// streams base..base+Groups-1.
func simulateFleetSeeded(t *testing.T, fc FleetConfig, seed, base uint64) ([]GroupDDFs, FleetStats) {
	t.Helper()
	res, st, err := SimulateFleet(fc, seed, base)
	if err != nil {
		t.Fatal(err)
	}
	return res, st
}

// With unlimited repair slots and nil shared spares, every fleet group is
// bit-identical to an independent EventEngine run on the same RNG stream:
// the fleet engine's per-group streams and global-seq tie-breaks reproduce
// the single-group chronologies exactly. This is the cross-validation
// property test of the fleet engine's DDF semantics (its drifted
// predecessors disagreed with the engine on defect bookkeeping).
func TestFleetMatchesEngineBitIdentical(t *testing.T) {
	cfgs := map[string]Config{
		"NoDefects": fastConfig(),
	}
	withDefects := fastConfig()
	withDefects.Trans.TTLd = dist.MustExponential(5e-4)
	withDefects.Trans.TTScrub = dist.MustWeibull(3, 168, 6)
	cfgs["Scrubbed"] = withDefects
	noScrub := fastConfig()
	noScrub.Trans.TTLd = dist.MustExponential(5e-4)
	cfgs["NoScrub"] = noScrub
	raid6 := fastConfig()
	raid6.Redundancy = 2
	raid6.Trans.TTLd = dist.MustExponential(8e-4)
	raid6.Trans.TTScrub = dist.MustWeibull(3, 168, 6)
	cfgs["Raid6"] = raid6

	const (
		seed       = 700
		groups     = 16
		chronStart = 0
		chrons     = 40
	)
	for name, cfg := range cfgs {
		t.Run(name, func(t *testing.T) {
			mismatches, events := 0, 0
			for c := chronStart; c < chrons; c++ {
				base := uint64(c * groups)
				fleet, _ := simulateFleetSeeded(t, FleetConfig{Groups: groups, Group: cfg}, seed, base)
				for g := 0; g < groups; g++ {
					single, err := simulate(EventEngine{}, cfg, rng.ForStream(seed, base+uint64(g)))
					if err != nil {
						t.Fatal(err)
					}
					events += len(single)
					if len(single) != len(fleet[g].DDFs) {
						mismatches++
						t.Errorf("chron %d group %d: fleet %d DDFs, engine %d", c, g, len(fleet[g].DDFs), len(single))
						continue
					}
					for j := range single {
						if single[j] != fleet[g].DDFs[j] {
							mismatches++
							t.Errorf("chron %d group %d event %d: fleet %+v, engine %+v", c, g, j, fleet[g].DDFs[j], single[j])
							break
						}
					}
				}
				if mismatches > 5 {
					t.Fatalf("too many mismatches; aborting")
				}
			}
			if events == 0 {
				t.Fatalf("no DDFs in %d groups; bit-identity test is vacuous", chrons*groups)
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
			res, _ := simulateFleetSeeded(t, FleetConfig{Groups: groups, Group: cfg}, seed, uint64(i*groups))
			for _, gr := range res {
				total += len(gr.DDFs)
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
			res, _ := simulateFleetSeeded(t, FleetConfig{
				Groups:       4,
				Group:        cfg,
				SharedSpares: pool,
			}, 620, uint64(i*4))
			for _, gr := range res {
				total += len(gr.DDFs)
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
		res, _ := simulateFleetSeeded(t, FleetConfig{Groups: 2, Group: cfg}, 630, uint64(i*2))
		for _, gr := range res {
			for _, d := range gr.DDFs {
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
	res, _ := simulateFleetSeeded(t, FleetConfig{Groups: 3, Group: cfg}, 631, 0)
	for _, gr := range res {
		for j := 1; j < len(gr.DDFs); j++ {
			if gr.DDFs[j].Time < gr.DDFs[j-1].Time {
				t.Fatal("group DDFs unsorted")
			}
		}
	}
}

package sim

import (
	"math"
	"testing"
	"testing/quick"

	"raidrel/internal/dist"
	"raidrel/internal/rng"
)

// propertyConfig derives a random-but-valid configuration from fuzz input.
func propertyConfig(drives uint8, opMean, ttrMean, ldMean, scrubMean float64, scrubOn bool) Config {
	nd := 2 + int(drives%12) // 2..13 drives
	clampMean := func(v, lo, hi float64) float64 {
		v = math.Abs(v)
		if math.IsNaN(v) || math.IsInf(v, 0) || v < lo {
			return lo
		}
		if v > hi {
			return hi
		}
		return v
	}
	cfg := Config{
		Drives:     nd,
		Redundancy: 1,
		Mission:    50000,
		Trans: Transitions{
			TTOp: dist.MustExponential(1 / clampMean(opMean, 2000, 1e6)),
			TTR:  dist.MustExponential(1 / clampMean(ttrMean, 1, 500)),
			TTLd: dist.MustExponential(1 / clampMean(ldMean, 200, 1e6)),
		},
	}
	if scrubOn {
		cfg.Trans.TTScrub = dist.MustExponential(1 / clampMean(scrubMean, 1, 5000))
	}
	return cfg
}

// Invariants that must hold for every configuration and every seed, on
// both engines: events sorted, within mission, valid causes, and spacing
// at least the restore floor when one exists.
func TestPropertyEngineInvariants(t *testing.T) {
	check := func(drives uint8, opMean, ttrMean, ldMean, scrubMean float64, scrubOn bool, seed uint64) bool {
		cfg := propertyConfig(drives, opMean, ttrMean, ldMean, scrubMean, scrubOn)
		for _, engine := range []Engine{EventEngine{}, BlockEngine{}} {
			ddfs, err := simulate(engine, cfg, rng.ForStream(seed, 0))
			if err != nil {
				return false
			}
			prev := 0.0
			for _, d := range ddfs {
				if d.Time < prev || d.Time > cfg.Mission {
					return false
				}
				if d.Cause != CauseOpOp && d.Cause != CauseLdOp {
					return false
				}
				prev = d.Time
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 150}); err != nil {
		t.Error(err)
	}
}

// The DDF count of a group can never exceed its operational-failure
// count: every DDF is triggered by an operational failure, and
// suppression only removes candidates. Verified against an instrumented
// upper bound: with rate λ per drive the op failures over the mission are
// Poisson-bounded; we simply compare against an engine-independent count
// of failures obtained from a no-latent run... simpler and exact: a DDF
// sequence must be no denser than one per restore floor when TTR has a
// location.
func TestPropertyDDFsRespectRestoreFloor(t *testing.T) {
	check := func(seed uint64, floorRaw float64) bool {
		floor := 1 + math.Abs(floorRaw)
		if math.IsNaN(floor) || math.IsInf(floor, 0) || floor > 48 {
			floor = 7
		}
		cfg := Config{
			Drives:     8,
			Redundancy: 1,
			Mission:    87600,
			Trans: Transitions{
				TTOp: dist.MustExponential(1e-4),
				TTR:  dist.MustWeibull(2, floor*2, floor),
				TTLd: dist.MustExponential(1e-3),
			},
		}
		for _, engine := range []Engine{EventEngine{}, BlockEngine{}} {
			ddfs, err := simulate(engine, cfg, rng.ForStream(seed, 1))
			if err != nil {
				return false
			}
			for i := 1; i < len(ddfs); i++ {
				if ddfs[i].Time-ddfs[i-1].Time < floor {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

// Raising the defect rate (with everything else fixed, including the op
// failure sampling stream) can only increase or hold the expected DDF
// count — monotonicity in the latent process.
func TestPropertyDefectRateMonotonicity(t *testing.T) {
	run := func(ldRate float64, seed uint64) int {
		cfg := Config{
			Drives:     8,
			Redundancy: 1,
			Mission:    87600,
			Trans: Transitions{
				TTOp: dist.MustExponential(1e-4),
				TTR:  dist.MustExponential(1e-2),
				TTLd: dist.MustExponential(ldRate),
			},
		}
		total := 0
		for i := 0; i < 800; i++ {
			ddfs, err := simulate(EventEngine{}, cfg, rng.ForStream(seed, uint64(i)))
			if err != nil {
				t.Fatal(err)
			}
			total += len(ddfs)
		}
		return total
	}
	rates := []float64{1e-5, 1e-4, 1e-3, 1e-2}
	prev := -1
	for _, rate := range rates {
		got := run(rate, 123)
		if got < prev {
			t.Fatalf("DDFs decreased when defect rate rose to %v: %d < %d", rate, got, prev)
		}
		prev = got
	}
}

// The expected DDF count is monotone in the mission length. (Individual
// sample paths are NOT nested across horizons — the horizon changes how
// many variates each slot consumes — so the property is statistical.)
func TestPropertyMissionMonotonicity(t *testing.T) {
	run := func(mission float64) int {
		cfg := Config{
			Drives:     8,
			Redundancy: 1,
			Mission:    mission,
			Trans: Transitions{
				TTOp: dist.MustExponential(1e-4),
				TTR:  dist.MustExponential(1e-2),
				TTLd: dist.MustExponential(1e-3),
			},
		}
		total := 0
		for i := 0; i < 1500; i++ {
			ddfs, err := simulate(EventEngine{}, cfg, rng.ForStream(55, uint64(i)))
			if err != nil {
				t.Fatal(err)
			}
			total += len(ddfs)
		}
		return total
	}
	prev := -1
	for _, mission := range []float64{10000, 30000, 60000, 87600} {
		got := run(mission)
		if got < prev {
			t.Fatalf("DDFs decreased when mission grew to %v: %d < %d", mission, got, prev)
		}
		prev = got
	}
}

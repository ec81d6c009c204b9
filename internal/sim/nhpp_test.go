package sim

import (
	"math"
	"testing"

	"raidrel/internal/dist"
	"raidrel/internal/rng"
)

func TestNHPPValidation(t *testing.T) {
	cfg := fastConfig()
	cfg.Trans.TTLdRate = func(float64) float64 { return 1e-4 }
	if err := cfg.Validate(); err == nil {
		t.Error("rate function without bound accepted")
	}
	cfg.Trans.TTLdRateMax = 1e-4
	if err := cfg.Validate(); err != nil {
		t.Errorf("valid NHPP config rejected: %v", err)
	}
	cfg.Trans.TTLd = dist.MustExponential(1e-4)
	if err := cfg.Validate(); err == nil {
		t.Error("TTLd and TTLdRate together accepted")
	}
	cfg.Trans.TTLd = nil
	cfg.Trans.TTLdRate = nil
	if err := cfg.Validate(); err == nil {
		t.Error("bound without rate function accepted")
	}
}

// A constant rate function must reproduce the homogeneous process in
// expectation.
func TestNHPPConstantRateMatchesHomogeneous(t *testing.T) {
	const rate = 5e-4
	homogeneous := fastConfig()
	homogeneous.Trans.TTLd = dist.MustExponential(rate)
	nhpp := fastConfig()
	nhpp.Trans.TTLdRate = func(float64) float64 { return rate }
	nhpp.Trans.TTLdRateMax = rate

	count := func(cfg Config, seed uint64) int {
		total := 0
		for i := 0; i < 3000; i++ {
			ddfs, err := simulate(EventEngine{}, cfg, rng.ForStream(seed, uint64(i)))
			if err != nil {
				t.Fatal(err)
			}
			total += len(ddfs)
		}
		return total
	}
	a := count(homogeneous, 700)
	b := count(nhpp, 701)
	rel := math.Abs(float64(a-b)) / float64(a)
	if rel > 0.08 {
		t.Errorf("NHPP constant rate disagrees with homogeneous: %d vs %d", b, a)
	}
}

// A duty-cycled rate with the same time-average must land between the
// all-idle and all-busy homogeneous processes, near the average.
func TestNHPPDutyCycleBracketing(t *testing.T) {
	const (
		busyRate = 1e-3
		idleRate = 1e-5
	)
	mk := func(busyFrac float64) Config {
		cfg := fastConfig()
		period := 168.0
		busyHours := busyFrac * period
		cfg.Trans.TTLdRate = func(tm float64) float64 {
			if math.Mod(tm, period) < busyHours {
				return busyRate
			}
			return idleRate
		}
		cfg.Trans.TTLdRateMax = busyRate
		return cfg
	}
	count := func(cfg Config, seed uint64) int {
		total := 0
		for i := 0; i < 2000; i++ {
			ddfs, err := simulate(EventEngine{}, cfg, rng.ForStream(seed, uint64(i)))
			if err != nil {
				t.Fatal(err)
			}
			total += len(ddfs)
		}
		return total
	}
	idle := count(mk(0), 710)
	half := count(mk(0.5), 711)
	busy := count(mk(1), 712)
	if !(idle < half && half < busy) {
		t.Errorf("duty-cycle bracketing violated: idle=%d half=%d busy=%d", idle, half, busy)
	}
}

// Engines must agree under an NHPP defect process too.
func TestNHPPEnginesAgree(t *testing.T) {
	mkcfg := func() Config {
		cfg := fastConfig()
		cfg.Mission = 30000
		cfg.Trans.TTLdRate = func(tm float64) float64 {
			// Weekly cycle: 48 busy hours at 1e-3, the rest at 1e-4.
			if math.Mod(tm, 168) < 48 {
				return 1e-3
			}
			return 1e-4
		}
		cfg.Trans.TTLdRateMax = 1e-3
		cfg.Trans.TTScrub = dist.MustWeibull(3, 168, 6)
		return cfg
	}
	count := func(e Engine, seed uint64) int {
		cfg := mkcfg()
		total := 0
		for i := 0; i < 3000; i++ {
			ddfs, err := simulate(e, cfg, rng.ForStream(seed, uint64(i)))
			if err != nil {
				t.Fatal(err)
			}
			total += len(ddfs)
		}
		return total
	}
	a := count(EventEngine{}, 720)
	b := count(BlockEngine{}, 721)
	if a == 0 || b == 0 {
		t.Fatal("no DDFs; config too mild")
	}
	rel := math.Abs(float64(a-b)) / float64(a)
	if rel > 0.1 {
		t.Errorf("engines disagree under NHPP: %d vs %d", a, b)
	}
}

// A misbehaving rate function (exceeding its declared bound) is clamped
// rather than silently biasing the thinning.
func TestNHPPRateClamping(t *testing.T) {
	cfg := fastConfig()
	cfg.Trans.TTLdRate = func(float64) float64 { return 10 } // way over bound
	cfg.Trans.TTLdRateMax = 1e-3
	bounded := fastConfig()
	bounded.Trans.TTLdRate = func(float64) float64 { return 1e-3 }
	bounded.Trans.TTLdRateMax = 1e-3
	count := func(c Config) int {
		total := 0
		for i := 0; i < 500; i++ {
			ddfs, err := simulate(EventEngine{}, c, rng.ForStream(730, uint64(i)))
			if err != nil {
				t.Fatal(err)
			}
			total += len(ddfs)
		}
		return total
	}
	if a, b := count(cfg), count(bounded); a != b {
		t.Errorf("clamped over-bound rate should equal at-bound rate: %d vs %d", a, b)
	}
}

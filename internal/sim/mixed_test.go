package sim

import (
	"testing"

	"raidrel/internal/dist"
	"raidrel/internal/rng"
)

func TestSlotTTOpValidation(t *testing.T) {
	cfg := fastConfig()
	cfg.SlotTTOp = make([]dist.Distribution, 3) // wrong length
	if err := cfg.Validate(); err == nil {
		t.Error("mismatched SlotTTOp length accepted")
	}
	cfg.SlotTTOp = make([]dist.Distribution, cfg.Drives) // all nil: fall back
	if err := cfg.Validate(); err != nil {
		t.Errorf("nil-entry overrides rejected: %v", err)
	}
}

// A group whose slots all override to distribution D must behave exactly
// like a group whose shared TTOp is D.
func TestSlotOverridesEquivalentToShared(t *testing.T) {
	shared := fastConfig()
	shared.Trans.TTOp = dist.MustExponential(2e-4)

	overridden := fastConfig() // base TTOp stays 1e-4 but is fully shadowed
	overridden.SlotTTOp = make([]dist.Distribution, overridden.Drives)
	for i := range overridden.SlotTTOp {
		overridden.SlotTTOp[i] = dist.MustExponential(2e-4)
	}

	count := func(cfg Config) int {
		total := 0
		for i := 0; i < 2000; i++ {
			ddfs, err := simulate(EventEngine{}, cfg, rng.ForStream(77, uint64(i)))
			if err != nil {
				t.Fatal(err)
			}
			total += len(ddfs)
		}
		return total
	}
	a, b := count(shared), count(overridden)
	if a != b {
		t.Fatalf("identical sampling paths diverged: shared=%d overridden=%d", a, b)
	}
}

// Mixing one frail vintage into a healthy group raises the DDF rate above
// the all-healthy group and below the all-frail group.
func TestMixedVintageBracketing(t *testing.T) {
	healthy := dist.MustExponential(5e-5)
	frail := dist.MustExponential(5e-4)

	run := func(slotDist func(i int) dist.Distribution) int {
		cfg := fastConfig()
		cfg.Trans.TTOp = healthy
		cfg.SlotTTOp = make([]dist.Distribution, cfg.Drives)
		for i := range cfg.SlotTTOp {
			cfg.SlotTTOp[i] = slotDist(i)
		}
		total := 0
		for i := 0; i < 3000; i++ {
			ddfs, err := simulate(EventEngine{}, cfg, rng.ForStream(88, uint64(i)))
			if err != nil {
				t.Fatal(err)
			}
			total += len(ddfs)
		}
		return total
	}
	allHealthy := run(func(int) dist.Distribution { return healthy })
	allFrail := run(func(int) dist.Distribution { return frail })
	mixed := run(func(i int) dist.Distribution {
		if i < 4 {
			return frail
		}
		return healthy
	})
	if !(allHealthy < mixed && mixed < allFrail) {
		t.Errorf("bracketing violated: healthy=%d mixed=%d frail=%d",
			allHealthy, mixed, allFrail)
	}
}

// Both engines must agree under heterogeneous slots too.
func TestMixedVintageEnginesAgree(t *testing.T) {
	cfg := fastConfig()
	cfg.Mission = 30000
	cfg.SlotTTOp = make([]dist.Distribution, cfg.Drives)
	for i := range cfg.SlotTTOp {
		if i%2 == 0 {
			cfg.SlotTTOp[i] = dist.MustWeibull(1.4873, 7.5012e4, 0)
		} else {
			cfg.SlotTTOp[i] = dist.MustWeibull(1.0987, 4.5444e5, 0)
		}
	}
	cfg.Trans.TTLd = dist.MustExponential(5e-4)
	cfg.Trans.TTScrub = dist.MustWeibull(3, 168, 6)
	count := func(e Engine, seed uint64) int {
		total := 0
		for i := 0; i < 4000; i++ {
			ddfs, err := simulate(e, cfg, rng.ForStream(seed, uint64(i)))
			if err != nil {
				t.Fatal(err)
			}
			total += len(ddfs)
		}
		return total
	}
	a := count(EventEngine{}, 90)
	b := count(BlockEngine{}, 91)
	if a == 0 || b == 0 {
		t.Fatal("no DDFs; config too mild")
	}
	rel := float64(a-b) / float64(a)
	if rel < 0 {
		rel = -rel
	}
	if rel > 0.1 {
		t.Errorf("engines disagree on mixed vintages: %d vs %d", a, b)
	}
}

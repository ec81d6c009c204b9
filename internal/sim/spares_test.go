package sim

import (
	"math"
	"testing"

	"raidrel/internal/dist"
	"raidrel/internal/rng"
)

func TestSparePolicyValidate(t *testing.T) {
	var nilPolicy *SparePolicy
	if err := nilPolicy.Validate(); err != nil {
		t.Errorf("nil policy invalid: %v", err)
	}
	if err := (&SparePolicy{Initial: -1}).Validate(); err == nil {
		t.Error("negative stock accepted")
	}
	if err := (&SparePolicy{ReplenishHours: -5}).Validate(); err == nil {
		t.Error("negative replenish accepted")
	}
	if err := (&SparePolicy{ReplenishHours: math.Inf(1)}).Validate(); err == nil {
		t.Error("infinite replenish accepted")
	}
	if err := (&SparePolicy{Initial: 2, ReplenishHours: 72}).Validate(); err != nil {
		t.Errorf("valid policy rejected: %v", err)
	}
}

// Unit-level pool semantics.
func TestSparePoolMechanics(t *testing.T) {
	var pool sparePool
	pool.reset(&SparePolicy{Initial: 1, ReplenishHours: 100})
	// First failure: stock available, rebuild starts immediately; an order
	// is placed for t=110.
	if got := pool.rebuildStart(10); got != 10 {
		t.Fatalf("start = %v, want 10", got)
	}
	// Second failure at 20: no stock, earliest order arrives at 110.
	if got := pool.rebuildStart(20); got != 110 {
		t.Fatalf("start = %v, want 110", got)
	}
	// Third failure at 300: the order placed at 20 arrived at 120, back in
	// stock.
	if got := pool.rebuildStart(300); got != 300 {
		t.Fatalf("start = %v, want 300", got)
	}
	// A pool without a policy never delays.
	var unlimited sparePool
	if got := unlimited.rebuildStart(42); got != 42 {
		t.Fatalf("nil pool start = %v", got)
	}
}

// A huge spare pool must reproduce the infinite-spares baseline exactly
// (same sampling paths).
func TestAmpleSparesMatchBaseline(t *testing.T) {
	base := fastConfig()
	withPool := base
	withPool.Spares = &SparePolicy{Initial: 10000, ReplenishHours: 1e6}
	for i := 0; i < 500; i++ {
		a, err := simulate(EventEngine{}, base, rng.ForStream(500, uint64(i)))
		if err != nil {
			t.Fatal(err)
		}
		b, err := simulate(EventEngine{}, withPool, rng.ForStream(500, uint64(i)))
		if err != nil {
			t.Fatal(err)
		}
		if len(a) != len(b) {
			t.Fatalf("iteration %d: %d vs %d DDFs", i, len(a), len(b))
		}
		for j := range a {
			if a[j] != b[j] {
				t.Fatalf("iteration %d: event %d differs", i, j)
			}
		}
	}
}

// Starving the spare pool lengthens exposure windows and must increase
// DDFs; more initial stock must help monotonically.
func TestSpareStarvationIncreasesDDFs(t *testing.T) {
	count := func(policy *SparePolicy) int {
		cfg := fastConfig()
		cfg.Spares = policy
		total := 0
		for i := 0; i < 3000; i++ {
			ddfs, err := simulate(EventEngine{}, cfg, rng.ForStream(501, uint64(i)))
			if err != nil {
				t.Fatal(err)
			}
			total += len(ddfs)
		}
		return total
	}
	unlimited := count(nil)
	starved := count(&SparePolicy{Initial: 0, ReplenishHours: 500})
	stocked := count(&SparePolicy{Initial: 2, ReplenishHours: 500})
	if starved <= unlimited*3 {
		t.Errorf("500 h spare waits should multiply DDFs: starved=%d unlimited=%d",
			starved, unlimited)
	}
	if !(unlimited <= stocked && stocked <= starved) {
		t.Errorf("ordering violated: unlimited=%d stocked=%d starved=%d",
			unlimited, stocked, starved)
	}
}

// Zero replenish time is indistinguishable from unlimited spares in
// expectation (rebuild never waits).
func TestInstantReplenishEquivalent(t *testing.T) {
	cfg := fastConfig()
	cfg.Spares = &SparePolicy{Initial: 0, ReplenishHours: 0}
	total := 0
	for i := 0; i < 2000; i++ {
		ddfs, err := simulate(EventEngine{}, cfg, rng.ForStream(502, uint64(i)))
		if err != nil {
			t.Fatal(err)
		}
		total += len(ddfs)
	}
	base := 0
	cfg.Spares = nil
	for i := 0; i < 2000; i++ {
		ddfs, err := simulate(EventEngine{}, cfg, rng.ForStream(502, uint64(i)))
		if err != nil {
			t.Fatal(err)
		}
		base += len(ddfs)
	}
	if total != base {
		t.Errorf("instant replenish changed results: %d vs %d", total, base)
	}
}

// DDF spacing still respects suppression with delayed rebuild starts, and
// all invariants hold under spare starvation.
func TestSpareChronologyInvariants(t *testing.T) {
	cfg := fastConfig()
	cfg.Trans.TTLd = dist.MustExponential(5e-4)
	cfg.Trans.TTScrub = dist.MustWeibull(3, 168, 6)
	cfg.Spares = &SparePolicy{Initial: 1, ReplenishHours: 300}
	for i := 0; i < 400; i++ {
		ddfs, err := simulate(EventEngine{}, cfg, rng.ForStream(503, uint64(i)))
		if err != nil {
			t.Fatal(err)
		}
		prev := -1.0
		for _, d := range ddfs {
			if d.Time <= prev {
				t.Fatal("unsorted or duplicate DDF times")
			}
			if d.Time < 0 || d.Time > cfg.Mission {
				t.Fatalf("DDF at %v outside mission", d.Time)
			}
			prev = d.Time
		}
	}
}

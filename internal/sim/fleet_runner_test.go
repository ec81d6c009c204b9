package sim

import (
	"math"
	"reflect"
	"runtime/debug"
	"testing"

	"raidrel/internal/dist"
)

// An uncontended fleet run through the runner observes the exact sparse
// result a scalar event-engine run does: group Offset+b·Groups+g draws
// from stream Offset+i like scalar iteration i.
func TestFleetRunMatchesScalarRun(t *testing.T) {
	cfg := fastConfig()
	cfg.Trans.TTLd = dist.MustExponential(5e-4)
	cfg.Trans.TTScrub = dist.MustWeibull(3, 168, 6)
	const n = 480
	scalar, err := RunSparse(RunSpec{Config: cfg, Iterations: n, Seed: 99, Workers: 3, Engine: EventEngine{}})
	if err != nil {
		t.Fatal(err)
	}
	if scalar.TotalDDFs == 0 {
		t.Fatal("no DDFs; comparison is vacuous")
	}
	fleet, err := RunSparse(RunSpec{
		Config: cfg, Iterations: n, Seed: 99, Workers: 3,
		Fleet: &FleetOptions{Groups: 12},
	})
	if err != nil {
		t.Fatal(err)
	}
	if fleet.Groups != scalar.Groups || !reflect.DeepEqual(fleet.Events, scalar.Events) {
		t.Fatal("uncontended fleet run differs from the scalar event-engine run")
	}
	if fleet.Fleet == nil {
		t.Fatal("fleet run produced no backlog tally")
	}
	if fleet.Fleet.Chronologies != n/12 || fleet.Fleet.GroupsPer != 12 {
		t.Fatalf("tally shape: %+v", fleet.Fleet)
	}
	if fleet.Fleet.Failures != fleet.Fleet.Rebuilds+fleet.Fleet.ActiveAtEnd+fleet.Fleet.QueuedAtEnd {
		t.Fatalf("tally conservation: %+v", fleet.Fleet)
	}
	if fleet.Fleet.Waited != 0 || fleet.Fleet.TotalWaitHours != 0 {
		t.Fatalf("uncontended fleet accrued waits: %+v", fleet.Fleet)
	}
}

// The fleet path's merge must be bit-identical for any worker count —
// the -race companion of the scalar invariance test, covering contended
// fleets (shared spares and a rebuild cap) where the backlog tallies are
// nontrivial.
func TestFleetRunWorkerCountInvariance(t *testing.T) {
	cfg := fastConfig()
	base := RunSpec{
		Config: cfg, Iterations: 360, Seed: 41,
		Fleet: &FleetOptions{
			Groups:                6,
			SharedSpares:          &SparePolicy{Initial: 1, ReplenishHours: 300},
			MaxConcurrentRebuilds: 1,
		},
	}
	one := base
	one.Workers = 1
	four := base
	four.Workers = 4
	r1, err := RunSparse(one)
	if err != nil {
		t.Fatal(err)
	}
	r4, err := RunSparse(four)
	if err != nil {
		t.Fatal(err)
	}
	if r1.Groups != r4.Groups || !reflect.DeepEqual(r1.Events, r4.Events) {
		t.Fatal("Workers:1 and Workers:4 produced different fleet event streams")
	}
	if r1.Fleet == nil || r4.Fleet == nil || *r1.Fleet != *r4.Fleet {
		t.Fatalf("fleet tallies differ across worker counts: %+v vs %+v", r1.Fleet, r4.Fleet)
	}
	if r1.TotalDDFs == 0 || r1.Fleet.Waited == 0 {
		t.Error("contended fleet produced no DDFs or no waits; invariance test is vacuous")
	}
}

// Batched fleet campaigns compose exactly like scalar ones: [0,k) then
// [k,n) with Offset k merges — events and backlog tally both — to the
// single-run result.
func TestFleetRunOffsetComposition(t *testing.T) {
	cfg := fastConfig()
	fo := &FleetOptions{Groups: 6, MaxConcurrentRebuilds: 1}
	whole, err := RunSparse(RunSpec{Config: cfg, Iterations: 360, Seed: 43, Workers: 2, Fleet: fo})
	if err != nil {
		t.Fatal(err)
	}
	first, err := RunSparse(RunSpec{Config: cfg, Iterations: 120, Seed: 43, Workers: 2, Fleet: fo})
	if err != nil {
		t.Fatal(err)
	}
	second, err := RunSparse(RunSpec{Config: cfg, Iterations: 240, Seed: 43, Workers: 2, Fleet: fo, Offset: 120})
	if err != nil {
		t.Fatal(err)
	}
	first.Merge(second)
	if first.Groups != whole.Groups || !reflect.DeepEqual(first.Events, whole.Events) {
		t.Fatal("batched fleet run does not compose to the single run")
	}
	a, b := *first.Fleet, *whole.Fleet
	// The wait-hour and depth sums fold per-chronology values in a
	// different association when batched, so they match to rounding only;
	// every other field is exact.
	if math.Abs(a.TotalWaitHours-b.TotalWaitHours) > 1e-12*math.Max(1, b.TotalWaitHours) ||
		math.Abs(a.MeanDepthSum-b.MeanDepthSum) > 1e-12*math.Max(1, b.MeanDepthSum) {
		t.Fatalf("merged fleet sums %v/%v != single-run %v/%v",
			a.TotalWaitHours, a.MeanDepthSum, b.TotalWaitHours, b.MeanDepthSum)
	}
	a.TotalWaitHours, a.MeanDepthSum = b.TotalWaitHours, b.MeanDepthSum
	if a != b {
		t.Fatalf("merged fleet tally %+v != single-run %+v", a, b)
	}
}

func TestFleetRunValidation(t *testing.T) {
	cfg := fastConfig()
	fo := &FleetOptions{Groups: 6}
	if err := RunCollect(RunSpec{Config: cfg, Iterations: 100, Seed: 1, Fleet: fo}, &SparseResult{}); err == nil {
		t.Error("iterations not a multiple of the fleet size accepted")
	}
	if err := RunCollect(RunSpec{Config: cfg, Iterations: 60, Offset: 3, Seed: 1, Fleet: fo}, &SparseResult{}); err == nil {
		t.Error("offset not a multiple of the fleet size accepted")
	}
	if err := RunCollect(RunSpec{Config: cfg, Iterations: 60, Seed: 1, Fleet: fo, Engine: BlockEngine{}}, &SparseResult{}); err == nil {
		t.Error("explicit engine on a fleet run accepted")
	}
	vr := cfg
	vr.VR = VR{Antithetic: true}
	if err := RunCollect(RunSpec{Config: vr, Iterations: 60, Seed: 1, Fleet: fo}, &SparseResult{}); err == nil {
		t.Error("variance reduction on a fleet run accepted")
	}
}

// The acceptance bar for fleet scale: a warm 10⁵-group event-free fleet
// chronology — the shape of a production fleet sweep's inner loop — runs
// with zero steady-state heap allocations.
func TestFleetIntoZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates; the zero-alloc contract is gated in the non-race job")
	}
	defer debug.SetGCPercent(debug.SetGCPercent(-1))

	// Failures far beyond the mission and no defect process: every group is
	// event-free, so any allocation is hot-path bookkeeping, not event
	// copying. (At 8·10⁵ slots even a 10⁻¹² failure rate would seed a few
	// real failures across the measured runs.)
	cfg := fastConfig()
	cfg.Trans.TTOp = dist.MustExponential(1e-15)
	fo := FleetOptions{Groups: 100_000, MaxConcurrentRebuilds: 4}
	var st FleetStats
	visit := func(g int, ddfs []DDF) {
		t.Fatalf("event-free fleet visited group %d", g)
	}
	run := func() {
		if err := SimulateFleetInto(cfg, fo, 7, 0, visit, &st); err != nil {
			t.Fatal(err)
		}
	}
	run() // warm the pooled scratch to the fleet's size
	allocs := testing.AllocsPerRun(20, run)
	if allocs != 0 {
		t.Errorf("warm %d-group SimulateFleetInto allocates %.1f allocs/run, want 0", fo.Groups, allocs)
	}
	if st.Failures != 0 {
		t.Fatalf("config produced failures; alloc bound is not measuring the idle path")
	}
}

// Same contract under real event load at a smaller scale: a warm
// contended fleet whose chronology produces failures, waits, and DDFs
// still allocates nothing once the scratch has grown.
func TestFleetIntoZeroAllocBusy(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates; the zero-alloc contract is gated in the non-race job")
	}
	defer debug.SetGCPercent(debug.SetGCPercent(-1))

	cfg := fastConfig()
	fo := FleetOptions{
		Groups:                64,
		SharedSpares:          &SparePolicy{Initial: 2, ReplenishHours: 200},
		MaxConcurrentRebuilds: 2,
	}
	var st FleetStats
	st.GroupWaitHours = make([]float64, fo.Groups)
	visit := func(g int, ddfs []DDF) {}
	var err error
	run := func() {
		err = SimulateFleetInto(cfg, fo, 11, 0, visit, &st)
	}
	for i := 0; i < 10; i++ {
		run() // warm every reusable array to this chronology's high-water mark
		if err != nil {
			t.Fatal(err)
		}
	}
	if st.Failures == 0 || st.Waited == 0 {
		t.Fatal("busy fleet produced no failures or waits; alloc test is vacuous")
	}
	allocs := testing.AllocsPerRun(50, run)
	if err != nil {
		t.Fatal(err)
	}
	if allocs != 0 {
		t.Errorf("warm busy fleet chronology allocates %.1f allocs/run, want 0", allocs)
	}
}

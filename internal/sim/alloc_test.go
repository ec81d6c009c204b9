package sim

import (
	"runtime"
	"runtime/debug"
	"testing"

	"raidrel/internal/dist"
	"raidrel/internal/rng"
)

// TestSimulateIntoZeroAlloc asserts the engine hot path's contract: after
// warm-up, an event-free base-case chronology — the overwhelming majority
// in the rare-event regime — runs with zero heap allocations. The contract
// covers both engines, plain and with importance sampling active (the
// tilted kernels must not reintroduce per-draw allocation), and the event
// engine with a finite spare pool (the pool lives in the pooled scratch).
func TestSimulateIntoZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates; the zero-alloc contract is gated in the non-race job")
	}
	cases := []struct {
		name   string
		eng    Engine
		bias   Bias
		spares *SparePolicy
	}{
		{"EventEngine/Plain", EventEngine{}, Bias{}, nil},
		{"EventEngine/BiasedOp8", EventEngine{}, Bias{Op: 8}, nil},
		{"EventEngine/FiniteSpares", EventEngine{}, Bias{}, &SparePolicy{Initial: 1, ReplenishHours: 24}},
		{"BlockEngine/Plain", BlockEngine{}, Bias{}, nil},
		{"BlockEngine/BiasedOp8", BlockEngine{}, Bias{Op: 8}, nil},
	}
	for _, e := range cases {
		t.Run(e.name, func(t *testing.T) {
			// sync.Pool contents may be dropped by a GC cycle
			// mid-measurement; that is a pool refill, not a hot-path
			// allocation. Disable GC.
			defer debug.SetGCPercent(debug.SetGCPercent(-1))

			cfg := paperBaseConfig()
			cfg.Bias = e.bias
			cfg.Spares = e.spares
			var (
				r   rng.RNG
				buf []DDF
				err error
			)
			// Find a stream with an event-free chronology (at ~2.7e-4
			// plain DDF probability the first candidate virtually always
			// qualifies; under θ=8 most streams still qualify), warming
			// the pooled scratch along the way. With a spare pool the
			// chronology must also fail a drive, so the pool is used.
			stream := uint64(0)
			found := false
			for s := uint64(0); s < 100; s++ {
				r.SeedStream(1, s)
				buf, _, err = e.eng.SimulateInto(cfg, &r, buf[:0])
				if err != nil {
					t.Fatal(err)
				}
				if len(buf) == 0 && !found && (e.spares == nil || failsDrive(t, cfg, s)) {
					stream, found = s, true
				}
			}
			if !found {
				t.Fatal("no event-free chronology in 100 base-case streams")
			}

			allocs := testing.AllocsPerRun(200, func() {
				r.SeedStream(1, stream)
				buf, _, err = e.eng.SimulateInto(cfg, &r, buf[:0])
			})
			if err != nil {
				t.Fatal(err)
			}
			if allocs != 0 {
				t.Errorf("event-free SimulateInto allocates %.1f allocs/run, want 0", allocs)
			}
		})
	}
}

// failsDrive reports whether stream s of seed 1 fails a drive within the
// mission.
func failsDrive(t *testing.T, cfg Config, s uint64) bool {
	t.Helper()
	tr := &Trace{}
	if _, err := SimulateTraced(cfg, rng.ForStream(1, s), tr); err != nil {
		t.Fatal(err)
	}
	return tr.Count(TraceOpFail) > 0
}

// TestSimulateIntoZeroAllocCoupled extends the zero-allocation contract to
// the topology layer: with a coupled component tree attached — components
// actually failing, pausing rebuilds, and emitting unavailability onsets —
// a warm event-engine chronology whose events fit the reused buffer must
// still not touch the heap. All of topoScratch's state is pooled slices.
func TestSimulateIntoZeroAllocCoupled(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates; the zero-alloc contract is gated in the non-race job")
	}
	defer debug.SetGCPercent(debug.SetGCPercent(-1))

	cfg := paperBaseConfig()
	// Hot enough that component failures and unavailability onsets are
	// routine, so the measured path includes compFail/compRestore, the
	// pause bookkeeping, and onset appends — not just the idle check.
	cfg.Topology = &Topology{Components: []Component{
		{Name: "enclosure", Drives: []int{0, 1, 2, 3, 4, 5, 6, 7},
			TTOp: dist.MustExponential(1e-4), TTR: dist.MustExponential(1e-3)},
		{Name: "expander", Drives: []int{0, 1, 2, 3}, Paths: 2,
			TTOp: dist.MustExponential(1e-4), TTR: dist.MustExponential(1e-2)},
	}}
	eng := EventEngine{}
	var (
		r   rng.RNG
		buf []DDF
		err error
	)
	// Warm the pools and the buffer capacity, and pick a stream that did
	// produce unavailability onsets so the measurement is not vacuous.
	stream, found := uint64(0), false
	for s := uint64(0); s < 100; s++ {
		r.SeedStream(1, s)
		buf, _, err = eng.SimulateInto(cfg, &r, buf[:0])
		if err != nil {
			t.Fatal(err)
		}
		for _, d := range buf {
			if d.Cause == CauseUnavail {
				stream, found = s, true
			}
		}
	}
	if !found {
		t.Fatal("no unavailability onsets in 100 coupled streams; alloc test is vacuous")
	}

	allocs := testing.AllocsPerRun(200, func() {
		r.SeedStream(1, stream)
		buf, _, err = eng.SimulateInto(cfg, &r, buf[:0])
	})
	if err != nil {
		t.Fatal(err)
	}
	if allocs != 0 {
		t.Errorf("warm coupled SimulateInto allocates %.1f allocs/run, want 0", allocs)
	}
}

// TestRunSparseMemoryFootprint is the O(events)-not-O(iterations)
// regression guard: a 1M-iteration base-case run must allocate far less
// than the dense PerGroup representation's 24 MB of slice headers alone.
// The bound is generous — the point is the asymptotic class, not the
// constant.
func TestRunSparseMemoryFootprint(t *testing.T) {
	if testing.Short() {
		t.Skip("1M-iteration run skipped in -short mode")
	}
	if raceEnabled {
		t.Skip("race instrumentation allocates; the O(events) bound is gated in the non-race job")
	}
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	res, err := RunSparse(RunSpec{
		Config:     paperBaseConfig(),
		Iterations: 1_000_000,
		Seed:       20070625,
	})
	if err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&after)
	allocated := after.TotalAlloc - before.TotalAlloc

	if res.TotalDDFs == 0 {
		t.Fatal("1M base-case groups produced no DDFs; bound test is vacuous")
	}
	// The base case yields ~0.14 events per group, so the sparse pipeline
	// allocates ~20 MB here (event copies plus index growth). The
	// store-everything pipeline allocated ~12 KB per iteration — ~12 GB
	// for this run — so the generous 64 MB bound still catches any
	// O(iterations) regression by two orders of magnitude.
	const bound = 64 << 20
	if allocated > bound {
		t.Errorf("1M-iteration sparse run allocated %d bytes (> %d): result pipeline is no longer O(events)",
			allocated, bound)
	}
	t.Logf("1M iterations: %d DDFs, %d bytes allocated", res.TotalDDFs, allocated)
}

// TestBlockRunnerSteadyStateAllocs pins the batched path's allocation
// contract at the runner level, where the pooled scratch is amortized over
// whole blocks: once the pools are warm, an event-free iteration costs no
// steady-state heap allocation — the per-run overhead (goroutines,
// channels, handoff growth) stays a small constant regardless of the
// iteration count.
func TestBlockRunnerSteadyStateAllocs(t *testing.T) {
	defer debug.SetGCPercent(debug.SetGCPercent(-1))

	// Operational failures far beyond the mission: every chronology is
	// event-free, so any per-iteration allocation is hot-path bookkeeping,
	// not event copying.
	cfg := paperBaseConfig()
	cfg.Trans.TTOp = dist.MustExponential(1e-12)
	const iters = 1 << 14
	run := func() {
		res := &SparseResult{}
		if err := RunCollect(RunSpec{
			Config: cfg, Iterations: iters, Seed: 3, Workers: 1, Engine: BlockEngine{},
		}, res); err != nil {
			t.Fatal(err)
		}
		if res.TotalDDFs != 0 {
			t.Fatal("config produced events; alloc bound is not measuring the hot path")
		}
	}
	run() // warm the scratch, handoff, and channel pools

	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	run()
	runtime.ReadMemStats(&after)
	allocs := after.Mallocs - before.Mallocs

	// One warm 16K-iteration run measures ~10 allocations (worker goroutine
	// plus channel plumbing); 256 leaves slack for runtime noise while still
	// failing loudly on any O(iterations) regression.
	if allocs > 256 {
		t.Errorf("warm %d-iteration block run made %d allocations, want a small constant (<= 256)", iters, allocs)
	}
	t.Logf("%d iterations: %d allocations", iters, allocs)
}

// TestEventRunnerSteadyStateAllocs pins the scalar step's allocation
// contract through the dispatch loop: once the pools are warm, an
// event-free EventEngine iteration allocates nothing, so a run four times
// longer makes exactly as many allocations (the per-run goroutine and
// channel plumbing) as a short one. This relies on RunCollect returning
// only after its workers have exited: a worker still exiting when the next
// run starts made that run allocate a fresh goroutine (one or two
// allocations, at random).
func TestEventRunnerSteadyStateAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates; the zero-alloc contract is gated in the non-race job")
	}
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	// One P keeps every sync.Pool hit on the same per-P cache, as
	// testing.AllocsPerRun does.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))

	cfg := paperBaseConfig()
	cfg.Trans.TTOp = dist.MustExponential(1e-12)
	mallocs := func(iters int) uint64 {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		res := &SparseResult{}
		if err := RunCollect(RunSpec{
			Config: cfg, Iterations: iters, Seed: 3, Workers: 1, Engine: EventEngine{},
		}, res); err != nil {
			t.Fatal(err)
		}
		runtime.ReadMemStats(&after)
		if res.TotalDDFs != 0 {
			t.Fatal("config produced events; alloc check is not measuring the hot path")
		}
		return after.Mallocs - before.Mallocs
	}
	const iters = 1 << 12
	mallocs(4 * iters) // warm the engine scratch, unit, and channel pools
	short, long := mallocs(iters), mallocs(4*iters)
	if long != short {
		t.Errorf("warm event-engine runs: %d iterations made %d allocations, %d made %d; want equal (0 per iteration)",
			iters, short, 4*iters, long)
	}
	t.Logf("%d iterations: %d allocations per run", iters, short)
}

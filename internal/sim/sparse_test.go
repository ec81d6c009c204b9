package sim

import (
	"reflect"
	"sync"
	"testing"

	"raidrel/internal/rng"
)

// TestRunSparseMatchesSerialSimulate pins the whole streaming pipeline —
// SimulateInto fast path, per-worker scratch reuse, and the in-order
// channel merge — against the simplest possible reference: a serial loop
// calling SimulateInto with a fresh RNG per stream.
func TestRunSparseMatchesSerialSimulate(t *testing.T) {
	cfg := fastConfig()
	const n = 300
	want := &SparseResult{}
	for i := 0; i < n; i++ {
		ddfs, err := simulate(EventEngine{}, cfg, rng.ForStream(99, uint64(i)))
		if err != nil {
			t.Fatal(err)
		}
		want.Observe(i, ddfs, 0)
	}
	if want.TotalDDFs == 0 {
		t.Fatal("fast config produced no DDFs; test is vacuous")
	}

	got, err := RunSparse(RunSpec{Config: cfg, Iterations: n, Seed: 99, Workers: 5, Engine: EventEngine{}})
	if err != nil {
		t.Fatal(err)
	}
	if got.Groups != want.Groups || !reflect.DeepEqual(got.Events, want.Events) {
		t.Fatal("RunSparse differs from serial per-stream Simulate")
	}
	if got.TotalDDFs != want.TotalDDFs || got.OpOpDDFs != want.OpOpDDFs || got.LdOpDDFs != want.LdOpDDFs {
		t.Fatalf("tallies differ: (%d,%d,%d) vs (%d,%d,%d)",
			got.TotalDDFs, got.OpOpDDFs, got.LdOpDDFs, want.TotalDDFs, want.OpOpDDFs, want.LdOpDDFs)
	}
}

// TestRunSparseWorkerCountInvariance is the worker-count invariance test
// on the event engine: the event index must be bit-identical for any
// worker count.
func TestRunSparseWorkerCountInvariance(t *testing.T) {
	base := RunSpec{Config: paperBaseConfig(), Iterations: 400, Seed: 20070625, Engine: EventEngine{}}
	one := base
	one.Workers = 1
	seven := base
	seven.Workers = 7
	r1, err := RunSparse(one)
	if err != nil {
		t.Fatal(err)
	}
	r7, err := RunSparse(seven)
	if err != nil {
		t.Fatal(err)
	}
	if r1.Groups != r7.Groups || !reflect.DeepEqual(r1.Events, r7.Events) {
		t.Fatal("Workers:1 and Workers:7 produced different sparse results")
	}
	if r1.TotalDDFs == 0 {
		t.Error("base case produced no DDFs in 400 groups; invariance test is vacuous")
	}
}

// TestRunCollectObservesInOrder: whatever the worker count, the Collector
// sees iterations 0..n-1 in strictly increasing order.
func TestRunCollectObservesInOrder(t *testing.T) {
	const n = 500
	next := 0
	err := RunCollect(RunSpec{Config: fastConfig(), Iterations: n, Seed: 5, Workers: 7},
		CollectorFunc(func(iteration int, ddfs []DDF, logW float64) {
			if logW != 0 {
				t.Fatalf("iteration %d: unbiased run has nonzero log weight %v", iteration, logW)
			}
			if iteration != next {
				t.Fatalf("observed iteration %d, want %d", iteration, next)
			}
			next++
			for j := 1; j < len(ddfs); j++ {
				if ddfs[j].Time < ddfs[j-1].Time {
					t.Fatalf("iteration %d: events out of chronological order", iteration)
				}
			}
		}))
	if err != nil {
		t.Fatal(err)
	}
	if next != n {
		t.Fatalf("observed %d iterations, want %d", next, n)
	}
}

// TestSparseMergeComposition mirrors the dense offset-composition test:
// [0,k) merged with [k,n) run at Offset k equals a single [0,n) run.
func TestSparseMergeComposition(t *testing.T) {
	cfg := fastConfig()
	const n, k = 300, 110
	whole, err := RunSparse(RunSpec{Config: cfg, Iterations: n, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	head, err := RunSparse(RunSpec{Config: cfg, Iterations: k, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	// Force the flat-times cache to check Merge invalidates it.
	before := head.DDFsBefore(cfg.Mission)
	tail, err := RunSparse(RunSpec{Config: cfg, Iterations: n - k, Seed: 7, Offset: k, Workers: 3})
	if err != nil {
		t.Fatal(err)
	}
	head.Merge(tail)
	if head.Groups != n {
		t.Fatalf("merged %d groups, want %d", head.Groups, n)
	}
	if !reflect.DeepEqual(head.Events, whole.Events) {
		t.Fatal("offset-batched sparse run differs from single run")
	}
	if got := head.DDFsBefore(cfg.Mission); got != before+tail.TotalDDFs {
		t.Errorf("post-merge DDFsBefore = %d, want %d", got, before+tail.TotalDDFs)
	}
}

func TestSparseResultHelpers(t *testing.T) {
	r := &SparseResult{}
	r.Observe(0, nil, 0)
	r.Observe(1, []DDF{{Time: 50, Cause: CauseOpOp}, {Time: 60, Cause: CauseLdOp}}, 0)
	r.Observe(2, nil, 0)
	r.Observe(3, []DDF{{Time: 10, Cause: CauseLdOp}}, 0)
	r.Observe(4, nil, 0)

	if r.Groups != 5 {
		t.Errorf("Groups = %d, want 5", r.Groups)
	}
	if r.TotalDDFs != 3 || r.OpOpDDFs != 1 || r.LdOpDDFs != 2 {
		t.Errorf("tallies (%d,%d,%d), want (3,1,2)", r.TotalDDFs, r.OpOpDDFs, r.LdOpDDFs)
	}
	if k := r.GroupsWithDDF(); k != 2 {
		t.Errorf("GroupsWithDDF = %d, want 2", k)
	}
	if ts := r.Times(); !reflect.DeepEqual(ts, []float64{10, 50, 60}) {
		t.Errorf("Times = %v", ts)
	}
	if r.DDFsBefore(55) != 2 || r.DDFsBefore(5) != 0 || r.DDFsBefore(100) != 3 {
		t.Error("DDFsBefore wrong")
	}
	if got := r.GroupCounts(55); !reflect.DeepEqual(got, []float64{1, 1}) {
		t.Errorf("GroupCounts(55) = %v, want [1 1]", got)
	}
	if got := r.GroupCounts(100); !reflect.DeepEqual(got, []float64{2, 1}) {
		t.Errorf("GroupCounts(100) = %v, want [2 1]", got)
	}
	if got := r.GroupCounts(5); got != nil {
		t.Errorf("GroupCounts(5) = %v, want nil", got)
	}

	// Tally from raw events (the checkpoint-restore path).
	restored := &SparseResult{Groups: r.Groups, Events: r.Events}
	restored.Tally()
	if restored.TotalDDFs != 3 || restored.OpOpDDFs != 1 || restored.LdOpDDFs != 2 {
		t.Error("Tally from events wrong")
	}
}

// Regression test for the cache-invalidation race: a live progress reader
// querying a SparseResult while a campaign keeps accumulating must be
// safe. The original code rebuilt the flat-times cache under a sync.Once
// that Observe reassigned concurrently — a data race the -race detector
// flags; the mutex version must stay silent.
func TestSparseResultConcurrentAccess(t *testing.T) {
	r := &SparseResult{}
	done := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		// The writer stops at a fixed size: every reader call is linear in
		// the accumulated events, so an unbounded writer made the test's
		// run time depend on how the scheduler interleaved the two.
		for i := 0; i < 30_000; i++ {
			select {
			case <-done:
				return
			default:
			}
			var ddfs []DDF
			if i%3 == 0 {
				ddfs = []DDF{{Time: float64(i % 100), Cause: CauseOpOp}}
			}
			r.Observe(i, ddfs, 0)
			if i%50 == 0 {
				other := &SparseResult{}
				other.Observe(0, []DDF{{Time: 1, Cause: CauseLdOp}}, 0.5)
				r.Merge(other)
			}
		}
	}()
	for j := 0; j < 2000; j++ {
		r.Times()
		r.TimesAndWeights()
		r.DDFsBefore(50)
		r.GroupsWithDDF()
		r.GroupWeights()
		r.GroupCounts(75)
		r.WeightedCauseTotals()
		r.Weighted()
	}
	close(done)
	wg.Wait()
}

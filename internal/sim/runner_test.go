package sim

import (
	"math"
	"reflect"
	"testing"

	"raidrel/internal/dist"
)

// paperBaseConfig is the paper's Table 2 base case (the same parameters
// core.BaseCase lowers to), rebuilt here because sim cannot import core.
func paperBaseConfig() Config {
	return Config{
		Drives:     8,
		Redundancy: 1,
		Mission:    87600,
		Trans: Transitions{
			TTOp:    dist.MustWeibull(1.12, 461386, 0),
			TTR:     dist.MustWeibull(2, 12, 6),
			TTLd:    dist.MustWeibull(1, 9259, 0),
			TTScrub: dist.MustWeibull(3, 168, 6),
		},
	}
}

// TestRunInvariance is the determinism guarantee the campaign checkpoint
// design relies on, for every kind of unit the runner dispatches: because
// global iteration i always draws from stream i (through the VR stream map
// on the block engine, as group i of its chronology on the fleet engine),
// the observed events and weights are bit-for-bit identical for any worker
// count, and running [0,k) then [k,n) with Offset k merges to exactly the
// [0,n) run — with k off every unit boundary (except for fleets, whose
// offsets must be whole chronologies), so clipped edge units are covered.
// The VR block and fleet backlog tallies must match across worker counts
// too, and the fleet tally must also survive the split.
func TestRunInvariance(t *testing.T) {
	latent := fastConfig()
	latent.Trans.TTLd = dist.MustExponential(5e-4)
	latent.Trans.TTScrub = dist.MustWeibull(3, 168, 6)
	// A bare VR block size only sets the unit size: several units per run.
	latent.VR.BlockSize = 64
	plain := paperBaseConfig()
	plain.VR.BlockSize = 64
	biased := plain
	biased.Bias.Op = 8
	vr := biased
	vr.VR = VR{Antithetic: true, Stratify: true, ControlVariate: true, BlockSize: 64}

	kinds := []struct {
		name  string
		spec  RunSpec
		split int
	}{
		{"event", RunSpec{Config: latent, Engine: EventEngine{}}, 137},
		{"interval", RunSpec{Config: latent, Engine: IntervalEngine{}}, 137},
		{"block plain", RunSpec{Config: plain, Engine: BlockEngine{}}, 137},
		{"block biased", RunSpec{Config: biased, Engine: BlockEngine{}}, 137},
		{"block VR", RunSpec{Config: vr, Engine: BlockEngine{}}, 137},
		{"contended fleet", RunSpec{Config: fastConfig(), Fleet: &FleetOptions{
			Groups:                6,
			SharedSpares:          &SparePolicy{Initial: 1, ReplenishHours: 300},
			MaxConcurrentRebuilds: 1,
		}}, 138},
	}
	const n = 600
	for _, kind := range kinds {
		t.Run(kind.name, func(t *testing.T) {
			run := func(iters, offset, workers int) *SparseResult {
				t.Helper()
				spec := kind.spec
				spec.Iterations, spec.Offset, spec.Workers, spec.Seed = iters, offset, workers, 20070625
				res, err := RunSparse(spec)
				if err != nil {
					t.Fatal(err)
				}
				return res
			}
			want := run(n, 0, 1)
			if want.TotalDDFs == 0 {
				t.Fatal("no DDFs; invariance test is vacuous")
			}
			if kind.spec.Config.Bias.Enabled() && !want.Weighted() {
				t.Fatal("biased run carries no weights; invariance test is vacuous")
			}
			if kind.spec.Config.VR.Enabled() != (want.VR != nil) || (kind.spec.Fleet != nil) != (want.Fleet != nil) {
				t.Fatalf("tallies attached wrongly: VR %v, Fleet %v", want.VR, want.Fleet)
			}
			if want.VR != nil && (want.VR.Iterations() != n || len(want.VR.Blocks) != (n+63)/64 || want.VR.EZ <= 0 || want.VR.EZ >= 1) {
				t.Fatalf("VR tally shape: %d iterations in %d blocks, EZ %v", want.VR.Iterations(), len(want.VR.Blocks), want.VR.EZ)
			}
			if want.Fleet != nil && want.Fleet.Waited == 0 {
				t.Fatal("contended fleet never waited; invariance test is vacuous")
			}
			for _, workers := range []int{1, 3, 7} {
				got := run(n, 0, workers)
				if got.Groups != n || !reflect.DeepEqual(got.Events, want.Events) {
					t.Fatalf("Workers:%d: events differ from Workers:1", workers)
				}
				if !reflect.DeepEqual(got.VR, want.VR) || !reflect.DeepEqual(got.Fleet, want.Fleet) {
					t.Fatalf("Workers:%d: tallies differ from Workers:1", workers)
				}
				head := run(kind.split, 0, workers)
				head.Merge(run(n-kind.split, kind.split, workers))
				if head.Groups != n || !reflect.DeepEqual(head.Events, want.Events) {
					t.Fatalf("Workers:%d: [0,%d) ++ [%d,%d) differs from the whole run", workers, kind.split, kind.split, n)
				}
				if want.Fleet != nil {
					// The wait-hour and depth sums fold per-chronology values
					// in a different association when split, so they match to
					// rounding only; every other field is exact.
					a, b := *head.Fleet, *want.Fleet
					if math.Abs(a.TotalWaitHours-b.TotalWaitHours) > 1e-12*b.TotalWaitHours ||
						math.Abs(a.MeanDepthSum-b.MeanDepthSum) > 1e-12*b.MeanDepthSum {
						t.Fatalf("Workers:%d: split fleet sums %v/%v != whole-run %v/%v",
							workers, a.TotalWaitHours, a.MeanDepthSum, b.TotalWaitHours, b.MeanDepthSum)
					}
					a.TotalWaitHours, a.MeanDepthSum = b.TotalWaitHours, b.MeanDepthSum
					if a != b {
						t.Fatalf("Workers:%d: split fleet tally %+v != whole-run %+v", workers, a, b)
					}
				}
			}
		})
	}
}

// TestRunWorkerCountInvariance is the determinism guarantee on the
// default engine for the paper's base case: because stream i is always
// assigned to iteration i, the event index is bit-for-bit identical no
// matter how many workers execute the run.
func TestRunWorkerCountInvariance(t *testing.T) {
	base := RunSpec{Config: paperBaseConfig(), Iterations: 400, Seed: 20070625}
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
		t.Fatal("Workers:1 and Workers:7 produced different event indexes")
	}
	if r1.TotalDDFs != r7.TotalDDFs || r1.OpOpDDFs != r7.OpOpDDFs || r1.LdOpDDFs != r7.LdOpDDFs {
		t.Fatalf("tallies differ: (%d,%d,%d) vs (%d,%d,%d)",
			r1.TotalDDFs, r1.OpOpDDFs, r1.LdOpDDFs, r7.TotalDDFs, r7.OpOpDDFs, r7.LdOpDDFs)
	}
	if r1.TotalDDFs == 0 {
		t.Error("base case produced no DDFs in 400 groups; invariance test is vacuous")
	}
}

// TestRunOffsetComposition: on the event engine, running [0,k) then [k,n)
// with Offset k and merging must equal a single [0,n) run exactly — the
// property that makes checkpoint/resume bit-exact.
func TestRunOffsetComposition(t *testing.T) {
	cfg := fastConfig()
	const n, k = 300, 110
	whole, err := RunSparse(RunSpec{Config: cfg, Iterations: n, Seed: 7, Engine: EventEngine{}})
	if err != nil {
		t.Fatal(err)
	}
	head, err := RunSparse(RunSpec{Config: cfg, Iterations: k, Seed: 7, Engine: EventEngine{}})
	if err != nil {
		t.Fatal(err)
	}
	tail, err := RunSparse(RunSpec{Config: cfg, Iterations: n - k, Seed: 7, Offset: k, Workers: 3, Engine: EventEngine{}})
	if err != nil {
		t.Fatal(err)
	}
	head.Merge(tail)
	if head.Groups != n {
		t.Fatalf("merged %d groups, want %d", head.Groups, n)
	}
	if !reflect.DeepEqual(head.Events, whole.Events) {
		t.Fatal("offset-batched run differs from single run")
	}
	if head.TotalDDFs != whole.TotalDDFs || head.OpOpDDFs != whole.OpOpDDFs || head.LdOpDDFs != whole.LdOpDDFs {
		t.Fatal("merged tallies differ from single-run tallies")
	}
	if whole.TotalDDFs == 0 {
		t.Error("fast config produced no DDFs; composition test is vacuous")
	}
}

func TestRunNegativeOffsetRejected(t *testing.T) {
	if _, err := RunSparse(RunSpec{Config: fastConfig(), Iterations: 1, Offset: -1}); err == nil {
		t.Error("negative offset accepted")
	}
}

// TestDDFsBeforeMatchesScan checks the binary-search fast path against a
// naive scan of the event index on a real run.
func TestDDFsBeforeMatchesScan(t *testing.T) {
	res, err := RunSparse(RunSpec{Config: fastConfig(), Iterations: 200, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	if res.TotalDDFs == 0 {
		t.Fatal("fast config produced no DDFs")
	}
	scan := func(t0 float64) int {
		n := 0
		for _, e := range res.Events {
			if e.Time <= t0 {
				n++
			}
		}
		return n
	}
	for _, q := range []float64{0, 1, 100, 8760, 20000, 87600, 1e9} {
		if got, want := res.DDFsBefore(q), scan(q); got != want {
			t.Errorf("DDFsBefore(%g) = %d, want %d", q, got, want)
		}
	}
	if res.DDFsBefore(87600) != res.TotalDDFs {
		t.Error("count at mission end should equal TotalDDFs")
	}
}

func TestDDFsBeforeAfterMerge(t *testing.T) {
	a, err := RunSparse(RunSpec{Config: fastConfig(), Iterations: 50, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	// Force the flat cache, then merge: the cache must be invalidated.
	before := a.DDFsBefore(87600)
	b, err := RunSparse(RunSpec{Config: fastConfig(), Iterations: 50, Seed: 9, Offset: 50})
	if err != nil {
		t.Fatal(err)
	}
	a.Merge(b)
	if got := a.DDFsBefore(87600); got != before+b.TotalDDFs {
		t.Errorf("post-merge DDFsBefore = %d, want %d", got, before+b.TotalDDFs)
	}
}

package sim

import (
	"math"
	"reflect"
	"testing"

	"raidrel/internal/dist"
)

// condBaseConfig is the paper's scrubbed base case — the configuration the
// conditional-DDF variate exists for: scrubbing erases defect persistence,
// so the gen-1 indicator control is powerless and nearly all variance is
// the defect-coincidence coin flip the cond variate conditions on.
func condBaseConfig() Config {
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

// condRun runs iterations of the block engine with the cond variate on and
// returns the result (with VR tallies) for inspection.
func condRun(t *testing.T, cfg Config, iters int, seed uint64) *SparseResult {
	t.Helper()
	cfg.VR = VR{CondVariate: true, BlockSize: 256}
	res := &SparseResult{}
	if err := RunCollect(RunSpec{
		Config: cfg, Iterations: iters, Seed: seed, Workers: 4,
		Engine: BlockEngine{},
	}, res); err != nil {
		t.Fatal(err)
	}
	if res.VR == nil || len(res.VR.Blocks) == 0 {
		t.Fatal("cond run produced no VR tallies")
	}
	return res
}

// condMoments extracts the weighted mean of the variate and of the DDF
// indicator plus their per-iteration tallies from the block sums.
func condMoments(res *SparseResult) (n int, meanY, meanZ float64) {
	var sy, sz float64
	for _, b := range res.VR.Blocks {
		sy += b.Y
		sz += b.Z
		n += b.N
	}
	return n, sy / float64(n), sz / float64(n)
}

// TestCondVariateUnbiasedPlain checks the variate's defining property on
// the scrubbed base case without importance sampling: the sample mean of z
// must match the analytic expectation EZ, and the DDF estimate must be
// unaffected by computing it (same streams, same events).
func TestCondVariateUnbiasedPlain(t *testing.T) {
	const iters = 1 << 16
	res := condRun(t, condBaseConfig(), iters, 11)
	n, meanY, meanZ := condMoments(res)
	if n != iters {
		t.Fatalf("tallied %d iterations, want %d", n, iters)
	}
	ez := res.VR.EZ
	if !(ez > 0) || ez > float64(condBaseConfig().Drives) {
		t.Fatalf("EZ = %v outside (0, drives]", ez)
	}
	// z is a per-iteration count in [0, drives] with variance well under
	// drives²; a 5σ band at this n is far below the tolerance used.
	se := math.Sqrt(ez * (1 + ez) / float64(n)) // crude overestimate of sd(z̄)
	if d := math.Abs(meanZ - ez); d > 6*se+1e-3 {
		t.Errorf("mean z = %v vs analytic EZ = %v (Δ=%v, allowed %v)", meanZ, ez, d, 6*se+1e-3)
	}
	// The variate must correlate with the DDF indicator — that is its
	// whole point in this regime. Anything below ~0.5 would mean the
	// conditioning missed the dominant loss path.
	var acc struct{ syy, szz, syz, my, mz float64 }
	acc.my, acc.mz = meanY, meanZ
	for _, b := range res.VR.Blocks {
		y := b.Y/float64(b.N) - acc.my
		z := b.Z/float64(b.N) - acc.mz
		acc.syy += y * y
		acc.szz += z * z
		acc.syz += y * z
	}
	r2 := acc.syz * acc.syz / (acc.syy * acc.szz)
	t.Logf("p̂=%v EZ=%v z̄=%v block-mean r²=%.3f (cv factor %.1f×)", meanY, ez, meanZ, r2, 1/(1-r2))
	if r2 < 0.5 {
		t.Errorf("block-mean r² = %.3f, want >= 0.5 — the cond variate lost its correlation", r2)
	}
}

// TestCondVariateUnbiasedTilted repeats the check under a θ-tilt: the
// LR-weighted mean of z must still match the untilted analytic EZ, because
// the full-path likelihood ratio makes every weighted functional of the
// drawn chronology base-measure unbiased.
func TestCondVariateUnbiasedTilted(t *testing.T) {
	const iters = 1 << 16
	cfg := condBaseConfig()
	cfg.Bias.Op = 4
	res := condRun(t, cfg, iters, 12)
	n, meanY, meanZ := condMoments(res)
	ez := res.VR.EZ
	// Weighted observations are heavier-tailed; allow a wider band.
	if d := math.Abs(meanZ - ez); d > 0.05*ez+5e-3 {
		t.Errorf("weighted mean z = %v vs analytic EZ = %v (Δ=%v)", meanZ, ez, d)
	}
	if !(meanY > 0) {
		t.Error("tilted run saw no weighted DDF mass")
	}
	t.Logf("tilted: n=%d p̂=%v EZ=%v z̄=%v", n, meanY, ez, meanZ)
}

// TestCondVariatePreservesEventStream pins the variate's zero-interference
// guarantee: with only CondVariate on (no antithetic pairing, no
// stratification) the stream mapping is untouched, so the observed event
// stream must be bit-identical to the plain block-engine run — the
// variate reads the drawn chronology, never redraws it.
func TestCondVariatePreservesEventStream(t *testing.T) {
	const iters = 4096
	for _, seed := range []uint64{1, 7, 42} {
		cfg := condBaseConfig()
		ref := &SparseResult{}
		if err := RunCollect(RunSpec{
			Config: cfg, Iterations: iters, Seed: seed, Workers: 3,
			Engine: BlockEngine{},
		}, ref); err != nil {
			t.Fatal(err)
		}
		got := condRun(t, cfg, iters, seed)
		if !reflect.DeepEqual(got.Events, ref.Events) {
			t.Fatalf("seed %d: cond-variate block events differ from the plain run's", seed)
		}
	}
}

// TestCondVariateValidation covers the configuration gates: both controls
// at once, and a non-memoryless renewal defect process.
func TestCondVariateValidation(t *testing.T) {
	cfg := condBaseConfig()
	cfg.VR = VR{ControlVariate: true, CondVariate: true}
	if err := cfg.Validate(); err == nil {
		t.Error("both controls at once validated")
	}
	cfg = condBaseConfig()
	cfg.VR = VR{CondVariate: true}
	cfg.Trans.TTLd = dist.MustWeibull(2, 9259, 0) // not memoryless
	if err := cfg.Validate(); err == nil {
		t.Error("cond variate with a non-memoryless TTLd validated")
	}
	cfg.Trans.TTLd = dist.MustExponential(1.0 / 9259)
	if err := cfg.Validate(); err != nil {
		t.Errorf("cond variate with exponential TTLd rejected: %v", err)
	}
}

// TestCondVariateNoDefects exercises the pure second-failure-in-window
// reduction of the variate: without a defect process, EZ collapses to the
// window-coincidence integral and z to the window-kill count, both still
// matching.
func TestCondVariateNoDefects(t *testing.T) {
	cfg := Config{
		Drives:     8,
		Redundancy: 1,
		Mission:    87600,
		Trans: Transitions{
			TTOp: dist.MustExponential(2.5e-5),
			TTR:  dist.MustExponential(1.0 / 100), // long repairs: window kills measurable
		},
	}
	const iters = 1 << 16
	res := condRun(t, cfg, iters, 3)
	n, _, meanZ := condMoments(res)
	ez := res.VR.EZ
	se := math.Sqrt(ez * (1 + ez) / float64(n))
	if d := math.Abs(meanZ - ez); d > 6*se+1e-3 {
		t.Errorf("no-defect mean z = %v vs analytic EZ = %v (Δ=%v)", meanZ, ez, d)
	}
}

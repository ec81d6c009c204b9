package stats

import (
	"math"
	"testing"

	"raidrel/internal/rng"
)

// TestControlVariateCIUnbiased: across many replications, the adjusted
// estimator's empirical mean must sit within a few replication standard
// errors of the true mean, and the 95% interval must cover it at roughly
// the nominal rate.
func TestControlVariateCIUnbiased(t *testing.T) {
	r := rng.New(7)
	const (
		reps = 400
		n    = 500
		ez   = 0.5 // control z ~ U(0,1)
	)
	trueMean := 1.0 // y = 1 + (z - 1/2) + noise
	sumCenter := 0.0
	covered := 0
	ys := make([]float64, n)
	zs := make([]float64, n)
	for rep := 0; rep < reps; rep++ {
		for i := range ys {
			z := r.Float64()
			zs[i] = z
			ys[i] = 1 + (z - 0.5) + 0.2*r.NormFloat64()
		}
		iv, coeff, err := ControlVariateCI(ys, zs, ez, 0.95)
		if err != nil {
			t.Fatal(err)
		}
		if coeff < 0.8 || coeff > 1.2 {
			t.Fatalf("rep %d: fitted coefficient %v far from the true 1.0", rep, coeff)
		}
		center := (iv.Lo + iv.Hi) / 2
		sumCenter += center
		if iv.Lo <= trueMean && trueMean <= iv.Hi {
			covered++
		}
	}
	empMean := sumCenter / reps
	// Replication s.e. of the adjusted estimator ≈ 0.2/√n per rep.
	se := 0.2 / math.Sqrt(float64(n)) / math.Sqrt(float64(reps))
	if math.Abs(empMean-trueMean) > 5*se {
		t.Fatalf("adjusted estimator mean %v is %v s.e. from the truth", empMean, math.Abs(empMean-trueMean)/se)
	}
	if covered < reps*88/100 {
		t.Fatalf("95%% interval covered the truth in only %d/%d replications", covered, reps)
	}
}

// TestControlVariateCINeverWidens is the algebraic guarantee: whatever the
// sample, the adjusted interval is no wider than the plain normal interval
// over the same ys — the residual variance Syy(1-r²) cannot exceed Syy.
func TestControlVariateCINeverWidens(t *testing.T) {
	r := rng.New(12)
	ys := make([]float64, 200)
	zs := make([]float64, 200)
	for trial := 0; trial < 50; trial++ {
		for i := range ys {
			ys[i] = r.NormFloat64()
			switch trial % 3 {
			case 0:
				zs[i] = r.Float64() // independent control
			case 1:
				zs[i] = ys[i] + 0.1*r.NormFloat64() // strong control
			default:
				zs[i] = 3.25 // degenerate constant control
			}
		}
		adj, _, err := ControlVariateCI(ys, zs, 0.5, 0.95)
		if err != nil {
			t.Fatal(err)
		}
		plain, err := NormalMeanCI(ys, 0.95)
		if err != nil {
			t.Fatal(err)
		}
		const slack = 1e-12
		if (adj.Hi - adj.Lo) > (plain.Hi-plain.Lo)*(1+slack) {
			t.Fatalf("trial %d: adjusted width %v exceeds plain width %v", trial, adj.Hi-adj.Lo, plain.Hi-plain.Lo)
		}
	}
}

// TestCVAccumMatchesBatch: the online accumulator must agree with direct
// two-pass moment computation to floating-point noise.
func TestCVAccumMatchesBatch(t *testing.T) {
	r := rng.New(99)
	var acc CVAccum
	ys := make([]float64, 1000)
	zs := make([]float64, 1000)
	for i := range ys {
		ys[i] = 10 + r.NormFloat64()
		zs[i] = 0.3*ys[i] + r.Float64()
		acc.Add(ys[i], zs[i])
	}
	meanY, meanZ := Mean(ys), Mean(zs)
	var syy, szz, syz float64
	for i := range ys {
		syy += (ys[i] - meanY) * (ys[i] - meanY)
		szz += (zs[i] - meanZ) * (zs[i] - meanZ)
		syz += (ys[i] - meanY) * (zs[i] - meanZ)
	}
	approx := func(got, want float64) bool {
		return math.Abs(got-want) <= 1e-9*(1+math.Abs(want))
	}
	if !approx(acc.MeanY(), meanY) || !approx(acc.MeanZ(), meanZ) {
		t.Fatalf("online means (%v, %v) vs batch (%v, %v)", acc.MeanY(), acc.MeanZ(), meanY, meanZ)
	}
	if !approx(acc.Coeff(), syz/szz) {
		t.Fatalf("online coefficient %v vs batch %v", acc.Coeff(), syz/szz)
	}
	if acc.N() != 1000 {
		t.Fatalf("N = %d", acc.N())
	}
}

// TestCVAccumDegenerate: a constant control must yield coefficient 0 and
// fall back to the plain interval rather than dividing by zero.
func TestCVAccumDegenerate(t *testing.T) {
	var acc CVAccum
	for i := 0; i < 10; i++ {
		acc.Add(float64(i), 2.5)
	}
	if acc.Coeff() != 0 {
		t.Fatalf("constant control fitted coefficient %v, want 0", acc.Coeff())
	}
	iv, err := acc.Interval(2.5, 0.95)
	if err != nil {
		t.Fatal(err)
	}
	if math.IsNaN(iv.Lo) || math.IsNaN(iv.Hi) {
		t.Fatal("degenerate control produced a NaN interval")
	}
}

// TestCVAccumR2: r² must match the batch formula, bind the adjusted
// interval's width to the plain one as width·√(1-r²), and collapse to the
// degenerate 0 when either side has no variance (and cap at 1 for an exact
// linear control).
func TestCVAccumR2(t *testing.T) {
	r := rng.New(7)
	var acc CVAccum
	ys := make([]float64, 500)
	zs := make([]float64, 500)
	for i := range ys {
		ys[i] = r.NormFloat64()
		zs[i] = 0.7*ys[i] + 0.5*r.NormFloat64()
		acc.Add(ys[i], zs[i])
	}
	meanY, meanZ := Mean(ys), Mean(zs)
	var syy, szz, syz float64
	for i := range ys {
		syy += (ys[i] - meanY) * (ys[i] - meanY)
		szz += (zs[i] - meanZ) * (zs[i] - meanZ)
		syz += (ys[i] - meanY) * (zs[i] - meanZ)
	}
	want := syz * syz / (syy * szz)
	if got := acc.R2(); math.Abs(got-want) > 1e-9 {
		t.Fatalf("R2 = %v, batch %v", got, want)
	}
	if got := acc.R2(); got <= 0 || got >= 1 {
		t.Fatalf("R2 = %v outside (0, 1) for a noisy linear control", got)
	}

	// Width relation: adjusted half-width = plain half-width·√(1-r²).
	adj, err := acc.Interval(0, 0.95)
	if err != nil {
		t.Fatal(err)
	}
	plain, err := NormalMeanCI(ys, 0.95)
	if err != nil {
		t.Fatal(err)
	}
	wantW := (plain.Hi - plain.Lo) * math.Sqrt(1-acc.R2())
	if gotW := adj.Hi - adj.Lo; math.Abs(gotW-wantW) > 1e-9*(1+wantW) {
		t.Fatalf("adjusted width %v, want plain·sqrt(1-r²) = %v", gotW, wantW)
	}

	// Degenerate sides.
	var flat CVAccum
	for i := 0; i < 10; i++ {
		flat.Add(float64(i), 4.0)
	}
	if flat.R2() != 0 {
		t.Fatalf("constant control R2 = %v, want 0", flat.R2())
	}
	var exact CVAccum
	for i := 0; i < 10; i++ {
		exact.Add(float64(i), 2*float64(i)+1)
	}
	if got := exact.R2(); got > 1 || got < 1-1e-12 {
		t.Fatalf("exact linear control R2 = %v, want 1", got)
	}
}

package dist

import (
	"math"
	"testing"

	"raidrel/internal/rng"
)

// expTestKernels returns compiled kernels covering every specialized kind.
func expTestKernels(t *testing.T) []Kernel {
	t.Helper()
	var ks []Kernel
	for _, spec := range []struct{ shape, scale, loc float64 }{
		{1, 9259, 0}, {2, 12, 6}, {3, 168, 6}, {1.12, 461386, 0},
	} {
		w, err := NewWeibull(spec.shape, spec.scale, spec.loc)
		if err != nil {
			t.Fatal(err)
		}
		ks = append(ks, Compile(w))
	}
	e, err := NewExponential(1.08e-4)
	if err != nil {
		t.Fatal(err)
	}
	ks = append(ks, Compile(e))
	return ks
}

// TestFromExpMatchesDraw pins the exp-variate entry point: FromExp applied
// to the exponential variate Draw would have consumed produces the exact
// same value.
func TestFromExpMatchesDraw(t *testing.T) {
	for ki, k := range expTestKernels(t) {
		if !k.Compiled() {
			t.Fatalf("kernel %d did not compile", ki)
		}
		for seed := uint64(1); seed <= 20; seed++ {
			ra, rb := rng.New(seed), rng.New(seed)
			want := k.Draw(ra)
			got := k.FromExp(rb.ExpFloat64())
			if math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("kernel %d seed %d: FromExp = %v, Draw = %v", ki, seed, got, want)
			}
		}
	}
}

// TestCumHazardExported checks the exported hazard against the interface
// helper it wraps.
func TestCumHazardExported(t *testing.T) {
	for ki, k := range expTestKernels(t) {
		for _, tt := range []float64{0, 1, 6, 100, 87600, 1e6} {
			if got, want := k.CumHazard(tt), CumHazardOf(k.Distribution(), tt); math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("kernel %d t=%v: CumHazard = %v, CumHazardOf = %v", ki, tt, got, want)
			}
		}
	}
}

// TestCompareExpNeverWrong is the safety property of the banded comparison:
// whenever CompareExp returns a certain verdict it must agree with the
// exact transform-and-compare, across random (e, x) pairs including pairs
// constructed to sit exactly on the boundary.
func TestCompareExpNeverWrong(t *testing.T) {
	r := rng.New(42)
	for ki, k := range expTestKernels(t) {
		uncertain := 0
		const trials = 20000
		for i := 0; i < trials; i++ {
			e := r.ExpFloat64()
			var x float64
			switch i % 4 {
			case 0:
				x = k.FromExp(r.ExpFloat64()) // another draw: far from e's boundary usually
			case 1:
				x = k.FromExp(e) // exactly on the boundary
			case 2:
				x = k.FromExp(e) * (1 + (r.Float64()-0.5)*1e-12) // a few ulps off
			default:
				x = r.Float64() * 1e6 // arbitrary magnitude
			}
			verdict := k.CompareExp(e, x)
			if verdict == 0 {
				uncertain++
				continue
			}
			exact := k.FromExp(e) > x
			if (verdict > 0) != exact {
				t.Fatalf("kernel %d: CompareExp(%v, %v) = %d, exact compare says %v", ki, e, x, verdict, exact)
			}
		}
		// Far-from-boundary pairs (3 of every 4 trials) must be mostly
		// certain, or the fast path is pointless — except for the general-β
		// Pow kind, which by design has no surrogate and is always uncertain.
		if k.kind != kindWeibullPow && uncertain > trials/2 {
			t.Fatalf("kernel %d: %d/%d comparisons uncertain — band too wide", ki, uncertain, trials)
		}
	}
}

// TestCompareExpBelowLocation covers the x <= loc branch: a threshold well
// below the location is certainly exceeded, a threshold at the location is
// uncertain.
func TestCompareExpBelowLocation(t *testing.T) {
	w, err := NewWeibull(3, 168, 6)
	if err != nil {
		t.Fatal(err)
	}
	k := Compile(w)
	if got := k.CompareExp(1.0, 5.0); got != 1 {
		t.Fatalf("x well below loc: verdict %d, want 1", got)
	}
	if got := k.CompareExp(1.0, 6.0); got != 0 {
		t.Fatalf("x at loc: verdict %d, want 0 (uncertain)", got)
	}
	if got := k.CompareExp(1e-300, 6.0+1e-9); got != 0 {
		t.Fatalf("x just above loc with tiny e: verdict %d, want 0 (uncertain)", got)
	}
}

// TestCompareHazard covers the package-level band compare used with
// caller-precomputed thresholds (the general-β TTOp mission hazard).
func TestCompareHazard(t *testing.T) {
	for _, tc := range []struct {
		e, h float64
		want int
	}{
		{2.0, 1.0, 1},
		{0.5, 1.0, -1},
		{1.0, 1.0, 0},
		{1.0 + 1e-9, 1.0, 0},
		{1.0000021, 1.0, 1},
		{0.9999979, 1.0, -1},
		{3e8, 1.2e8, 1},
		{5e7, 1.2e8, -1},
		{1.3e8, 1.2e8, 0},
	} {
		if got := CompareHazard(tc.e, tc.h); got != tc.want {
			t.Fatalf("CompareHazard(%v, %v) = %d, want %d", tc.e, tc.h, got, tc.want)
		}
	}
}

// TestCensorCut checks the uniform-domain cut against the banded test it
// stands in for: the largest float below the cut, and the cut's neighbours
// down the 2^-53 uniform grid, must all compare certainly above h·θ — over
// hazards from the absolute band's scale to hazardHuge and tilts from tiny
// (where the absolute margin carries the proof) to large.
func TestCensorCut(t *testing.T) {
	for _, h := range []float64{0, 1e-9, 1e-6, 0.0175, 0.14, 1, 37, 1e4, 1e8} {
		for _, theta := range []float64{1e-300, 1e-6, 0.01, 0.5, 1, 2, 8, 1e3} {
			cut := CensorCut(h, theta)
			if !(cut >= 0 && cut < 1) {
				t.Fatalf("CensorCut(%v, %v) = %v outside [0, 1)", h, theta, cut)
			}
			if cut == 0 {
				continue
			}
			us := []float64{math.Nextafter(cut, 0)}
			if x := uint64(cut * (1 << 53)); x > 0 {
				for d := uint64(0); d < 4 && d < x; d++ {
					if u := float64(x-d) / (1 << 53); u < cut {
						us = append(us, u)
					}
				}
			}
			for _, u := range us {
				if got := CompareHazard(-math.Log(u)/theta, h); got != 1 {
					t.Fatalf("h=%v θ=%v: u=%v below cut %v compares %d, want certainly above", h, theta, u, cut, got)
				}
			}
		}
	}
	if cut := CensorCut(2e8, 1); cut != 0 {
		t.Errorf("CensorCut above hazardHuge = %v, want 0", cut)
	}
}

// TestDrawLRFromExpMatchesDrawLR pins the tilted exp-variate entry point
// against DrawLR over a seed grid, covering both the censored and the
// uncensored branch, and CensoredLogLR against the censored branch's value.
func TestDrawLRFromExpMatchesDrawLR(t *testing.T) {
	w, err := NewWeibull(1.12, 461386, 0)
	if err != nil {
		t.Fatal(err)
	}
	for _, theta := range []float64{2, 8} {
		tk := CompileTilted(w, theta)
		censored, uncensored := 0, 0
		for seed := uint64(1); seed <= 200; seed++ {
			const m = 87600
			ra, rb := rng.New(seed), rng.New(seed)
			wantX, wantLR := tk.DrawLR(m, ra)
			gotX, gotLR := tk.DrawLRFromExp(rb.ExpFloat64(), m)
			if math.Float64bits(gotX) != math.Float64bits(wantX) || math.Float64bits(gotLR) != math.Float64bits(wantLR) {
				t.Fatalf("theta %v seed %d: DrawLRFromExp = (%v, %v), DrawLR = (%v, %v)",
					theta, seed, gotX, gotLR, wantX, wantLR)
			}
			if wantX > m {
				censored++
				if math.Float64bits(tk.CensoredLogLR(m)) != math.Float64bits(wantLR) {
					t.Fatalf("theta %v seed %d: CensoredLogLR = %v, censored DrawLR ratio = %v",
						theta, seed, tk.CensoredLogLR(m), wantLR)
				}
			} else {
				uncensored++
			}
		}
		if censored == 0 || uncensored == 0 {
			t.Fatalf("theta %v: seed grid did not cover both branches (%d censored, %d uncensored)", theta, censored, uncensored)
		}
	}
}

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

// TestCensorCut checks the uniform-domain cut against the margin it
// promises: the largest float below the cut, and the cut's neighbours down
// the 2^-53 uniform grid, must all have -log(u)/θ > h·(1+1e-6)+1e-6 — over
// hazards from the absolute margin's scale to hazardHuge and tilts from
// tiny (where the absolute margin carries the proof) to large.
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
				if e := -math.Log(u) / theta; !(e > h*(1+1e-6)+1e-6) {
					t.Fatalf("h=%v θ=%v: u=%v below cut %v has -log(u)/θ = %v, not past the margin", h, theta, u, cut, e)
				}
			}
		}
	}
	if cut := CensorCut(2e8, 1); cut != 0 {
		t.Errorf("CensorCut above hazardHuge = %v, want 0", cut)
	}
}

// FuzzCensorCut checks the cut's contract on the exact transform it stands
// in for: for a Weibull or Exponential kernel, a horizon m and a tilt θ, a
// uniform a few steps below CensorCut(CumHazard(m), θ) — down the 2^-53
// grid of column uniforms, or down the floats, where a stratified draw can
// land — must make DrawLRFromExp(-log u, m) land past m with exactly the
// censored log ratio CensoredLogLR(m). Location stays within one scale of
// zero, which covers every distribution of the paper's model.
func FuzzCensorCut(f *testing.F) {
	f.Add(uint8(0), 0.3, 0.5, 0.0, 0.4, 0.5, uint8(0))
	f.Add(uint8(1), 0.0, 0.9, 0.5, 0.7, 0.9, uint8(3))
	f.Add(uint8(2), 0.0, 0.2, 0.1, 0.1, 0.1, uint8(0x81))
	f.Add(uint8(3), 0.0, 0.7, 0.9, 0.5, 0.5, uint8(0x87))
	f.Add(uint8(4), 0.05, 0.8, 0.0, 0.6, 0.8, uint8(2))
	f.Fuzz(func(t *testing.T, kind uint8, a, b, c, mq, tq float64, steps uint8) {
		// unit maps any fuzzed float into [0, 1).
		unit := func(x float64) float64 {
			if math.IsNaN(x) || math.IsInf(x, 0) {
				return 0
			}
			_, frac := math.Modf(math.Abs(x))
			return frac
		}
		scale := math.Pow(10, 7*unit(b)) // 1 .. 1e7
		loc := scale * unit(c)
		var d Distribution
		var err error
		switch kind % 5 {
		case 0:
			d, err = NewExponential(1 / scale)
			loc = 0
		case 1, 2, 3:
			d, err = NewWeibull(float64(kind%5), scale, loc)
		default:
			d, err = NewWeibull(0.5+4.5*unit(a), scale, loc)
		}
		if err != nil {
			t.Skip(err)
		}
		m := (loc + scale) * math.Pow(10, 6*unit(mq)-3)
		theta := math.Pow(10, 6*unit(tq)-3) // 1e-3 .. 1e3
		tk := CompileTilted(d, theta)
		cut := CensorCut(tk.CumHazard(m), theta)
		if cut == 0 {
			return // nothing is ruled censored
		}
		var u float64
		k := int(steps & 7)
		if steps&0x80 != 0 {
			u = math.Nextafter(cut, 0)
			for ; k > 0; k-- {
				u = math.Nextafter(u, 0)
			}
		} else {
			x := uint64(cut * (1 << 53))
			if x > 0 && float64(x)/(1<<53) >= cut {
				x--
			}
			if x <= uint64(k) {
				return // no grid uniform that far below the cut
			}
			u = float64(x-uint64(k)) / (1 << 53)
		}
		if u < 0x1p-1022 {
			// No column or stratified uniform is subnormal (the column's
			// least is 2^-53), and amd64's math.Log misreads subnormals.
			return
		}
		x, lr := tk.DrawLRFromExp(-math.Log(u), m)
		if !(x > m) {
			t.Fatalf("%v θ=%v m=%v: u=%v below cut %v draws %v, not past m", d, theta, m, u, cut, x)
		}
		if want := tk.CensoredLogLR(m); math.Float64bits(lr) != math.Float64bits(want) {
			t.Fatalf("%v θ=%v m=%v: u=%v log ratio %v, censored %v", d, theta, m, u, lr, want)
		}
	})
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

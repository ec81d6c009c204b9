package dist

import (
	"math"
	"math/big"
	"sort"
	"testing"

	"raidrel/internal/rng"
)

// kernelTestDists is the equivalence grid: every kernel kind (β = 1, 2, 3
// specializations, the generic-β power path, the exponential, and the
// interface fallback), with and without location shifts.
func kernelTestDists() []Distribution {
	return []Distribution{
		MustWeibull(1, 9259, 0),       // kindWeibullExp (paper TTLd)
		MustWeibull(1, 12, 6),         // kindWeibullExp, shifted
		MustWeibull(2, 12, 6),         // kindWeibullSqrt (paper TTR)
		MustWeibull(2, 461386, 0),     // kindWeibullSqrt, unshifted
		MustWeibull(3, 168, 6),        // kindWeibullCbrt (paper TTScrub)
		MustWeibull(3, 1000, 0),       // kindWeibullCbrt, unshifted
		MustWeibull(1.12, 461386, 0),  // kindWeibullPow (paper TTOp)
		MustWeibull(0.7, 3e6, 0),      // kindWeibullPow, infant mortality
		MustExponential(1.0 / 461386), // kindExponential
		MustExponential(2.5),          // kindExponential
		MustMixture([]Distribution{ // kindGeneric: interface fallback
			MustWeibull(1.1, 4.5e5, 0),
			MustWeibull(1.5, 7.5e4, 0),
		}, []float64{0.5, 0.5}),
	}
}

// TestKernelDrawMatchesSample asserts the tentpole's hard invariant: for
// every distribution and seed, Compile(d).Draw is bit-identical to
// d.Sample — same values, same RNG consumption — so engines may mix
// kernel and interface draws on one stream without desynchronizing.
func TestKernelDrawMatchesSample(t *testing.T) {
	const draws = 2000
	for _, d := range kernelTestDists() {
		for seed := uint64(1); seed <= 5; seed++ {
			k := Compile(d)
			rK, rS := rng.New(seed), rng.New(seed)
			for i := 0; i < draws; i++ {
				got, want := k.Draw(rK), d.Sample(rS)
				if math.Float64bits(got) != math.Float64bits(want) {
					t.Fatalf("%v seed %d draw %d: kernel %v (%#x) != sample %v (%#x)",
						d, seed, i, got, math.Float64bits(got), want, math.Float64bits(want))
				}
			}
			// Same stream position afterwards: one extra draw still agrees.
			if got, want := k.Draw(rK), d.Sample(rS); got != want {
				t.Fatalf("%v seed %d: streams desynchronized after %d draws", d, seed, draws)
			}
		}
	}
}

// TestTiltedKernelMatchesInterfaceSequence asserts that the fused DrawLR
// is bit-identical to the interface sequence it replaces — the
// hazard-scaled draw plus the censored or uncensored log likelihood ratio
// — including the censored-weight branch, over a grid of seeds, tilt
// factors, and censoring horizons.
func TestTiltedKernelMatchesInterfaceSequence(t *testing.T) {
	const draws = 1000
	for _, d := range kernelTestDists() {
		for _, theta := range []float64{0.5, 2, 8} {
			// Horizons straddling the tilted distribution's bulk so both
			// the censored (x > m) and uncensored branches run.
			med := QuantileFromCumHazardOf(d, math.Ln2/theta)
			for _, m := range []float64{med / 4, med, med * 16} {
				k := CompileTilted(d, theta)
				rK, rI := rng.New(7), rng.New(7)
				censored, uncensored := 0, 0
				for i := 0; i < draws; i++ {
					x, lr := k.DrawLR(m, rK)

					wantX, h := SampleHazardScaled(d, theta, rI)
					var wantLR float64
					if wantX > m {
						wantLR = HazardScaleCensoredLogRatio(d, theta, m)
						censored++
					} else {
						wantLR = (theta-1)*h - math.Log(theta)
						uncensored++
					}
					if math.Float64bits(x) != math.Float64bits(wantX) {
						t.Fatalf("%v θ=%g m=%g draw %d: x=%v want %v", d, theta, m, i, x, wantX)
					}
					if math.Float64bits(lr) != math.Float64bits(wantLR) {
						t.Fatalf("%v θ=%g m=%g draw %d (x=%v): logLR=%v want %v", d, theta, m, i, x, lr, wantLR)
					}
				}
				if m == med && (censored == 0 || uncensored == 0) {
					t.Fatalf("%v θ=%g m=%g: branch coverage censored=%d uncensored=%d",
						d, theta, m, censored, uncensored)
				}
			}
		}
	}
}

// TestTiltedKernelThetaOneIsIdentity: θ = 1 must reproduce the base
// sampler's values with exactly zero log ratios, so a biased run with a
// unit factor is bit-equivalent to plain Monte Carlo.
func TestTiltedKernelThetaOneIsIdentity(t *testing.T) {
	d := MustWeibull(1.12, 461386, 0)
	k := CompileTilted(d, 1)
	rK, rS := rng.New(3), rng.New(3)
	for i := 0; i < 1000; i++ {
		x, lr := k.DrawLR(1e5, rK)
		if lr != 0 {
			t.Fatalf("draw %d: θ=1 log ratio = %v, want exactly 0", i, lr)
		}
		if want := d.Sample(rS); math.Float64bits(x) != math.Float64bits(want) {
			t.Fatalf("draw %d: θ=1 draw %v != base sample %v", i, x, want)
		}
	}
}

// ulpDiff returns the distance in representable float64 steps between two
// finite same-sign values.
func ulpDiff(a, b float64) uint64 {
	ia, ib := int64(math.Float64bits(a)), int64(math.Float64bits(b))
	if d := ia - ib; d < 0 {
		return uint64(-d)
	} else {
		return uint64(d)
	}
}

// refCbrt returns the correctly rounded cube root of x (x > 0) via
// 200-bit Newton iteration.
func refCbrt(x float64) float64 {
	const prec = 200
	bx := new(big.Float).SetPrec(prec).SetFloat64(x)
	y := new(big.Float).SetPrec(prec).SetFloat64(math.Cbrt(x))
	three := big.NewFloat(3).SetPrec(prec)
	for i := 0; i < 5; i++ {
		// y <- y - (y^3 - x) / (3 y^2)
		y2 := new(big.Float).SetPrec(prec).Mul(y, y)
		y3 := new(big.Float).SetPrec(prec).Mul(y2, y)
		num := new(big.Float).SetPrec(prec).Sub(y3, bx)
		den := new(big.Float).SetPrec(prec).Mul(three, y2)
		step := new(big.Float).SetPrec(prec).Quo(num, den)
		y.Sub(y, step)
	}
	f, _ := y.Float64()
	return f
}

// TestWeibullSpecializationAccuracy is the specialization property test:
// over a million standard-exponential inputs, the β = 1 and β = 2 fast
// paths must agree with the generic math.Pow evaluation bit-for-bit (Go's
// Pow special-cases exponents 1 and 0.5 to identity and Sqrt), and the
// β = 3 Cbrt path must be within 1 ulp of the correctly rounded cube root
// — tighter than the generic Pow evaluation, which strays several ulp.
func TestWeibullSpecializationAccuracy(t *testing.T) {
	const draws = 1_000_000
	r := rng.New(42)
	maxCbrtUlp := uint64(0)
	for i := 0; i < draws; i++ {
		e := r.ExpFloat64()
		if got, want := weibullICDFExp(kindWeibullExp, 0, 1, 1, e), math.Pow(e, 1); got != want {
			t.Fatalf("β=1 specialization: e=%v -> %v, Pow gives %v", e, got, want)
		}
		if got, want := weibullICDFExp(kindWeibullSqrt, 0, 1, 0.5, e), math.Pow(e, 0.5); got != want {
			t.Fatalf("β=2 specialization: e=%v -> %v, Pow gives %v", e, got, want)
		}
		cbrt := weibullICDFExp(kindWeibullCbrt, 0, 1, 1.0/3, e)
		// Checking the correctly rounded reference for every input would
		// dominate the test; screen with the cheap Pow comparison and
		// verify the exact ulp distance only where they disagree, plus a
		// deterministic 1-in-4096 sample.
		if cbrt != math.Pow(e, 1.0/3) || i%4096 == 0 {
			if d := ulpDiff(cbrt, refCbrt(e)); d > maxCbrtUlp {
				maxCbrtUlp = d
			}
		}
	}
	if maxCbrtUlp > 1 {
		t.Errorf("β=3 specialization strays %d ulp from the correctly rounded cube root, want <= 1", maxCbrtUlp)
	}
}

// TestKernelDrawsMatchAnalyticCDF is the distributional check on the
// specialized paths: a Kolmogorov–Smirnov test of kernel draws against
// each distribution's analytic CDF. With n = 2e5 the critical value at
// α = 0.001 is 1.95/√n; the fixed seed makes the test deterministic.
func TestKernelDrawsMatchAnalyticCDF(t *testing.T) {
	const n = 200_000
	dists := []Distribution{
		MustWeibull(1, 9259, 0),
		MustWeibull(2, 12, 6),
		MustWeibull(3, 168, 6),
		MustWeibull(1.12, 461386, 0),
		MustExponential(2.5),
	}
	xs := make([]float64, n)
	for _, d := range dists {
		k := Compile(d)
		r := rng.New(20070625)
		for i := range xs {
			xs[i] = k.Draw(r)
		}
		sort.Float64s(xs)
		dStat := 0.0
		for i, x := range xs {
			f := d.CDF(x)
			if hi := float64(i+1)/n - f; hi > dStat {
				dStat = hi
			}
			if lo := f - float64(i)/n; lo > dStat {
				dStat = lo
			}
		}
		if crit := 1.95 / math.Sqrt(n); dStat > crit {
			t.Errorf("%v: KS statistic %.5f exceeds %.5f (α=0.001)", d, dStat, crit)
		}
	}
}

// --- microbenchmarks (run with -benchmem; the hot paths must not allocate) ---

// BenchmarkKernelWeibull measures one compiled draw per specialization,
// next to the interface path it replaces.
func BenchmarkKernelWeibull(b *testing.B) {
	cases := []struct {
		name string
		d    Distribution
	}{
		{"Beta1Exp", MustWeibull(1, 9259, 0)},
		{"Beta2Sqrt", MustWeibull(2, 12, 6)},
		{"Beta3Cbrt", MustWeibull(3, 168, 6)},
		{"GenericPow", MustWeibull(1.12, 461386, 0)},
	}
	for _, c := range cases {
		k := Compile(c.d)
		b.Run(c.name, func(b *testing.B) {
			r := rng.New(1)
			b.ReportAllocs()
			var sink float64
			for i := 0; i < b.N; i++ {
				sink += k.Draw(r)
			}
			benchSink = sink
		})
		b.Run(c.name+"/Interface", func(b *testing.B) {
			d := c.d
			r := rng.New(1)
			b.ReportAllocs()
			var sink float64
			for i := 0; i < b.N; i++ {
				sink += d.Sample(r)
			}
			benchSink = sink
		})
	}
}

// BenchmarkKernelTilted measures the fused tilted draw against the
// interface sequence it replaces (hazard-scaled sample + censored or
// uncensored log-ratio), at the paper base case's θ = 8 tilt.
func BenchmarkKernelTilted(b *testing.B) {
	d := MustWeibull(1.12, 461386, 0)
	const theta, m = 8, 87600
	b.Run("Fused", func(b *testing.B) {
		k := CompileTilted(d, theta)
		r := rng.New(1)
		b.ReportAllocs()
		var sink float64
		for i := 0; i < b.N; i++ {
			x, lr := k.DrawLR(m, r)
			sink += x + lr
		}
		benchSink = sink
	})
	b.Run("Interface", func(b *testing.B) {
		r := rng.New(1)
		b.ReportAllocs()
		var sink float64
		for i := 0; i < b.N; i++ {
			x, h := SampleHazardScaled(d, theta, r)
			var lr float64
			if x > m {
				lr = HazardScaleCensoredLogRatio(d, theta, m)
			} else {
				lr = (theta-1)*h - math.Log(theta)
			}
			sink += x + lr
		}
		benchSink = sink
	})
}

var benchSink float64

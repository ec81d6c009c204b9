package dist

import (
	"math"
	"testing"

	"raidrel/internal/rng"
)

func TestNormalBasics(t *testing.T) {
	n := MustNormal(10, 2)
	if n.Mean() != 10 || n.Variance() != 4 {
		t.Error("moments wrong")
	}
	if !almostEqual(n.CDF(10), 0.5, 1e-12) {
		t.Errorf("CDF(mean) = %v", n.CDF(10))
	}
	// 68-95-99.7.
	if got := n.CDF(12) - n.CDF(8); math.Abs(got-0.6827) > 0.001 {
		t.Errorf("one-sigma mass = %v", got)
	}
	for _, p := range []float64{0.01, 0.25, 0.5, 0.9, 0.999} {
		if !almostEqual(n.CDF(n.Quantile(p)), p, 1e-9) {
			t.Errorf("quantile roundtrip at %v", p)
		}
	}
	if _, err := NewNormal(0, 0); err == nil {
		t.Error("zero sd accepted")
	}
	if _, err := NewNormal(math.NaN(), 1); err == nil {
		t.Error("NaN mean accepted")
	}
}

func TestNormalSampleMoments(t *testing.T) {
	n := MustNormal(5, 3)
	r := rng.New(81)
	const draws = 200000
	var sum, sumSq float64
	for i := 0; i < draws; i++ {
		v := n.Sample(r)
		sum += v
		sumSq += v * v
	}
	mean := sum / draws
	variance := sumSq/draws - mean*mean
	if math.Abs(mean-5) > 0.03 || math.Abs(variance-9) > 0.1 {
		t.Errorf("sample moments %v/%v", mean, variance)
	}
}

func TestTruncatedValidation(t *testing.T) {
	n := MustNormal(0, 1)
	if _, err := NewTruncated(nil, 0, 1); err == nil {
		t.Error("nil base accepted")
	}
	if _, err := NewTruncated(n, 2, 2); err == nil {
		t.Error("empty window accepted")
	}
	if _, err := NewTruncated(n, 50, 60); err == nil {
		t.Error("zero-mass window accepted")
	}
}

func TestTruncatedNormalIsLifetime(t *testing.T) {
	// A scrub-time model: normal(168, 50) truncated to [6, 400].
	tr := MustTruncated(MustNormal(168, 50), 6, 400)
	r := rng.New(82)
	var sum float64
	const draws = 100000
	for i := 0; i < draws; i++ {
		v := tr.Sample(r)
		if v < 6 || v > 400 {
			t.Fatalf("sample %v outside window", v)
		}
		sum += v
	}
	if math.Abs(sum/draws-tr.Mean()) > 0.02*tr.Mean() {
		t.Errorf("sample mean %v vs analytic %v", sum/draws, tr.Mean())
	}
	if tr.CDF(5) != 0 || tr.CDF(401) != 1 {
		t.Error("CDF edges wrong")
	}
	for _, p := range []float64{0.05, 0.5, 0.95} {
		if !almostEqual(tr.CDF(tr.Quantile(p)), p, 1e-6) {
			t.Errorf("roundtrip at %v", p)
		}
	}
	// Density renormalizes: integrate PDF over window ~ 1.
	const n = 50000
	h := (400.0 - 6.0) / n
	area := 0.5 * (tr.PDF(6) + tr.PDF(400))
	for i := 1; i < n; i++ {
		area += tr.PDF(6 + float64(i)*h)
	}
	if !almostEqual(area*h, 1, 1e-4) {
		t.Errorf("PDF area = %v", area*h)
	}
}

// The paper's §6.4 claim: a β = 3 Weibull looks Normal. Quantify with the
// KS distance between a Weibull(3, η) and the moment-matched normal: it
// should be small (a few percent).
func TestWeibullShape3IsNearNormal(t *testing.T) {
	w := MustWeibull(3, 168, 6)
	n := MustNormal(w.Mean(), math.Sqrt(w.Variance()))
	var maxGap float64
	for x := 6.0; x < 400; x += 0.5 {
		if gap := math.Abs(w.CDF(x) - n.CDF(x)); gap > maxGap {
			maxGap = gap
		}
	}
	if maxGap > 0.02 {
		t.Errorf("Weibull(β=3) vs normal KS distance %v; the paper's claim needs < 0.02", maxGap)
	}
	// Contrast: β = 1 is nowhere near normal.
	e := MustWeibull(1, 168, 0)
	ne := MustNormal(e.Mean(), math.Sqrt(e.Variance()))
	var expGap float64
	for x := 0.0; x < 1000; x += 1 {
		if gap := math.Abs(e.CDF(x) - ne.CDF(x)); gap > expGap {
			expGap = gap
		}
	}
	if expGap < 0.05 {
		t.Errorf("β = 1 should not be normal-like (gap %v)", expGap)
	}
}

func TestTruncatedVarianceFinite(t *testing.T) {
	tr := MustTruncated(MustNormal(100, 30), 0, 200)
	v := tr.Variance()
	if !(v > 0) || v > 30*30 {
		t.Errorf("truncated variance %v should be positive and below the base variance", v)
	}
}

// TestTruncatedInfiniteBounds checks Mean and Variance of a normal
// truncated on one side against the closed forms: for N(μ, σ²) on
// [a, +Inf) with α = (a-μ)/σ and λ = φ(α)/(1-Φ(α)), the mean is μ + σλ and
// the variance σ²(1 + αλ - λ²); on (-Inf, b] with β = (b-μ)/σ and
// λ = φ(β)/Φ(β), the mean is μ - σλ and the variance σ²(1 - βλ - λ²).
func TestTruncatedInfiniteBounds(t *testing.T) {
	const mu, sigma = 2e5, 5e4
	phi := func(z float64) float64 { return math.Exp(-z*z/2) / math.Sqrt(2*math.Pi) }
	alpha := (0 - mu) / sigma
	lamLo := phi(alpha) / (1 - stdNormalCDF(alpha))
	beta := (2e5 - mu) / sigma
	lamHi := phi(beta) / stdNormalCDF(beta)
	for _, c := range []struct {
		name              string
		tr                Truncated
		wantMean, wantVar float64
	}{
		{"[0, +Inf)", MustTruncated(MustNormal(mu, sigma), 0, math.Inf(1)),
			mu + sigma*lamLo, sigma * sigma * (1 + alpha*lamLo - lamLo*lamLo)},
		{"(-Inf, 2e5]", MustTruncated(MustNormal(mu, sigma), math.Inf(-1), 2e5),
			mu - sigma*lamHi, sigma * sigma * (1 - beta*lamHi - lamHi*lamHi)},
	} {
		if got := c.tr.Mean(); math.Abs(got-c.wantMean) > 1e-4*c.wantMean {
			t.Errorf("%s: mean = %v, want %v", c.name, got, c.wantMean)
		}
		if got := c.tr.Variance(); math.Abs(got-c.wantVar) > 1e-4*c.wantVar {
			t.Errorf("%s: variance = %v, want %v", c.name, got, c.wantVar)
		}
	}
}

func TestStdNormalQuantileAccuracy(t *testing.T) {
	// Known values of the standard normal inverse CDF.
	cases := []struct{ p, z float64 }{
		{0.5, 0},
		{0.8413447460685429, 1},
		{0.9772498680518208, 2},
		{0.0013498980316300933, -3},
		{0.9999683287581669, 4},
	}
	for _, c := range cases {
		if got := StdNormalQuantile(c.p); math.Abs(got-c.z) > 1e-9 {
			t.Errorf("Φ⁻¹(%v) = %v, want %v", c.p, got, c.z)
		}
	}
	if !math.IsInf(StdNormalQuantile(0), -1) || !math.IsInf(StdNormalQuantile(1), 1) {
		t.Error("quantile edges not infinite")
	}
}

package dist

import (
	"math"
	"testing"

	"raidrel/internal/rng"
)

func TestExponentialBasics(t *testing.T) {
	e := MustExponential(1.0 / 12)
	if !almostEqual(e.Mean(), 12, 1e-12) {
		t.Errorf("Mean = %v, want 12", e.Mean())
	}
	if !almostEqual(e.Variance(), 144, 1e-12) {
		t.Errorf("Variance = %v, want 144", e.Variance())
	}
	if !almostEqual(e.CDF(12), 1-math.Exp(-1), 1e-12) {
		t.Errorf("CDF(mean) = %v", e.CDF(12))
	}
	if e.Hazard(0) != e.Hazard(1e6) {
		t.Error("exponential hazard is not constant")
	}
	if got := e.Quantile(0.5); !almostEqual(got, 12*math.Ln2, 1e-12) {
		t.Errorf("median = %v, want %v", got, 12*math.Ln2)
	}
}

func TestExponentialMemoryless(t *testing.T) {
	// P(T > s+t | T > s) == P(T > t).
	e := MustExponential(0.01)
	for _, s := range []float64{10, 100, 500} {
		for _, tt := range []float64{5, 50} {
			cond := Survival(e, s+tt) / Survival(e, s)
			if !almostEqual(cond, Survival(e, tt), 1e-10) {
				t.Errorf("memoryless violated at s=%v t=%v: %v vs %v",
					s, tt, cond, Survival(e, tt))
			}
		}
	}
}

func TestExponentialFromMean(t *testing.T) {
	e, err := ExponentialFromMean(461386)
	if err != nil {
		t.Fatal(err)
	}
	if !almostEqual(e.Rate(), 1.0/461386, 1e-15) {
		t.Errorf("rate = %v", e.Rate())
	}
	if _, err := ExponentialFromMean(0); err == nil {
		t.Error("ExponentialFromMean(0) succeeded")
	}
	if _, err := NewExponential(-1); err == nil {
		t.Error("NewExponential(-1) succeeded")
	}
}

func TestMixtureBasics(t *testing.T) {
	// Even mixture of two exponentials.
	a, b := MustExponential(1), MustExponential(0.1)
	m := MustMixture([]Distribution{a, b}, []float64{1, 1})
	if !almostEqual(m.Mean(), (1+10)/2.0, 1e-12) {
		t.Errorf("mixture mean = %v", m.Mean())
	}
	for _, tt := range []float64{0.5, 2, 10} {
		want := 0.5*a.CDF(tt) + 0.5*b.CDF(tt)
		if !almostEqual(m.CDF(tt), want, 1e-12) {
			t.Errorf("mixture CDF(%v) = %v, want %v", tt, m.CDF(tt), want)
		}
	}
	// Law of total variance.
	wantVar := 0.5*(a.Variance()+b.Variance()) +
		0.5*math.Pow(a.Mean()-m.Mean(), 2) + 0.5*math.Pow(b.Mean()-m.Mean(), 2)
	if !almostEqual(m.Variance(), wantVar, 1e-12) {
		t.Errorf("mixture variance = %v, want %v", m.Variance(), wantVar)
	}
}

func TestMixtureValidation(t *testing.T) {
	e := MustExponential(1)
	if _, err := NewMixture(nil, nil); err == nil {
		t.Error("empty mixture accepted")
	}
	if _, err := NewMixture([]Distribution{e}, []float64{1, 2}); err == nil {
		t.Error("mismatched weights accepted")
	}
	if _, err := NewMixture([]Distribution{e}, []float64{-1}); err == nil {
		t.Error("negative weight accepted")
	}
	if _, err := NewMixture([]Distribution{e}, []float64{0}); err == nil {
		t.Error("zero total weight accepted")
	}
}

func TestMixtureSampleMatchesCDF(t *testing.T) {
	m := MustMixture(
		[]Distribution{MustWeibull(0.7, 100, 0), MustWeibull(3, 5000, 0)},
		[]float64{0.3, 0.7},
	)
	r := rng.New(11)
	const n = 200000
	// Empirical CDF at a few points vs analytic.
	points := []float64{50, 500, 3000, 6000}
	counts := make([]int, len(points))
	for i := 0; i < n; i++ {
		v := m.Sample(r)
		for j, p := range points {
			if v <= p {
				counts[j]++
			}
		}
	}
	for j, p := range points {
		emp := float64(counts[j]) / n
		if math.Abs(emp-m.CDF(p)) > 0.005 {
			t.Errorf("at %v: empirical %v vs analytic %v", p, emp, m.CDF(p))
		}
	}
}

func TestCompetingRisksMinOfExponentials(t *testing.T) {
	// min of Exp(a), Exp(b) is Exp(a+b) — exact check.
	c := MustCompetingRisks([]Distribution{MustExponential(0.01), MustExponential(0.03)})
	want := MustExponential(0.04)
	for _, tt := range []float64{1, 10, 100} {
		if !almostEqual(c.CDF(tt), want.CDF(tt), 1e-12) {
			t.Errorf("CDF(%v) = %v, want %v", tt, c.CDF(tt), want.CDF(tt))
		}
		if !almostEqual(c.Hazard(tt), 0.04, 1e-12) {
			t.Errorf("Hazard(%v) = %v, want 0.04", tt, c.Hazard(tt))
		}
	}
	if !almostEqual(c.Mean(), 25, 1e-3) {
		t.Errorf("Mean = %v, want 25", c.Mean())
	}
	if !almostEqual(c.Variance(), 625, 1e-2) {
		t.Errorf("Variance = %v, want 625", c.Variance())
	}
}

func TestCompetingRisksHazardsAdd(t *testing.T) {
	w1 := MustWeibull(0.9, 5e5, 0)
	w2 := MustWeibull(3, 2e4, 0)
	c := MustCompetingRisks([]Distribution{w1, w2})
	for _, tt := range []float64{100, 10000, 30000} {
		want := w1.Hazard(tt) + w2.Hazard(tt)
		if !almostEqual(c.Hazard(tt), want, 1e-10) {
			t.Errorf("Hazard(%v) = %v, want %v", tt, c.Hazard(tt), want)
		}
	}
	// The competing-risk hazard has a bathtub-like upturn: hazard at late
	// life exceeds hazard at mid life.
	if c.Hazard(30000) <= c.Hazard(3000) {
		t.Error("expected wear-out upturn in competing-risk hazard")
	}
}

func TestCompetingRisksSample(t *testing.T) {
	c := MustCompetingRisks([]Distribution{MustExponential(0.01), MustExponential(0.03)})
	r := rng.New(13)
	const n = 200000
	var sum float64
	for i := 0; i < n; i++ {
		sum += c.Sample(r)
	}
	if !almostEqual(sum/n, 25, 0.01) {
		t.Errorf("sample mean %v, want ~25", sum/n)
	}
}

func TestSurvivalClamps(t *testing.T) {
	w := MustWeibull(1, 1, 0)
	if Survival(w, -5) != 1 {
		t.Error("survival before support should be 1")
	}
	if s := Survival(w, 1e9); s != 0 {
		t.Errorf("survival at extreme tail = %v", s)
	}
}

func TestHazardFallbackPath(t *testing.T) {
	// Normal does not implement Hazarder, so Hazard uses f/(1-F).
	n := MustNormal(0, 1)
	tt := 1.5
	want := n.PDF(tt) / (1 - n.CDF(tt))
	if got := Hazard(n, tt); !almostEqual(got, want, 1e-12) {
		t.Errorf("Hazard = %v, want %v", got, want)
	}
}

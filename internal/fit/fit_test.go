package fit

import (
	"math"
	"testing"

	"raidrel/internal/dist"
	"raidrel/internal/rng"
)

func drawObservations(d dist.Distribution, n int, censorAt float64, r *rng.RNG) []Observation {
	obs := make([]Observation, n)
	for i := range obs {
		t := d.Sample(r)
		if censorAt > 0 && t > censorAt {
			obs[i] = Observation{Time: censorAt, Censored: true}
		} else {
			obs[i] = Observation{Time: t}
		}
	}
	return obs
}

func TestValidation(t *testing.T) {
	if _, err := MedianRankRegression(nil); err == nil {
		t.Error("empty dataset accepted")
	}
	if _, err := MLE([]Observation{{Time: 1}}); err == nil {
		t.Error("single failure accepted")
	}
	if _, err := ProbabilityPlot([]Observation{{Time: -1}, {Time: 2}}); err == nil {
		t.Error("negative time accepted")
	}
	allCensored := []Observation{{Time: 1, Censored: true}, {Time: 2, Censored: true}}
	if _, err := MLE(allCensored); err == nil {
		t.Error("all-censored dataset accepted")
	}
}

func TestProbabilityPlotUncensoredRanks(t *testing.T) {
	obs := []Observation{{Time: 10}, {Time: 30}, {Time: 20}}
	pts, err := ProbabilityPlot(obs)
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) != 3 {
		t.Fatalf("got %d points", len(pts))
	}
	// Benard ranks for n=3: (i-0.3)/3.4.
	want := []float64{0.7 / 3.4, 1.7 / 3.4, 2.7 / 3.4}
	for i, w := range want {
		if math.Abs(pts[i].MedianRank-w) > 1e-12 {
			t.Errorf("rank %d = %v, want %v", i, pts[i].MedianRank, w)
		}
	}
	if pts[0].Time != 10 || pts[1].Time != 20 || pts[2].Time != 30 {
		t.Error("points not sorted by time")
	}
}

func TestProbabilityPlotCensoringInflatesRanks(t *testing.T) {
	// A suspension between failures pushes later median ranks upward
	// relative to the uncensored spacing.
	withSusp := []Observation{{Time: 10}, {Time: 15, Censored: true}, {Time: 20}}
	without := []Observation{{Time: 10}, {Time: 20}}
	a, err := ProbabilityPlot(withSusp)
	if err != nil {
		t.Fatal(err)
	}
	b, err := ProbabilityPlot(without)
	if err != nil {
		t.Fatal(err)
	}
	if len(a) != 2 || len(b) != 2 {
		t.Fatal("wrong point counts")
	}
	// Second failure of the suspended set: adjusted rank = 1 + (3+1-1)/(3+1-2) = 2.5
	// → median rank (2.5-0.3)/3.4.
	if math.Abs(a[1].MedianRank-2.2/3.4) > 1e-12 {
		t.Errorf("adjusted rank = %v, want %v", a[1].MedianRank, 2.2/3.4)
	}
}

func TestMRRRecoversKnownWeibull(t *testing.T) {
	r := rng.New(101)
	w := dist.MustWeibull(1.12, 461386, 0)
	obs := drawObservations(w, 2000, 0, r)
	p, err := MedianRankRegression(obs)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(p.Shape-1.12) > 0.06 {
		t.Errorf("shape = %v, want ~1.12", p.Shape)
	}
	if math.Abs(p.Scale-461386)/461386 > 0.05 {
		t.Errorf("scale = %v, want ~461386", p.Scale)
	}
	if p.R2 < 0.98 {
		t.Errorf("R² = %v for a true Weibull sample", p.R2)
	}
}

func TestMLERecoversKnownWeibull(t *testing.T) {
	r := rng.New(102)
	w := dist.MustWeibull(2.0, 1000, 0)
	obs := drawObservations(w, 2000, 0, r)
	p, err := MLE(obs)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(p.Shape-2.0) > 0.1 {
		t.Errorf("shape = %v, want ~2.0", p.Shape)
	}
	if math.Abs(p.Scale-1000)/1000 > 0.03 {
		t.Errorf("scale = %v, want ~1000", p.Scale)
	}
}

// Fig. 2's vintages are heavily censored (e.g. F=992 of 24,056 units). MLE
// must recover parameters from ~96% suspensions.
func TestMLEHeavilyCensoredVintage(t *testing.T) {
	r := rng.New(103)
	w := dist.MustWeibull(1.2162, 1.2566e5, 0)
	// Censor at 6,000 hours like the paper's field window.
	obs := drawObservations(w, 24000, 6000, r)
	failures := 0
	for _, o := range obs {
		if !o.Censored {
			failures++
		}
	}
	if failures < 200 || failures > 2500 {
		t.Fatalf("unexpected failure count %d for this censoring", failures)
	}
	p, err := MLE(obs)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(p.Shape-1.2162) > 0.12 {
		t.Errorf("shape = %v, want ~1.22", p.Shape)
	}
	// Scale is extrapolated far beyond the window; allow 25%.
	if math.Abs(p.Scale-1.2566e5)/1.2566e5 > 0.25 {
		t.Errorf("scale = %v, want ~1.26e5", p.Scale)
	}
}

func TestMLEDegenerateData(t *testing.T) {
	obs := []Observation{{Time: 5}, {Time: 5}, {Time: 5}}
	if _, err := MLE(obs); err == nil {
		t.Error("identical failure times should not fit")
	}
}

func TestLinearFitExact(t *testing.T) {
	x := []float64{1, 2, 3, 4}
	y := []float64{3, 5, 7, 9} // y = 1 + 2x
	l, err := LinearFit(x, y)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(l.Slope-2) > 1e-12 || math.Abs(l.Intercept-1) > 1e-12 {
		t.Errorf("fit = %+v", l)
	}
	if math.Abs(l.R2-1) > 1e-12 {
		t.Errorf("R² = %v", l.R2)
	}
}

func TestLinearFitValidation(t *testing.T) {
	if _, err := LinearFit([]float64{1}, []float64{1}); err == nil {
		t.Error("single point accepted")
	}
	if _, err := LinearFit([]float64{1, 2}, []float64{1}); err == nil {
		t.Error("length mismatch accepted")
	}
	if _, err := LinearFit([]float64{2, 2, 2}, []float64{1, 2, 3}); err == nil {
		t.Error("zero-variance x accepted")
	}
}

func TestChangepointDetectsMixedMechanisms(t *testing.T) {
	// Build an HDD#2-style population: early mechanism Weibull(0.9, 8e5),
	// late wear-out takes over via competing risk Weibull(3.5, 2.5e4).
	r := rng.New(104)
	c := dist.MustCompetingRisks([]dist.Distribution{
		dist.MustWeibull(0.9, 8e5, 0),
		dist.MustWeibull(3.5, 2.5e4, 0),
	})
	obs := drawObservations(c, 3000, 40000, r)
	pts, err := ProbabilityPlot(obs)
	if err != nil {
		t.Fatal(err)
	}
	split, left, right, err := Changepoint(pts)
	if err != nil {
		t.Fatal(err)
	}
	if split <= 0 || split >= len(pts) {
		t.Fatalf("split = %d of %d", split, len(pts))
	}
	// The late segment must be markedly steeper (wear-out slope > early
	// infant-mortality slope).
	if right.Slope <= left.Slope*1.5 {
		t.Errorf("late slope %v not steeper than early slope %v", right.Slope, left.Slope)
	}
}

func TestChangepointValidation(t *testing.T) {
	if _, _, _, err := Changepoint(make([]PlotPoint, 4)); err == nil {
		t.Error("too-few points accepted")
	}
}

// A single-mechanism Weibull population should plot nearly linearly
// (HDD #1 in Fig. 1). With heavy censoring only the extreme lower tail is
// observed, where rank regression is biased low for β < 1 — MLE is the
// estimator that stays accurate there, which is why both exist.
func TestSingleMechanismNearlyLinear(t *testing.T) {
	r := rng.New(106)
	w := dist.MustWeibull(0.9, 5e5, 0)
	obs := drawObservations(w, 20000, 30000, r)
	p, err := MedianRankRegression(obs)
	if err != nil {
		t.Fatal(err)
	}
	if p.R2 < 0.95 {
		t.Errorf("pure Weibull plot R² = %v, want > 0.95", p.R2)
	}
	mle, err := MLE(obs)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(mle.Shape-0.9) > 0.05 {
		t.Errorf("MLE shape = %v, want ~0.9", mle.Shape)
	}
	// Document the known MRR low-tail bias: it must not exceed MLE's fit.
	if p.Shape > mle.Shape+0.05 {
		t.Errorf("expected MRR shape (%v) at or below MLE shape (%v) under heavy censoring",
			p.Shape, mle.Shape)
	}
}

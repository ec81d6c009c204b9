package stats

import (
	"math"
	"testing"

	"raidrel/internal/dist"
	"raidrel/internal/rng"
)

func TestSummarizeBasics(t *testing.T) {
	s := Summarize([]float64{2, 4, 4, 4, 5, 5, 7, 9})
	if s.N != 8 {
		t.Errorf("N = %d", s.N)
	}
	if s.Mean != 5 {
		t.Errorf("Mean = %v", s.Mean)
	}
	// Unbiased variance of this classic sample is 32/7.
	if math.Abs(s.Variance-32.0/7) > 1e-12 {
		t.Errorf("Variance = %v, want %v", s.Variance, 32.0/7)
	}
	if s.Min != 2 || s.Max != 9 {
		t.Errorf("Min/Max = %v/%v", s.Min, s.Max)
	}
	if s.Median != 4.5 {
		t.Errorf("Median = %v", s.Median)
	}
}

func TestSummarizeEmptyAndSingle(t *testing.T) {
	if s := Summarize(nil); s.N != 0 {
		t.Errorf("empty summary N = %d", s.N)
	}
	s := Summarize([]float64{3})
	if s.N != 1 || s.Mean != 3 || s.Variance != 0 || s.Median != 3 {
		t.Errorf("single summary = %+v", s)
	}
}

func TestQuantile(t *testing.T) {
	sorted := []float64{1, 2, 3, 4, 5}
	cases := []struct{ p, want float64 }{
		{0, 1}, {1, 5}, {0.5, 3}, {0.25, 2}, {0.125, 1.5},
	}
	for _, c := range cases {
		if got := Quantile(sorted, c.p); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("Quantile(%v) = %v, want %v", c.p, got, c.want)
		}
	}
}

func TestMCFBasic(t *testing.T) {
	// 4 systems; system 0 fails at 10 and 30, system 1 at 20, others never.
	events := [][]float64{{10, 30}, {20}, {}, {}}
	mcf, err := MCF(events, 4)
	if err != nil {
		t.Fatal(err)
	}
	if len(mcf) != 3 {
		t.Fatalf("got %d points", len(mcf))
	}
	want := []MCFPoint{{10, 0.25}, {20, 0.5}, {30, 0.75}}
	for i, w := range want {
		if mcf[i] != w {
			t.Errorf("point %d = %+v, want %+v", i, mcf[i], w)
		}
	}
	if got := MCFAt(mcf, 25); got != 0.5 {
		t.Errorf("MCFAt(25) = %v", got)
	}
	if got := MCFAt(mcf, 5); got != 0 {
		t.Errorf("MCFAt(5) = %v", got)
	}
	if got := MCFAt(mcf, 100); got != 0.75 {
		t.Errorf("MCFAt(100) = %v", got)
	}
}

func TestMCFValidation(t *testing.T) {
	if _, err := MCF(nil, 0); err == nil {
		t.Error("zero systems accepted")
	}
	if _, err := MCF([][]float64{{1}, {2}}, 1); err == nil {
		t.Error("more event lists than systems accepted")
	}
	if _, err := MCF([][]float64{{-1}}, 1); err == nil {
		t.Error("negative event time accepted")
	}
	if _, err := MCF([][]float64{{math.NaN()}}, 1); err == nil {
		t.Error("NaN event time accepted")
	}
}

func TestCumulativeCurve(t *testing.T) {
	mcf := []MCFPoint{{10, 1}, {20, 2}}
	ts, vs := CumulativeCurve(mcf, 40, 5)
	wantT := []float64{0, 10, 20, 30, 40}
	wantV := []float64{0, 1, 2, 2, 2}
	for i := range ts {
		if ts[i] != wantT[i] || vs[i] != wantV[i] {
			t.Errorf("point %d = (%v, %v), want (%v, %v)", i, ts[i], vs[i], wantT[i], wantV[i])
		}
	}
}

func TestROCOFConstantProcess(t *testing.T) {
	// A HPP-like event stream: one event per system per window.
	events := [][]float64{{5, 15, 25, 35}, {5, 15, 25, 35}}
	mcf, err := MCF(events, 2)
	if err != nil {
		t.Fatal(err)
	}
	r, err := ROCOF(mcf, 40, 10)
	if err != nil {
		t.Fatal(err)
	}
	if len(r) != 4 {
		t.Fatalf("got %d windows", len(r))
	}
	for _, p := range r {
		if math.Abs(p.Count-1) > 1e-12 {
			t.Errorf("window at %v count %v, want 1", p.TimeMid, p.Count)
		}
		if math.Abs(p.Rate-0.1) > 1e-12 {
			t.Errorf("window at %v rate %v, want 0.1", p.TimeMid, p.Rate)
		}
	}
	if IsIncreasingTrend(r) {
		t.Error("flat process flagged as increasing")
	}
}

func TestROCOFIncreasingProcess(t *testing.T) {
	// Events accelerate: counts per window are 1, 2, 4, 8.
	var ev []float64
	add := func(lo float64, n int) {
		for i := 0; i < n; i++ {
			ev = append(ev, lo+float64(i)*0.1)
		}
	}
	add(5, 1)
	add(15, 2)
	add(25, 4)
	add(35, 8)
	mcf, err := MCF([][]float64{ev}, 1)
	if err != nil {
		t.Fatal(err)
	}
	r, err := ROCOF(mcf, 40, 10)
	if err != nil {
		t.Fatal(err)
	}
	if !IsIncreasingTrend(r) {
		t.Error("accelerating process not flagged as increasing")
	}
}

func TestROCOFValidation(t *testing.T) {
	if _, err := ROCOF(nil, 0, 10); err == nil {
		t.Error("zero horizon accepted")
	}
	if _, err := ROCOF(nil, 10, 0); err == nil {
		t.Error("zero window accepted")
	}
}

func TestIsIncreasingTrendEdge(t *testing.T) {
	if IsIncreasingTrend(nil) {
		t.Error("nil trend")
	}
	if IsIncreasingTrend([]ROCOFPoint{{Count: 1}}) {
		t.Error("single point trend")
	}
}

func TestBootstrapValidation(t *testing.T) {
	r := rng.New(1)
	if _, err := BootstrapCI(nil, 0.95, 100, r, Mean); err == nil {
		t.Error("empty sample accepted")
	}
	if _, err := BootstrapCI([]float64{1}, 1.5, 100, r, Mean); err == nil {
		t.Error("bad level accepted")
	}
	if _, err := BootstrapCI([]float64{1}, 0.95, 5, r, Mean); err == nil {
		t.Error("too few resamples accepted")
	}
	if _, err := BootstrapCI([]float64{1}, 0.95, 100, nil, Mean); err == nil {
		t.Error("nil RNG accepted")
	}
}

func TestBootstrapCustomStatistic(t *testing.T) {
	r := rng.New(7)
	sample := make([]float64, 500)
	for i := range sample {
		sample[i] = r.ExpFloat64()
	}
	ci, err := BootstrapCI(sample, 0.9, 1000, r, func(s []float64) float64 {
		return Summarize(s).Median
	})
	if err != nil {
		t.Fatal(err)
	}
	// True median of Exp(1) is ln 2.
	if ci.Lo > math.Ln2 || ci.Hi < math.Ln2 {
		t.Errorf("median CI [%v, %v] misses ln2", ci.Lo, ci.Hi)
	}
}

func TestNormalMeanCI(t *testing.T) {
	r := rng.New(8)
	sample := make([]float64, 1000)
	for i := range sample {
		sample[i] = 5 + 2*r.NormFloat64()
	}
	ci, err := NormalMeanCI(sample, 0.95)
	if err != nil {
		t.Fatal(err)
	}
	if ci.Lo > 5 || ci.Hi < 5 {
		t.Errorf("CI [%v, %v] misses 5", ci.Lo, ci.Hi)
	}
	// Width should be ~ 2*1.96*2/sqrt(1000) = 0.248.
	if w := ci.Hi - ci.Lo; math.Abs(w-0.248) > 0.05 {
		t.Errorf("CI width %v, want ~0.248", w)
	}
	if _, err := NormalMeanCI([]float64{1}, 0.95); err == nil {
		t.Error("n=1 accepted")
	}
	if _, err := NormalMeanCI([]float64{1, 2}, 0); err == nil {
		t.Error("level 0 accepted")
	}
}

func TestNormalQuantileSymmetry(t *testing.T) {
	for _, p := range []float64{0.6, 0.9, 0.95, 0.975, 0.995} {
		if math.Abs(dist.StdNormalQuantile(p)+dist.StdNormalQuantile(1-p)) > 1e-12 {
			t.Errorf("asymmetric at %v", p)
		}
	}
	// z(0.975) ~ 1.96.
	if z := dist.StdNormalQuantile(0.975); math.Abs(z-1.96) > 0.01 {
		t.Errorf("z(0.975) = %v", z)
	}
}

// ZScore is exact to well within 1e-9 at the levels intervals use: a
// coarse rational approximation (errors near 4e-4) would shift every
// interval's width.
func TestZScorePinned(t *testing.T) {
	for _, tc := range []struct{ level, z float64 }{
		{0.90, 1.6448536269514722},
		{0.95, 1.959963984540054},
		{0.99, 2.5758293035489004},
	} {
		if got := ZScore(tc.level); math.Abs(got-tc.z) > 1e-9 {
			t.Errorf("ZScore(%v) = %.12f, want %.12f", tc.level, got, tc.z)
		}
	}
}

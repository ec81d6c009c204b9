package main

import (
	"math"
	"testing"
)

func TestPercentileNearestRank(t *testing.T) {
	xs := []float64{15, 20, 35, 40, 50}
	for _, c := range []struct{ p, want float64 }{
		{5, 15}, {20, 15}, {30, 20}, {40, 20}, {50, 35}, {75, 40}, {95, 50}, {100, 50},
	} {
		if got := percentile(xs, c.p); got != c.want {
			t.Errorf("p%v of %v = %v, want %v", c.p, xs, got, c.want)
		}
	}
	// Unsorted input, and ranks whose product rounds: 0.95·20 must be rank
	// 19, not 20.
	var twenty []float64
	for i := 20; i >= 1; i-- {
		twenty = append(twenty, float64(i))
	}
	if got := percentile(twenty, 95); got != 19 {
		t.Errorf("p95 of 1..20 = %v, want 19", got)
	}
	if !math.IsNaN(percentile(nil, 50)) {
		t.Error("percentile of an empty sample is not NaN")
	}
}

func TestQuartiles(t *testing.T) {
	q := quartilesOf([]float64{7, 1, 3, 5, 9, 11, 13, 15})
	if q.Q1 != 3 || q.Median != 7 || q.Q3 != 11 || q.N != 8 {
		t.Errorf("quartiles %+v, want Q1 3, median 7, Q3 11, n 8", q)
	}
	if q := quartilesOf([]float64{4}); q.Q1 != 4 || q.Median != 4 || q.Q3 != 4 {
		t.Errorf("single-sample quartiles %+v", q)
	}
}

func TestGrowth(t *testing.T) {
	xs := make([]float64, 20)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	// First decile {1,2}, last {19,20}.
	if got := growth(xs); got != 19.5/1.5 {
		t.Errorf("growth %v, want 13", got)
	}
	if got := growth([]float64{2, 6}); got != 3 {
		t.Errorf("growth of two samples %v, want 3", got)
	}
}

func TestJudge(t *testing.T) {
	tight := func(m float64) []float64 { return []float64{m * 0.99, m * 0.995, m, m * 1.005, m * 1.01} }
	wide := func(m float64) []float64 { return []float64{m * 0.5, m * 0.8, m, m * 1.2, m * 1.5} }
	for _, c := range []struct {
		name   string
		a, b   []float64
		better string
		want   string
	}{
		{"unchanged", tight(10), tight(10), "lower", "ok"},
		{"slower", tight(10), tight(12), "lower", "regressed"},
		{"faster", tight(10), tight(8), "lower", "ok"},
		{"lower throughput", tight(10), tight(8), "higher", "regressed"},
		{"noisy", wide(10), wide(10), "lower", "unresolved"},
		{"noisy but every rep better", wide(10), []float64{1, 2, 3, 4, 4.5}, "lower", "ok"},
		{"noisy and every rep worse", wide(10), []float64{16, 20, 25, 30, 40}, "lower", "regressed"},
	} {
		if _, got := judge(c.a, c.b, c.better, 0.1); got != c.want {
			t.Errorf("%s: %s, want %s", c.name, got, c.want)
		}
	}
	if got := winFraction([]float64{1, 2}, []float64{1, 3}, "higher"); got != 0.5 {
		t.Errorf("win fraction with a tie %v, want 0.5", got)
	}
	// A median over many reps moves far less than single reps do.
	reps := make([]float64, 41)
	for i := range reps {
		reps[i] = 7 + 6*float64(i)/40
	}
	if s := medianSpread(reps); !(s > 0 && s < 0.1) {
		t.Errorf("median spread of 41 reps within ±30%% = %v, want in (0, 0.1)", s)
	}
}

func TestSameMachineState(t *testing.T) {
	normal := []float64{3.8, 3.9, 4.0}
	for _, c := range []struct {
		name string
		b    []float64
		want bool
	}{
		{"same state", []float64{3.7, 4.1, 4.2}, true},
		{"slow state", []float64{8.1, 8.4, 8.6}, false},
		{"no calibration", nil, false},
	} {
		if got := sameMachineState(normal, c.b); got != c.want {
			t.Errorf("%s: %v, want %v", c.name, got, c.want)
		}
	}
	if elasticity("peak_heap_mb") != 0 || elasticity("time_to_ci_s") == 0 {
		t.Error("only the time and rate metrics are normalized by machine speed")
	}
}

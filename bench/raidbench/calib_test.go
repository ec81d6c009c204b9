package main

import (
	"math"
	"testing"
)

// On a machine twice as slow as the reference, a time with elasticity e
// shrinks by 2^-e, a rate grows by 2^e, and memory is left alone.
func TestNormalize(t *testing.T) {
	m := map[string]float64{"time_to_ci_s": 2, "iters_per_s": 100, "peak_heap_mb": 7, "hit_p50_ms": 10}
	hits := []float64{10, 20}
	normalize(m, hits, 2*calibRefMs)
	want := map[string]float64{
		"time_to_ci_s": 2 * math.Pow(2, -0.75),
		"iters_per_s":  100 * math.Pow(2, 0.75),
		"peak_heap_mb": 7,
		"hit_p50_ms":   5,
	}
	for k, w := range want {
		if math.Abs(m[k]-w) > 1e-12 {
			t.Errorf("%s = %v, want %v", k, m[k], w)
		}
	}
	if hits[0] != 5 || hits[1] != 10 {
		t.Errorf("hits %v, want [5 10]", hits)
	}
}

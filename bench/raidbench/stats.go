package main

import (
	"math"
	"sort"
)

// percentile returns the nearest-rank p-th percentile (0 < p <= 100) of
// xs: the smallest sample with at least p% of the samples at or below it.
// It returns NaN for an empty sample.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	// The epsilon keeps products such as 0.95·20 from rounding up a rank.
	k := int(math.Ceil(p/100*float64(len(s)) - 1e-9))
	if k < 1 {
		k = 1
	}
	return s[k-1]
}

// quartiles summarizes a sample by its nearest-rank quartiles.
type quartiles struct {
	Q1, Median, Q3 float64
	N              int
}

func quartilesOf(xs []float64) quartiles {
	return quartiles{
		Q1:     percentile(xs, 25),
		Median: percentile(xs, 50),
		Q3:     percentile(xs, 75),
		N:      len(xs),
	}
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// growth is the mean of the last decile of xs over the mean of the first
// decile (at least one sample each): how much a per-batch cost rises over
// a run.
func growth(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	k := len(xs) / 10
	if k < 1 {
		k = 1
	}
	return mean(xs[len(xs)-k:]) / mean(xs[:k])
}

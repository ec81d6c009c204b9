// Package stats provides the descriptive and repairable-system statistics
// used to turn Monte Carlo event streams into the paper's tables and
// figures: summary statistics, the mean cumulative function (MCF) for
// repairable systems, windowed ROCOF estimation, and confidence intervals.
package stats

import (
	"math"
	"sort"
)

// Summary holds moments and order statistics of a sample.
type Summary struct {
	N        int
	Mean     float64
	Variance float64 // unbiased (n-1 denominator)
	StdDev   float64
	Min      float64
	Max      float64
	Median   float64
}

// Summarize computes summary statistics for the sample. It returns a zero
// Summary for an empty sample.
func Summarize(sample []float64) Summary {
	n := len(sample)
	if n == 0 {
		return Summary{}
	}
	s := make([]float64, n)
	copy(s, sample)
	sort.Float64s(s)

	var sum float64
	for _, v := range s {
		sum += v
	}
	mean := sum / float64(n)
	var ss float64
	for _, v := range s {
		d := v - mean
		ss += d * d
	}
	variance := 0.0
	if n > 1 {
		variance = ss / float64(n-1)
	}
	return Summary{
		N:        n,
		Mean:     mean,
		Variance: variance,
		StdDev:   math.Sqrt(variance),
		Min:      s[0],
		Max:      s[n-1],
		Median:   Quantile(s, 0.5),
	}
}

// Quantile returns the p-quantile of a sorted sample by linear
// interpolation. It panics if the sample is empty or unsorted behaviour is
// undefined; callers sort first.
func Quantile(sorted []float64, p float64) float64 {
	n := len(sorted)
	if n == 0 {
		panic("stats: Quantile of empty sample")
	}
	if p <= 0 {
		return sorted[0]
	}
	if p >= 1 {
		return sorted[n-1]
	}
	pos := p * float64(n-1)
	i := int(pos)
	frac := pos - float64(i)
	if i+1 >= n {
		return sorted[n-1]
	}
	return sorted[i] + frac*(sorted[i+1]-sorted[i])
}

// Mean returns the arithmetic mean, or NaN for an empty sample.
func Mean(sample []float64) float64 {
	if len(sample) == 0 {
		return math.NaN()
	}
	var sum float64
	for _, v := range sample {
		sum += v
	}
	return sum / float64(len(sample))
}

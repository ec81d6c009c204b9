package stats

import (
	"fmt"
	"math"
	"sort"

	"raidrel/internal/rng"
)

// Interval is a two-sided confidence interval.
type Interval struct {
	Lo, Hi float64
	Level  float64 // e.g. 0.95
}

// BootstrapCI computes a percentile-bootstrap confidence interval for an
// arbitrary statistic of the sample using resamples drawn from r.
func BootstrapCI(sample []float64, level float64, resamples int, r *rng.RNG,
	statistic func([]float64) float64) (Interval, error) {
	if len(sample) == 0 {
		return Interval{}, fmt.Errorf("stats: bootstrap of empty sample")
	}
	if level <= 0 || level >= 1 {
		return Interval{}, fmt.Errorf("stats: confidence level %v outside (0,1)", level)
	}
	if resamples < 10 {
		return Interval{}, fmt.Errorf("stats: need >= 10 resamples, got %d", resamples)
	}
	if r == nil {
		return Interval{}, fmt.Errorf("stats: nil RNG")
	}
	stats := make([]float64, resamples)
	buf := make([]float64, len(sample))
	for i := range stats {
		for j := range buf {
			buf[j] = sample[r.Intn(len(sample))]
		}
		stats[i] = statistic(buf)
	}
	sort.Float64s(stats)
	alpha := (1 - level) / 2
	return Interval{
		Lo:    Quantile(stats, alpha),
		Hi:    Quantile(stats, 1-alpha),
		Level: level,
	}, nil
}

// NormalMeanCI returns the normal-approximation confidence interval for the
// mean of the sample: mean ± z·s/√n. Adequate for the large Monte Carlo
// counts the experiments use.
func NormalMeanCI(sample []float64, level float64) (Interval, error) {
	if len(sample) < 2 {
		return Interval{}, fmt.Errorf("stats: need >= 2 observations, got %d", len(sample))
	}
	if level <= 0 || level >= 1 {
		return Interval{}, fmt.Errorf("stats: confidence level %v outside (0,1)", level)
	}
	s := Summarize(sample)
	z := ZScore(level)
	half := z * s.StdDev / math.Sqrt(float64(s.N))
	return Interval{Lo: s.Mean - half, Hi: s.Mean + half, Level: level}, nil
}

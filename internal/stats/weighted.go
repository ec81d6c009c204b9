package stats

import (
	"fmt"
	"math"
)

// Importance-sampling estimators: a biased (hazard-tilted) Monte Carlo run
// yields, per group, a likelihood-ratio weight W for groups with a DDF and
// an exact zero otherwise. The rare-event probability estimate is the
// weighted mean p̂ = (1/n)·ΣW, its CI comes from the sample variance of
// the weight vector (NormalMeanCISparse folds the implied zeros in closed
// form), and ESS diagnoses how much the weight spread costs.

// ESS returns the Kish effective sample size (Σw)²/Σw² of a weight vector:
// the number of equally-weighted observations carrying the same estimator
// variance. For identical weights it equals len(weights); heavy weight
// spread pulls it toward 1. Returns 0 for an empty or all-zero vector.
func ESS(weights []float64) float64 {
	var sum, sumSq float64
	for _, w := range weights {
		sum += w
		sumSq += w * w
	}
	if sumSq == 0 {
		return 0
	}
	return sum * sum / sumSq
}

// WeightedBernoulliCI returns the normal-approximation confidence interval
// for the importance-sampled rare-event probability: weights holds the
// likelihood-ratio weight of each event-bearing group out of n total
// (the remaining n-len(weights) groups are exact zeros). The midpoint is
// the unbiased estimate p̂ = Σw/n. It replaces the Wilson interval of the
// unbiased path, which only applies to 0/1 observations.
func WeightedBernoulliCI(weights []float64, n int, level float64) (Interval, error) {
	for _, w := range weights {
		if err := CheckWeight(w); err != nil {
			return Interval{}, err
		}
	}
	return NormalMeanCISparse(weights, n, level)
}

// CheckWeight rejects a likelihood-ratio weight no estimator can use: NaN,
// infinite, or negative. Callers that accumulate weights incrementally
// check each once, as it enters, instead of rescanning the whole vector.
func CheckWeight(w float64) error {
	if math.IsNaN(w) || math.IsInf(w, 0) || w < 0 {
		return fmt.Errorf("stats: invalid importance weight %v", w)
	}
	return nil
}

// MCFFromWeightedTimes computes the importance-weighted mean cumulative
// function from the pooled event times of nSystems systems, sorted
// ascending, with weights[i] the likelihood-ratio weight of the group that
// produced times[i]: M̂(t) = (1/n)·Σ_{tᵢ<=t} wᵢ. With every weight 1 it
// reduces exactly to MCFFromTimes. A nil weights slice means unweighted.
func MCFFromWeightedTimes(times, weights []float64, nSystems int) ([]MCFPoint, error) {
	if weights == nil {
		return MCFFromTimes(times, nSystems)
	}
	if len(weights) != len(times) {
		return nil, fmt.Errorf("stats: %d weights for %d event times", len(weights), len(times))
	}
	if nSystems <= 0 {
		return nil, fmt.Errorf("stats: MCF needs positive system count, got %d", nSystems)
	}
	out := make([]MCFPoint, 0, len(times))
	prev := math.Inf(-1)
	var cum float64
	for i, t := range times {
		if math.IsNaN(t) || t < 0 {
			return nil, fmt.Errorf("stats: invalid event time %v", t)
		}
		if t < prev {
			return nil, fmt.Errorf("stats: event times not ascending at index %d", i)
		}
		w := weights[i]
		if math.IsNaN(w) || math.IsInf(w, 0) || w < 0 {
			return nil, fmt.Errorf("stats: invalid importance weight %v at index %d", w, i)
		}
		prev = t
		cum += w
		out = append(out, MCFPoint{Time: t, MCF: cum / float64(nSystems)})
	}
	return out, nil
}

package stats

import (
	"fmt"
	"math"
	"sort"
)

// Sparse entry points: the Monte Carlo pipeline stores only the groups
// that produced events (a few hundred out of millions in the paper's
// rare-event regime), so the estimators here take pooled event times plus
// an explicit total system count instead of per-system [][]float64 — the
// empty systems are implied, and cost nothing.

// MCFFromTimes computes the mean cumulative function from the pooled event
// times of nSystems systems, already sorted ascending. It is the sparse
// counterpart of MCF: identical output, O(events) instead of
// O(systems + events).
func MCFFromTimes(times []float64, nSystems int) ([]MCFPoint, error) {
	if nSystems <= 0 {
		return nil, fmt.Errorf("stats: MCF needs positive system count, got %d", nSystems)
	}
	out := make([]MCFPoint, 0, len(times))
	prev := math.Inf(-1)
	for i, t := range times {
		if math.IsNaN(t) || t < 0 {
			return nil, fmt.Errorf("stats: invalid event time %v", t)
		}
		if t < prev {
			return nil, fmt.Errorf("stats: event times not ascending at index %d", i)
		}
		prev = t
		out = append(out, MCFPoint{Time: t, MCF: float64(i+1) / float64(nSystems)})
	}
	return out, nil
}

// FitPowerLawTimes computes the time-terminated Crow MLE from the pooled
// event times of nSystems systems observed over [0, horizon] — the sparse
// counterpart of FitPowerLaw. The system count enters the scale estimate
// (λ̂ = N / (k · horizonᵝ)), so it must include the event-free systems.
func FitPowerLawTimes(times []float64, nSystems int, horizon float64) (PowerLawFit, error) {
	if !(horizon > 0) || math.IsInf(horizon, 0) {
		return PowerLawFit{}, fmt.Errorf("stats: invalid horizon %v", horizon)
	}
	if nSystems <= 0 {
		return PowerLawFit{}, fmt.Errorf("stats: no systems")
	}
	n := 0
	var sumLog float64
	for _, t := range times {
		if !(t > 0) || t > horizon {
			return PowerLawFit{}, fmt.Errorf("stats: event time %v outside (0, %v]", t, horizon)
		}
		n++
		sumLog += math.Log(horizon / t)
	}
	return powerLawFromSums(n, sumLog, nSystems, horizon)
}

// NormalMeanCISparse computes NormalMeanCI over a sample of n observations
// of which only the nonzero values are materialized; the remaining
// n-len(nonzero) observations are exactly zero. Zeros contribute nothing
// to the mean's float sum, so the midpoint matches the dense computation
// bit-for-bit; the variance folds the zero terms in closed form
// ((n-k)·mean²), which can differ from the dense sum in the last ulp.
func NormalMeanCISparse(nonzero []float64, n int, level float64) (Interval, error) {
	// Sum in sorted order, exactly as Summarize does for the dense vector
	// (where the implied zeros sort first and add nothing).
	s := make([]float64, len(nonzero))
	copy(s, nonzero)
	sort.Float64s(s)
	return NormalMeanCISorted(s, n, level)
}

// NormalMeanCISorted is NormalMeanCISparse over nonzero values already in
// ascending order — the one home of the interval formula. Callers that
// keep their sample sorted as it grows (MergeSorted) skip the per-call
// copy and sort and get the identical interval.
func NormalMeanCISorted(sorted []float64, n int, level float64) (Interval, error) {
	if n < 2 {
		return Interval{}, fmt.Errorf("stats: need >= 2 observations, got %d", n)
	}
	if len(sorted) > n {
		return Interval{}, fmt.Errorf("stats: %d nonzero values exceed %d observations", len(sorted), n)
	}
	if level <= 0 || level >= 1 {
		return Interval{}, fmt.Errorf("stats: confidence level %v outside (0,1)", level)
	}
	var sum float64
	for _, v := range sorted {
		sum += v
	}
	mean := sum / float64(n)
	var ss float64
	for _, v := range sorted {
		d := v - mean
		ss += d * d
	}
	ss += float64(n-len(sorted)) * mean * mean
	variance := ss / float64(n-1)
	z := ZScore(level)
	half := z * math.Sqrt(variance) / math.Sqrt(float64(n))
	return Interval{Lo: mean - half, Hi: mean + half, Level: level}, nil
}

// MergeSorted merges the ascending chunk into the ascending slice sorted
// and returns the extended slice: sorted grows by append (amortized, so a
// caller that keeps the result allocates only on growth) and the merge
// runs in place from the back, reading chunk and never clobbering an
// unread element of sorted. The result is the ascending order of the
// union, so a sum over it equals sort-then-sum of all the values — the
// incremental form of NormalMeanCISparse's sort. chunk must not alias
// sorted's backing array; neither may hold NaN.
func MergeSorted(sorted, chunk []float64) []float64 {
	i := len(sorted) - 1
	sorted = append(sorted, chunk...)
	for j, k := len(chunk)-1, len(sorted)-1; j >= 0; k-- {
		if i >= 0 && sorted[i] > chunk[j] {
			sorted[k] = sorted[i]
			i--
		} else {
			sorted[k] = chunk[j]
			j--
		}
	}
	return sorted
}

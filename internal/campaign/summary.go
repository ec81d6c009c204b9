package campaign

import (
	"math"
	"slices"

	"raidrel/internal/sim"
	"raidrel/internal/stats"
)

// summary is the running statistics state behind a campaign's Result. Run
// extends it with only the events each batch appended, so a batch's
// bookkeeping costs O(new events) instead of a rescan (and, under bias, a
// copy and re-sort) of every event group so far. Every figure equals the
// from-scratch computation over the whole run bit for bit:
//
//   - the group counts are the SparseResult.GroupsWithDDF /
//     GroupsWithUnavail passes, resumed where the last batch stopped;
//   - the ESS sums accumulate GroupWeights() in group order, the order
//     stats.ESS adds them in;
//   - the sorted weights are the ascending order of the same multiset
//     stats.NormalMeanCISparse sorts, so the interval's sorted-order sums
//     match it exactly.
//
// Unbiased campaigns (plain or variance-reduced) keep only the integer
// counters; the weight state exists only when Config.Bias is on.
type summary struct {
	// events is the number of run.Events already folded in.
	events int
	// ddfGroups and unavailGroups count the groups with at least one
	// data-loss / unavailability event; lastDDF and lastUnavail are the
	// group indices last counted (-1 before any), because a group's
	// events are contiguous in the (Group, Time)-sorted index.
	ddfGroups, unavailGroups int
	lastDDF, lastUnavail     int

	// biased campaigns only.
	biased bool
	// essSum and essSumSq are Σw and Σw² over event-group weights in
	// group order.
	essSum, essSumSq float64
	// sorted holds every event-group weight, ascending; chunk is the
	// reused scratch for one batch's new weights.
	sorted, chunk []float64
	// badWeight records the first weight that failed stats.CheckWeight.
	// The weighted interval is then unavailable for the rest of the run,
	// exactly as stats.WeightedBernoulliCI would refuse the whole vector.
	badWeight error
}

// newSummary returns the empty summary for spec's campaign.
func newSummary(spec Spec) *summary {
	return &summary{lastDDF: -1, lastUnavail: -1, biased: spec.Config.Bias.Enabled()}
}

// extend folds in the events run gained since the last call. run must only
// have grown by appending (Merge), which preserves the (Group, Time) order
// and never revisits a counted group.
func (s *summary) extend(run *sim.SparseResult) {
	fresh := run.Events[s.events:]
	s.events = len(run.Events)
	s.chunk = s.chunk[:0]
	for i := range fresh {
		e := &fresh[i]
		if e.Cause == sim.CauseUnavail {
			if e.Group != s.lastUnavail {
				s.unavailGroups++
				s.lastUnavail = e.Group
			}
			continue
		}
		if e.Group == s.lastDDF {
			continue
		}
		s.ddfGroups++
		s.lastDDF = e.Group
		if !s.biased {
			continue
		}
		w := math.Exp(e.LogW)
		s.essSum += w
		s.essSumSq += w * w
		if s.badWeight != nil {
			continue
		}
		if err := stats.CheckWeight(w); err != nil {
			s.badWeight = err
			continue
		}
		s.chunk = append(s.chunk, w)
	}
	if s.biased && s.badWeight == nil && len(s.chunk) > 0 {
		slices.Sort(s.chunk)
		s.sorted = stats.MergeSorted(s.sorted, s.chunk)
	}
}

// ess is stats.ESS over the event-group weights.
func (s *summary) ess() float64 {
	if s.essSumSq == 0 {
		return 0
	}
	return s.essSum * s.essSum / s.essSumSq
}

// weightedCI is stats.WeightedBernoulliCI over the event-group weights of
// n groups.
func (s *summary) weightedCI(n int, level float64) (stats.Interval, error) {
	if s.badWeight != nil {
		return stats.Interval{}, s.badWeight
	}
	return stats.NormalMeanCISorted(s.sorted, n, level)
}

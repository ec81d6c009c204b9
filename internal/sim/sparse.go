package sim

import (
	"math"
	"sort"
	"sync"
)

// Collector receives simulated chronologies as a stream. The runner calls
// Observe exactly once per iteration, in strictly increasing iteration
// order (0-based within the run), regardless of how many workers simulate
// concurrently — so a Collector needs no locking and sees the same
// sequence a serial loop would produce. ddfs is in chronological order and
// may be nil for the (overwhelmingly common) event-free group; the slice
// is only valid for the duration of the call — the runner hands out views
// into pooled arenas — so a collector that retains events
// must copy them (SparseResult does). logW is the iteration's
// importance-sampling log weight, exactly 0 for unbiased runs.
type Collector interface {
	Observe(iteration int, ddfs []DDF, logW float64)
}

// CollectorFunc adapts a function to the Collector interface.
type CollectorFunc func(iteration int, ddfs []DDF, logW float64)

// Observe implements Collector.
func (f CollectorFunc) Observe(iteration int, ddfs []DDF, logW float64) { f(iteration, ddfs, logW) }

// GroupEvent is one DDF tagged with the group (iteration) it occurred in.
type GroupEvent struct {
	Group int
	// LogW is the group's importance-sampling log likelihood-ratio weight,
	// shared by every event of the group; exactly 0 for unbiased runs.
	LogW float64
	DDF
}

// SparseResult aggregates a Monte Carlo campaign storing only the groups
// that produced events: at the paper's headline rate (0.27 DDFs per 1,000
// groups per 10 years) over 99.9% of groups are empty, so the sparse form
// costs O(events) memory where a per-group slice would cost O(iterations).
// It implements Collector, accumulating directly from the runner.
//
// Invariant: Events is sorted by (Group, Time), with one LogW per group
// repeated on each of its events. The runner's in-order Observe stream and
// Merge both preserve it; code assembling a SparseResult by hand must too.
//
// Methods are safe for concurrent use: a single mutex serializes
// accumulation (Observe, Merge, Tally) against queries, so a live progress
// reader may call Times or DDFsBefore while a campaign is still observing.
// Direct field access is only safe once accumulation has quiesced.
type SparseResult struct {
	// Groups is the total number of simulated groups, including the empty
	// ones that contribute no Events entries.
	Groups int
	// Events holds every DDF across all groups, sorted by (Group, Time).
	Events []GroupEvent
	// TotalDDFs is the total data-loss event count across groups.
	// Unavailability onsets (CauseUnavail) are counted separately in
	// UnavailEvents and excluded from every loss statistic.
	TotalDDFs int
	// OpOpDDFs and LdOpDDFs split the total by cause.
	OpOpDDFs, LdOpDDFs int
	// UnavailEvents counts data-unavailability onset events (coupled
	// topologies only; always 0 for flat runs).
	UnavailEvents int
	// VR holds the block-level variance-reduction tallies when the run used
	// VR-enabled block simulation; nil otherwise. Blocks are in iteration
	// order, matching the Events index.
	VR *VRTally
	// Fleet holds the aggregated heal-backlog tallies when the run
	// simulated fleet chronologies (RunSpec.Fleet); nil otherwise.
	Fleet *FleetTally

	// mu guards every field. The per-iteration Observe cost is one
	// uncontended lock/unlock — noise next to a chronology simulation —
	// and the hot event-free path allocates nothing.
	mu sync.Mutex
	// flatTimes caches the sorted flat event-time slice behind DDFsBefore
	// and Times; flatWeights, parallel to it, holds each event's weight
	// exp(LogW) and is built only for weighted results.
	flatTimes   []float64
	flatWeights []float64
}

var _ Collector = (*SparseResult)(nil)

// Observe implements Collector: it records iteration's events and counts
// the group whether or not it produced any. The log weight of an
// event-free group is dropped — every estimator this result feeds
// (Bernoulli numerator, MCF, cause split) sums weights over event groups
// only, with empty groups contributing exact zeros.
func (r *SparseResult) Observe(iteration int, ddfs []DDF, logW float64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if iteration >= r.Groups {
		r.Groups = iteration + 1
	}
	if len(ddfs) == 0 {
		return
	}
	if need := len(r.Events) + len(ddfs); need > cap(r.Events) {
		// Grow by doubling explicitly: Go's built-in append falls to a
		// 1.25× growth rate for large slices, which over a long campaign
		// allocates ~5× the final slice size in dead intermediate copies —
		// the dominant bytes/op of a batched run. Doubling caps the total
		// allocation at ~2× final size.
		r.growLocked(max(2*cap(r.Events), need, 64))
	}
	for _, d := range ddfs {
		r.Events = append(r.Events, GroupEvent{Group: iteration, LogW: logW, DDF: d})
		r.tallyOne(d.Cause)
	}
	r.invalidateLocked()
}

// growLocked moves r.Events to a new backing array of capacity newCap. The
// field is cleared before the allocation: a garbage collection that the
// allocation starts would otherwise see the field overwritten mid-cycle,
// and the write barrier would keep the old array — a whole second copy of
// the event index — alive until the following cycle. r.mu must be held.
func (r *SparseResult) growLocked(newCap int) {
	old := r.Events
	r.Events = nil
	r.Events = append(make([]GroupEvent, 0, newCap), old...)
}

// FleetObserver is implemented by collectors that want each fleet
// chronology's heal-backlog statistics alongside the per-group DDF stream.
// The runner calls it once per chronology, in chronology order, after that
// chronology's groups have been observed.
type FleetObserver interface {
	ObserveFleetChronology(groups int, st FleetStats)
}

// FleetTally aggregates heal-backlog statistics across the fleet
// chronologies of a run: sums for the extensive quantities, maxima for
// the worst-case ones. The JSON form is the checkpoint/wire
// representation.
type FleetTally struct {
	// Chronologies counts fleet chronologies tallied; GroupsPer is the
	// fleet size each simulated.
	Chronologies int `json:"chronologies"`
	GroupsPer    int `json:"groups_per_chronology"`
	// Failures, Rebuilds, Waited, ActiveAtEnd, and QueuedAtEnd sum the
	// per-chronology counts (see FleetStats); the conservation invariant
	// Failures == Rebuilds + ActiveAtEnd + QueuedAtEnd survives summation.
	Failures    int `json:"failures"`
	Rebuilds    int `json:"rebuilds"`
	Waited      int `json:"waited"`
	ActiveAtEnd int `json:"active_at_end"`
	QueuedAtEnd int `json:"queued_at_end"`
	// TotalWaitHours sums every rebuild's failure-to-start wait across
	// chronologies; MaxWaitHours and MaxQueueDepth are the worst single
	// wait and peak queue depth seen in any chronology.
	TotalWaitHours float64 `json:"total_wait_hours"`
	MaxWaitHours   float64 `json:"max_wait_hours"`
	MaxQueueDepth  int     `json:"max_queue_depth"`
	// MeanDepthSum sums the per-chronology time-averaged queue depths;
	// divide by Chronologies (MeanQueueDepth) for the run average.
	MeanDepthSum float64 `json:"mean_depth_sum"`
	// MaxExposureHours is the longest degradation episode of any group in
	// any chronology.
	MaxExposureHours float64 `json:"max_exposure_hours"`
}

// add folds one chronology's statistics into the tally, as the merge of
// that chronology's one-chronology tally.
func (t *FleetTally) add(groups int, st FleetStats) {
	t.merge(&FleetTally{
		Chronologies:     1,
		GroupsPer:        groups,
		Failures:         st.Failures,
		Rebuilds:         st.Rebuilds,
		Waited:           st.Waited,
		ActiveAtEnd:      st.ActiveAtEnd,
		QueuedAtEnd:      st.QueuedAtEnd,
		TotalWaitHours:   st.TotalWaitHours,
		MaxWaitHours:     st.MaxWaitHours,
		MaxQueueDepth:    st.MaxQueueDepth,
		MeanDepthSum:     st.MeanQueueDepth,
		MaxExposureHours: st.MaxExposureHours,
	})
}

// merge folds another tally in, preserving the same invariants Merge
// gives the event stream: tallying runs [0,k) and [k,n) separately and
// merging equals tallying [0,n) at once.
func (t *FleetTally) merge(o *FleetTally) {
	t.Chronologies += o.Chronologies
	if o.GroupsPer != 0 {
		t.GroupsPer = o.GroupsPer
	}
	t.Failures += o.Failures
	t.Rebuilds += o.Rebuilds
	t.Waited += o.Waited
	t.ActiveAtEnd += o.ActiveAtEnd
	t.QueuedAtEnd += o.QueuedAtEnd
	t.TotalWaitHours += o.TotalWaitHours
	if o.MaxWaitHours > t.MaxWaitHours {
		t.MaxWaitHours = o.MaxWaitHours
	}
	if o.MaxQueueDepth > t.MaxQueueDepth {
		t.MaxQueueDepth = o.MaxQueueDepth
	}
	t.MeanDepthSum += o.MeanDepthSum
	if o.MaxExposureHours > t.MaxExposureHours {
		t.MaxExposureHours = o.MaxExposureHours
	}
}

// MeanQueueDepth is the run-average time-averaged heal-queue depth.
func (t *FleetTally) MeanQueueDepth() float64 {
	if t.Chronologies == 0 {
		return 0
	}
	return t.MeanDepthSum / float64(t.Chronologies)
}

// MeanWaitHours is the average failure-to-rebuild-start wait per failure.
func (t *FleetTally) MeanWaitHours() float64 {
	if t.Failures == 0 {
		return 0
	}
	return t.TotalWaitHours / float64(t.Failures)
}

// ObserveFleetChronology implements FleetObserver, accumulating the
// chronology into the Fleet tally.
func (r *SparseResult) ObserveFleetChronology(groups int, st FleetStats) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.Fleet == nil {
		r.Fleet = &FleetTally{}
	}
	r.Fleet.add(groups, st)
}

// ObserveVRBlock implements VRBlockObserver: it appends one completed
// variance-reduction block's tallies, in block order.
func (r *SparseResult) ObserveVRBlock(blockSize int, ez float64, b VRBlock) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.VR == nil {
		r.VR = &VRTally{BlockSize: blockSize, EZ: ez}
	}
	r.VR.Blocks = append(r.VR.Blocks, b)
}

func (r *SparseResult) tallyOne(c Cause) {
	if c == CauseUnavail {
		r.UnavailEvents++
		return
	}
	r.TotalDDFs++
	switch c {
	case CauseOpOp:
		r.OpOpDDFs++
	case CauseLdOp:
		r.LdOpDDFs++
	}
}

// invalidateLocked drops the derived caches; r.mu must be held.
func (r *SparseResult) invalidateLocked() {
	r.flatTimes = nil
	r.flatWeights = nil
}

// Reset empties r for reuse as a fresh collector, keeping its event
// capacity: a caller that runs batch after batch through one result and
// merges each into a running total stops regrowing it every batch.
func (r *SparseResult) Reset() {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.Groups = 0
	r.Events = r.Events[:0]
	r.TotalDDFs, r.OpOpDDFs, r.LdOpDDFs, r.UnavailEvents = 0, 0, 0, 0
	r.VR, r.Fleet = nil, nil
	r.invalidateLocked()
}

// Tally recomputes the aggregate counts from Events — for results
// assembled by hand, e.g. restored from a campaign checkpoint.
func (r *SparseResult) Tally() {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.TotalDDFs, r.OpOpDDFs, r.LdOpDDFs, r.UnavailEvents = 0, 0, 0, 0
	for _, e := range r.Events {
		r.tallyOne(e.Cause)
	}
	r.invalidateLocked()
}

// Merge appends another result's groups after r's and retallies: merging
// runs [0,k) and [k,n) (the latter simulated with Offset k) yields exactly
// the result of a single n-iteration run. The other result's group indices
// are shifted by r.Groups. The other result must be quiescent for the
// duration of the call.
func (r *SparseResult) Merge(other *SparseResult) {
	r.mu.Lock()
	defer r.mu.Unlock()
	base := r.Groups
	if need := len(r.Events) + len(other.Events); need > cap(r.Events) {
		// A merge target is a long-lived index that grows a batch at a
		// time, where spare capacity costs more than copies: grow by a
		// quarter, the runtime's own rate for large slices.
		r.growLocked(max(cap(r.Events)+cap(r.Events)/4, need))
	}
	for _, e := range other.Events {
		e.Group += base
		r.Events = append(r.Events, e)
	}
	r.Groups += other.Groups
	r.TotalDDFs += other.TotalDDFs
	r.OpOpDDFs += other.OpOpDDFs
	r.LdOpDDFs += other.LdOpDDFs
	r.UnavailEvents += other.UnavailEvents
	if other.VR != nil {
		if r.VR == nil {
			r.VR = &VRTally{BlockSize: other.VR.BlockSize, EZ: other.VR.EZ}
		}
		r.VR.merge(other.VR)
	}
	if other.Fleet != nil {
		if r.Fleet == nil {
			r.Fleet = &FleetTally{}
		}
		r.Fleet.merge(other.Fleet)
	}
	r.invalidateLocked()
}

// Weighted reports whether any group carries a non-unit importance-sampling
// weight — i.e. whether the run was biased and the weighted estimators
// differ from the plain counts.
func (r *SparseResult) Weighted() bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	for _, e := range r.Events {
		if e.LogW != 0 {
			return true
		}
	}
	return false
}

// flatLocked builds (if stale) and returns the time-sorted event times
// and, for weighted results, the parallel per-event weights (nil
// otherwise). r.mu must be held.
func (r *SparseResult) flatLocked() ([]float64, []float64) {
	if r.flatTimes == nil {
		// The flat index feeds the loss curve (MCF, DDFsBefore);
		// unavailability onsets are not data loss and stay out of it.
		idx := make([]int, 0, len(r.Events))
		weighted := false
		for i, e := range r.Events {
			if e.Cause == CauseUnavail {
				continue
			}
			idx = append(idx, i)
			weighted = weighted || e.LogW != 0
		}
		sort.Slice(idx, func(a, b int) bool { return r.Events[idx[a]].Time < r.Events[idx[b]].Time })
		ts := make([]float64, len(idx))
		for i, j := range idx {
			ts[i] = r.Events[j].Time
		}
		r.flatTimes = ts
		r.flatWeights = nil
		if weighted {
			ws := make([]float64, len(idx))
			for i, j := range idx {
				ws[i] = math.Exp(r.Events[j].LogW)
			}
			r.flatWeights = ws
		}
	}
	return r.flatTimes, r.flatWeights
}

// Times returns all event times across groups, ascending, built once and
// cached. The slice is shared and must be treated as immutable; it remains
// valid (as a stale snapshot) if the result keeps accumulating.
func (r *SparseResult) Times() []float64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	ts, _ := r.flatLocked()
	return ts
}

// TimesAndWeights returns all event times across groups, ascending, with
// each event's importance-sampling weight exp(LogW) in the parallel second
// slice — the inputs of the weighted MCF. The weight slice is nil for
// unbiased results (every weight 1). Both slices are shared; callers must
// not modify them.
func (r *SparseResult) TimesAndWeights() ([]float64, []float64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.flatLocked()
}

// DDFsBefore counts events at or before t across all groups — a binary
// search over the cached flat times, O(log E) after the first call.
func (r *SparseResult) DDFsBefore(t float64) int {
	ts := r.Times()
	// First index with ts[i] > t == count of events at or before t.
	return sort.Search(len(ts), func(i int) bool { return ts[i] > t })
}

// GroupsWithDDF counts the groups that produced at least one data-loss
// event — the Bernoulli numerator of the campaign stopping rule — in one
// pass over the sparse index, never touching the empty groups.
// Unavailability-only groups do not count.
func (r *SparseResult) GroupsWithDDF() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	n, last := 0, -1
	for _, e := range r.Events {
		if e.Cause == CauseUnavail {
			continue
		}
		if e.Group != last {
			n++
			last = e.Group
		}
	}
	return n
}

// GroupsWithUnavail counts the groups that entered at least one
// data-unavailability episode. Always 0 for flat runs.
func (r *SparseResult) GroupsWithUnavail() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	n, last := 0, -1
	for _, e := range r.Events {
		if e.Cause != CauseUnavail {
			continue
		}
		if e.Group != last {
			n++
			last = e.Group
		}
	}
	return n
}

// WeightedUnavailTotal returns the importance-weighted unavailability
// onset-event total: each onset counts its group's weight exp(LogW), the
// plain count for unbiased runs.
func (r *SparseResult) WeightedUnavailTotal() float64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	total := 0.0
	for _, e := range r.Events {
		if e.Cause == CauseUnavail {
			total += math.Exp(e.LogW)
		}
	}
	return total
}

// GroupWeights returns each event-bearing group's importance-sampling
// weight exp(LogW), in group order — the nonzero observations of the
// weighted estimator p̂ = (1/n)·ΣW over groups with a DDF (every empty
// group contributes an exact zero). For an unbiased result this is a slice
// of ones.
func (r *SparseResult) GroupWeights() []float64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	var ws []float64
	last := -1
	for _, e := range r.Events {
		if e.Cause == CauseUnavail {
			continue
		}
		if e.Group != last {
			ws = append(ws, math.Exp(e.LogW))
			last = e.Group
		}
	}
	return ws
}

// GroupCounts returns, for each group with at least one event at or before
// t, that group's weighted event count — the raw count times the group's
// importance-sampling weight, which is the raw count itself for unbiased
// runs (weight exactly 1). The implied remaining Groups-len(counts) groups
// all count zero. Cost is O(events), independent of Groups.
func (r *SparseResult) GroupCounts(t float64) []float64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	var counts []float64
	cur, n := -1, 0
	w := 1.0
	flush := func() {
		if cur >= 0 && n > 0 {
			counts = append(counts, float64(n)*w)
		}
	}
	for _, e := range r.Events {
		if e.Group != cur {
			flush()
			cur, n = e.Group, 0
			w = math.Exp(e.LogW)
		}
		if e.Cause != CauseUnavail && e.Time <= t {
			n++
		}
	}
	flush()
	return counts
}

// WeightedCauseTotals returns the importance-weighted event totals overall
// and split by cause: each event counts its group's weight exp(LogW). For
// an unbiased result the sums of exact 1.0s equal the integer tallies.
func (r *SparseResult) WeightedCauseTotals() (total, opop, ldop float64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	for _, e := range r.Events {
		if e.Cause == CauseUnavail {
			continue
		}
		w := math.Exp(e.LogW)
		total += w
		switch e.Cause {
		case CauseOpOp:
			opop += w
		case CauseLdOp:
			ldop += w
		}
	}
	return total, opop, ldop
}

package sim

import (
	"fmt"
	"math"
	"sort"

	"raidrel/internal/rng"
)

// maxFleetDrives bounds Groups*Drives: beyond ~10⁸ drive slots the
// per-slot state alone exceeds any sensible memory budget, so larger
// products are configuration errors (typos, unit confusion), not
// workloads.
const maxFleetDrives = 1 << 27

// FleetOptions describes several RAID groups operated together — a shelf,
// rack, or data-center fleet — coupled through shared repair resources: an
// optional fleet-wide spare pool and an optional bound on concurrent
// rebuilds. Groups are otherwise independent copies of one group Config: a
// DDF requires coincident events within one group. The runner, campaigns,
// and the service layer carry it alongside that Config; the JSON form is
// the wire/checkpoint representation.
type FleetOptions struct {
	// Groups is the number of RAID groups operated together.
	Groups int `json:"groups"`
	// SharedSpares optionally bounds the fleet-wide spare pool; nil means
	// a spare is always available.
	SharedSpares *SparePolicy `json:"shared_spares,omitempty"`
	// MaxConcurrentRebuilds caps how many rebuilds run at once across the
	// whole fleet — the shared repair-bandwidth bound. 0 means unlimited
	// (every rebuild starts as soon as its spare is available). Queued
	// rebuilds wait in the heal queue, most-degraded group first
	// (failed-drive count, then oldest failure).
	MaxConcurrentRebuilds int `json:"max_concurrent_rebuilds,omitempty"`
}

// Validate checks the fleet description for groups configured as group,
// whose own Spares field must be nil: sparing is fleet-level here.
func (o FleetOptions) Validate(group Config) error {
	if o.Groups < 1 {
		return fmt.Errorf("sim: fleet needs >= 1 group, got %d", o.Groups)
	}
	if o.MaxConcurrentRebuilds < 0 {
		return fmt.Errorf("sim: fleet max concurrent rebuilds must be >= 0 (0 = unlimited), got %d", o.MaxConcurrentRebuilds)
	}
	if group.Spares != nil {
		return fmt.Errorf("sim: fleet groups must not carry their own spare pools; use SharedSpares")
	}
	if group.Bias.Enabled() {
		return fmt.Errorf("sim: fleet simulation does not support importance sampling (no weight channel in its output)")
	}
	if group.VR.Enabled() {
		return fmt.Errorf("sim: fleet simulation does not support variance reduction; it runs on the fleet event engine only")
	}
	if group.Topology.Coupled() {
		return fmt.Errorf("sim: fleet simulation does not support coupled component topologies; use EventEngine on a single group")
	}
	if err := group.Validate(); err != nil {
		return err
	}
	// Guard the total slot count before anything sizes state off it: an
	// int overflow would wrap silently, and an absurd product would OOM
	// long before the first event.
	if o.Groups > math.MaxInt/group.Drives {
		return fmt.Errorf("sim: fleet size overflows: %d groups x %d drives exceeds the addressable slot count", o.Groups, group.Drives)
	}
	if total := o.Groups * group.Drives; total > maxFleetDrives {
		return fmt.Errorf("sim: fleet of %d groups x %d drives = %d slots exceeds the %d-slot limit; shard the fleet across chronologies instead", o.Groups, group.Drives, total, maxFleetDrives)
	}
	return o.SharedSpares.Validate()
}

// FleetStats is the heal-backlog telemetry of one fleet chronology — the
// first-class output alongside the per-group DDFs. A rebuild request is
// "queued" from the failure instant until its rebuild starts (covering
// both spare-pool waits and repair-slot waits), so the conservation
// invariant Failures == Rebuilds + ActiveAtEnd + QueuedAtEnd holds at
// mission end.
type FleetStats struct {
	// Failures counts drive failures within the mission.
	Failures int
	// Rebuilds counts rebuilds completed within the mission.
	Rebuilds int
	// ActiveAtEnd is the number of rebuilds still running at mission end.
	ActiveAtEnd int
	// QueuedAtEnd is the number of failures still waiting (for a spare or
	// a repair slot) at mission end.
	QueuedAtEnd int
	// Waited counts rebuilds that spent any time queued before starting.
	Waited int
	// TotalWaitHours sums every rebuild's failure-to-start wait.
	TotalWaitHours float64
	// MaxWaitHours is the longest single failure-to-start wait.
	MaxWaitHours float64
	// MaxQueueDepth is the peak number of simultaneously waiting failures.
	MaxQueueDepth int
	// MeanQueueDepth is the time-averaged queue depth over the mission.
	MeanQueueDepth float64
	// MaxExposureHours is the longest any group stayed degraded (>= 1
	// failed drive) — the fleet's worst exposure window.
	MaxExposureHours float64
	// GroupWaitHours, when pre-sized to Groups by the caller, accumulates
	// each group's total rebuild wait hours; left untouched otherwise so
	// million-group callers pay nothing for it.
	GroupWaitHours []float64
}

// healReq is one waiting rebuild in the heal queue. Ordering is
// most-degraded group first (level = the group's failed-drive count,
// descending), then oldest failure, then enqueue order. gen implements
// lazy deletion: a group's level change re-pushes its waiting requests
// under a bumped gen, leaving the stale entries to be skipped at pop.
type healReq struct {
	failTime float64
	seq      int64
	slot     int32
	gen      int32
	level    int32
}

// healBefore orders the heal heap: higher degradation first, then earlier
// failure, then earlier enqueue. (failTime, seq) is a total order within a
// run, so pop order is deterministic.
func healBefore(a, b *healReq) bool {
	if a.level != b.level {
		return a.level > b.level
	}
	if a.failTime != b.failTime {
		return a.failTime < b.failTime
	}
	return a.seq < b.seq
}

// healHeap is a value-based binary heap of healReq, built like eventQueue
// (hole sifts, reusable backing array, zero steady-state allocation).
type healHeap struct {
	hs []healReq
}

func (h *healHeap) reset() { h.hs = h.hs[:0] }

func (h *healHeap) Len() int { return len(h.hs) }

func (h *healHeap) push(e healReq) {
	h.hs = append(h.hs, e)
	hs := h.hs
	i := len(hs) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if !healBefore(&e, &hs[parent]) {
			break
		}
		hs[i] = hs[parent]
		i = parent
	}
	hs[i] = e
}

func (h *healHeap) pop() healReq {
	hs := h.hs
	top := hs[0]
	n := len(hs) - 1
	last := hs[n]
	h.hs = hs[:n]
	i := 0
	for {
		c := 2*i + 1
		if c >= n {
			break
		}
		if r := c + 1; r < n && healBefore(&hs[r], &hs[c]) {
			c = r
		}
		if !healBefore(&hs[c], &last) {
			break
		}
		hs[i] = hs[c]
		i = c
	}
	if n > 0 {
		hs[i] = last
	}
	return top
}

// evIdxSort orders the event-index permutation by (group, original
// position) — equivalent to a stable sort by group, because events were
// appended in time order. A persistent sort.Interface value keeps large
// chronologies free of the sort.SliceStable closure allocations.
type evIdxSort struct {
	groups []int32
	idx    []int32
}

func (s *evIdxSort) Len() int { return len(s.idx) }
func (s *evIdxSort) Less(a, b int) bool {
	ga, gb := s.groups[s.idx[a]], s.groups[s.idx[b]]
	if ga != gb {
		return ga < gb
	}
	return s.idx[a] < s.idx[b]
}
func (s *evIdxSort) Swap(a, b int) { s.idx[a], s.idx[b] = s.idx[b], s.idx[a] }

// SimulateFleetInto runs one chronology of the whole fleet: opts.Groups
// copies of group, the many-group driver of the chronology core
// EventEngine also drives. Group g draws every sample from its own RNG
// stream baseStream+g of seed — the same stream iteration Offset+i uses in
// the scalar runner — so with unlimited repair slots and nil shared spares
// each group's chronology is bit-identical to an independent EventEngine
// run on that stream, and a one-group fleet with shared spares to an
// EventEngine run with the same policy as group.Spares. Shared spares or a
// finite MaxConcurrentRebuilds couple the groups through the repair
// server: a failure burst in one group can starve another group's rebuild,
// stretching its exposure window.
//
// visit is called once per event-bearing group, in ascending group order,
// with that group's DDFs in chronological order. The slice is scratch
// backing reused across calls: callers must copy anything they keep.
// Event-free groups (the overwhelming majority in the rare-event regime)
// get no call. st, when non-nil, receives the chronology's heal-backlog
// statistics; pre-size st.GroupWaitHours to opts.Groups to also collect
// per-group wait hours.
func SimulateFleetInto(group Config, opts FleetOptions, seed, baseStream uint64, visit func(group int, ddfs []DDF), st *FleetStats) error {
	if err := opts.Validate(group); err != nil {
		return err
	}
	c := chronPool.Get().(*chronology)
	c.reset(&group, opts.Groups, opts.SharedSpares, opts.MaxConcurrentRebuilds)
	c.fleet, c.ddfs = true, c.fleetDDFs[:0]
	if cap(c.rngs) < opts.Groups {
		c.rngs = make([]rng.RNG, opts.Groups)
	}
	c.rngs = c.rngs[:opts.Groups]
	for g := range c.rngs {
		c.rngs[g].SeedStream(seed, baseStream+uint64(g))
	}
	if st != nil && len(st.GroupWaitHours) == opts.Groups {
		c.groupWait = st.GroupWaitHours
		clear(c.groupWait)
	}
	c.run()
	c.fleetDDFs = c.ddfs
	if st != nil {
		// Close the open accounting windows at mission end.
		mission := group.Mission
		c.noteDepth(mission, 0)
		for g, n := range c.failedCount {
			if dur := mission - c.degradedSince[g]; n > 0 && dur > c.maxExposure {
				c.maxExposure = dur
			}
		}
		*st = FleetStats{
			Failures:         c.failures,
			Rebuilds:         c.rebuilds,
			ActiveAtEnd:      c.active,
			QueuedAtEnd:      c.depth,
			Waited:           c.waited,
			TotalWaitHours:   c.totalWait,
			MaxWaitHours:     c.maxWait,
			MaxQueueDepth:    c.maxDepth,
			MeanQueueDepth:   c.depthI / mission,
			MaxExposureHours: c.maxExposure,
			GroupWaitHours:   st.GroupWaitHours,
		}
	}
	if visit != nil {
		c.visitEvents(visit)
	}
	c.release()
	chronPool.Put(c)
	return nil
}

// visitEvents delivers the recorded DDFs group by group, ascending, each
// group's events in chronological order. The per-group slices alias the
// reused visit buffer.
func (c *chronology) visitEvents(visit func(group int, ddfs []DDF)) {
	n := len(c.evGroup)
	if n == 0 {
		return
	}
	idx := c.evIdx[:0]
	for i := 0; i < n; i++ {
		idx = append(idx, int32(i))
	}
	c.evIdx = idx
	if n <= 32 {
		// Stable insertion sort by group; events were appended in time
		// order, so within-group order survives.
		for i := 1; i < n; i++ {
			v := idx[i]
			gv := c.evGroup[v]
			j := i - 1
			for ; j >= 0 && c.evGroup[idx[j]] > gv; j-- {
				idx[j+1] = idx[j]
			}
			idx[j+1] = v
		}
	} else {
		c.evSort.groups, c.evSort.idx = c.evGroup, idx
		sort.Sort(&c.evSort)
		c.evSort.groups, c.evSort.idx = nil, nil
	}
	buf := c.visitBuf[:0]
	for i := 0; i < n; {
		grp := c.evGroup[idx[i]]
		buf = buf[:0]
		j := i
		for ; j < n && c.evGroup[idx[j]] == grp; j++ {
			buf = append(buf, c.ddfs[idx[j]])
		}
		visit(int(grp), buf)
		i = j
	}
	c.visitBuf = buf[:0]
}

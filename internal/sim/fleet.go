package sim

import (
	"fmt"
	"math"
	"sort"
	"sync"

	"raidrel/internal/rng"
)

// maxFleetDrives bounds Groups*Drives: beyond ~10⁸ drive slots the
// per-slot state alone exceeds any sensible memory budget, so larger
// products are configuration errors (typos, unit confusion), not
// workloads.
const maxFleetDrives = 1 << 27

// FleetOptions is the fleet-level configuration carried alongside a group
// Config by the runner, campaigns, and the service layer: how many groups
// share one chronology, the shared spare pool, and the repair-bandwidth
// bound. The JSON form is the wire/checkpoint representation.
type FleetOptions struct {
	// Groups is the number of RAID groups operated together.
	Groups int `json:"groups"`
	// SharedSpares optionally bounds the fleet-wide spare pool; nil means
	// a spare is always available.
	SharedSpares *SparePolicy `json:"shared_spares,omitempty"`
	// MaxConcurrentRebuilds caps how many rebuilds run at once across the
	// whole fleet — the shared repair-bandwidth bound. 0 means unlimited
	// (every rebuild starts as soon as its spare is available). Queued
	// rebuilds wait in the heal queue, most-degraded group first.
	MaxConcurrentRebuilds int `json:"max_concurrent_rebuilds,omitempty"`
}

// Config combines the options with a per-group configuration.
func (o *FleetOptions) Config(group Config) FleetConfig {
	if o == nil {
		return FleetConfig{Groups: 1, Group: group}
	}
	return FleetConfig{
		Groups:                o.Groups,
		Group:                 group,
		SharedSpares:          o.SharedSpares,
		MaxConcurrentRebuilds: o.MaxConcurrentRebuilds,
	}
}

// FleetConfig describes several RAID groups operated together — a shelf,
// rack, or data-center fleet — coupled through shared repair resources: an
// optional fleet-wide spare pool and an optional bound on concurrent
// rebuilds. Groups are otherwise independent: a DDF requires coincident
// events within one group.
type FleetConfig struct {
	// Groups is the number of RAID groups.
	Groups int
	// Group is the per-group configuration. Its own Spares field must be
	// nil; sparing is fleet-level here.
	Group Config
	// SharedSpares optionally bounds the fleet-wide spare pool; nil means
	// a spare is always available.
	SharedSpares *SparePolicy
	// MaxConcurrentRebuilds caps concurrent rebuilds fleet-wide; 0 means
	// unlimited. When the cap binds, waiting rebuilds are granted to the
	// most-degraded group first (failed-drive count, then oldest failure).
	MaxConcurrentRebuilds int
}

// Validate checks the fleet description.
func (f FleetConfig) Validate() error {
	if f.Groups < 1 {
		return fmt.Errorf("sim: fleet needs >= 1 group, got %d", f.Groups)
	}
	if f.MaxConcurrentRebuilds < 0 {
		return fmt.Errorf("sim: fleet max concurrent rebuilds must be >= 0 (0 = unlimited), got %d", f.MaxConcurrentRebuilds)
	}
	if f.Group.Spares != nil {
		return fmt.Errorf("sim: fleet groups must not carry their own spare pools; use SharedSpares")
	}
	if f.Group.Bias.Enabled() {
		return fmt.Errorf("sim: fleet simulation does not support importance sampling (no weight channel in its output)")
	}
	if f.Group.VR.Enabled() {
		return fmt.Errorf("sim: fleet simulation does not support variance reduction; it runs on the fleet event engine only")
	}
	if f.Group.Topology.Coupled() {
		return fmt.Errorf("sim: fleet simulation does not support coupled component topologies; use EventEngine on a single group")
	}
	if err := f.Group.Validate(); err != nil {
		return err
	}
	// Guard the total slot count before anything sizes state off it: an
	// int overflow would wrap silently, and an absurd product would OOM
	// long before the first event.
	if f.Groups > math.MaxInt/f.Group.Drives {
		return fmt.Errorf("sim: fleet size overflows: %d groups x %d drives exceeds the addressable slot count", f.Groups, f.Group.Drives)
	}
	if total := f.Groups * f.Group.Drives; total > maxFleetDrives {
		return fmt.Errorf("sim: fleet of %d groups x %d drives = %d slots exceeds the %d-slot limit; shard the fleet across chronologies instead", f.Groups, f.Group.Drives, total, maxFleetDrives)
	}
	return f.SharedSpares.Validate()
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

// GroupDDFs is one group's data-loss events within a fleet chronology.
type GroupDDFs struct {
	Group int
	DDFs  []DDF
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

// fleetSlot is the per-drive-slot state of the fleet engine: the event
// engine's slotState plus the repair-server bookkeeping (when the slot
// failed, the TTR drawn at failure, and its heal-queue membership).
type fleetSlot struct {
	slotState
	failTime float64
	ttr      float64
	queueSeq int64
	queueGen int32
	queued   bool
}

// fleetSim is the pooled scratch of one fleet chronology. Every slice is
// sized to the fleet once and reused, so a warmed-up worker runs
// chronologies — even 10⁵–10⁶-group ones — with zero steady-state heap
// allocations when no group produces a DDF.
type fleetSim struct {
	cfg  FleetConfig
	g    Config
	kern cfgKernels

	rngs  []rng.RNG // one independent stream per group
	slots []fleetSlot
	q     eventQueue

	// Per-group state.
	failedCount   []int32   // failed drives right now
	queuedCount   []int32   // heal-queue members right now
	suppressUntil []float64 // DDF suppression window end
	suppressSlot  []int32   // global slot whose rebuild ends the window
	degradedSince []float64 // start of the current degradation episode
	// pendTrunc holds an ld+op DDF's concomitant defect repair while the
	// failed slot's rebuild waits to start (slot -1: none pending).
	pendTrunc []pendingTrunc

	// Repair server.
	heap    healHeap
	spares  sparePool
	active  int
	depth   int
	depthT  float64
	depthI  float64 // ∫ depth dt
	reqSeq  int64
	seq     int64
	defects int64 // defect id counter

	// Backlog accumulators (copied into FleetStats at the end).
	failures, rebuilds, waited, maxDepth int
	totalWait, maxWait, maxExposure      float64
	groupWait                            []float64 // caller's buffer or nil

	// Sparse DDF accumulation: (group, DDF) pairs in event order, sorted
	// by group for the visit pass. All reused.
	evGroup  []int32
	evDDF    []DDF
	evIdx    []int32
	evSort   evIdxSort
	visitBuf []DDF
}

// pendingTrunc is the defect truncation an ld+op DDF schedules at the
// failed slot's restore: clear slot's (generation gen) defects that started
// at or before at.
type pendingTrunc struct {
	slot, gen int32
	at        float64
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

var fleetSimPool = sync.Pool{New: func() any { return new(fleetSim) }}

// release drops the references the scratch must not retain between runs
// (the configuration's distributions, the caller's wait buffer) while
// keeping every reusable backing array.
func (s *fleetSim) release() {
	s.cfg = FleetConfig{}
	s.g = Config{}
	s.kern.release()
	s.spares.reset(nil)
	s.groupWait = nil
	for i := range s.evDDF {
		s.evDDF[i] = DDF{}
	}
}

func (s *fleetSim) limited() bool { return s.cfg.MaxConcurrentRebuilds > 0 }

// pushEv schedules an event, discarding anything beyond the mission
// horizon — exactly the event engine's push, sharing one global seq across
// groups. Within a group the relative seq order matches a single-group
// run's, which is what keeps uncontended fleet groups bit-identical to
// independent EventEngine chronologies.
func (s *fleetSim) pushEv(t float64, kind eventKind, slot, gen int32, id int64, arg float64) {
	if t > s.g.Mission {
		return
	}
	s.seq++
	s.q.push(event{time: t, seq: s.seq, kind: kind, slot: slot, gen: gen, id: id, arg: arg})
}

func (s *fleetSim) scheduleOpFail(slot int, from float64, r *rng.RNG) {
	// Bias is rejected by Validate, so the per-slot kernels are always the
	// plain (untilted) ones — bit-identical to the event engine's draws.
	dt := s.kern.ttop[slot%s.g.Drives].Draw(r)
	s.pushEv(from+dt, evOpFail, int32(slot), s.slots[slot].gen, 0, 0)
}

func (s *fleetSim) scheduleDefect(slot int, from float64, r *rng.RNG) {
	if s.kern.plainTTLd {
		s.pushEv(from+s.kern.ttld.Draw(r), evDefectArrive, int32(slot), s.slots[slot].gen, 0, 0)
		return
	}
	if !s.g.Trans.latentEnabled() {
		return
	}
	// Bias is rejected by Validate, so the log ratio is always 0 here.
	t, _ := s.kern.nextDefect(&s.g, from, s.g.Mission, r)
	s.pushEv(t, evDefectArrive, int32(slot), s.slots[slot].gen, 0, 0)
}

// noteDepth advances the queue-depth time integral to t, then applies
// delta.
func (s *fleetSim) noteDepth(t float64, delta int) {
	s.depthI += float64(s.depth) * (t - s.depthT)
	s.depthT = t
	s.depth += delta
	if s.depth > s.maxDepth {
		s.maxDepth = s.depth
	}
}

// admit routes a spare-backed failed slot into the repair server at time
// t: start immediately when a rebuild slot is free, otherwise join the
// heal queue keyed by the group's current degradation level.
func (s *fleetSim) admit(slot int, t float64) {
	if s.limited() && s.active >= s.cfg.MaxConcurrentRebuilds {
		sl := &s.slots[slot]
		sl.queued = true
		s.reqSeq++
		sl.queueSeq = s.reqSeq
		g := slot / s.g.Drives
		s.queuedCount[g]++
		s.heap.push(healReq{
			level:    s.failedCount[g],
			failTime: sl.failTime,
			seq:      sl.queueSeq,
			slot:     int32(slot),
			gen:      sl.queueGen,
		})
		return
	}
	s.startRebuild(slot, t)
}

// startRebuild occupies a repair slot for the failed drive at time t and
// schedules its restore. The TTR was drawn at failure time (keeping the
// per-group RNG stream layout independent of contention); the rebuild runs
// its full TTR from the start instant.
func (s *fleetSim) startRebuild(slot int, t float64) {
	sl := &s.slots[slot]
	g := slot / s.g.Drives
	s.active++
	if wait := t - sl.failTime; wait > 0 {
		s.waited++
		s.totalWait += wait
		if wait > s.maxWait {
			s.maxWait = wait
		}
		if s.groupWait != nil {
			s.groupWait[g] += wait
		}
	}
	s.noteDepth(t, -1)
	sl.restoreEnd = t + sl.ttr
	s.pushEv(sl.restoreEnd, evOpRestore, int32(slot), sl.gen, 0, 0)
	if s.suppressSlot[g] == int32(slot) && math.IsInf(s.suppressUntil[g], 1) {
		// This rebuild ends a DDF suppression window that was left open
		// because the rebuild had not started yet (the fleet analogue of a
		// topology-paused rebuild resuming). An ld+op loss's defective
		// drive is repaired together with it, at the now-known restore.
		s.suppressUntil[g] = sl.restoreEnd
		if p := s.pendTrunc[g]; p.slot >= 0 {
			s.pushEv(sl.restoreEnd, evTruncateDefects, p.slot, p.gen, 0, p.at)
			s.pendTrunc[g].slot = -1
		}
	}
}

// grantNext hands freed repair slots to the highest-priority waiting
// rebuilds, skipping stale heap entries (lazy deletion).
func (s *fleetSim) grantNext(t float64) {
	for s.active < s.cfg.MaxConcurrentRebuilds && s.heap.Len() > 0 {
		req := s.heap.pop()
		sl := &s.slots[req.slot]
		if !sl.queued || req.gen != sl.queueGen {
			continue
		}
		sl.queued = false
		sl.queueGen++
		s.queuedCount[int(req.slot)/s.g.Drives]--
		s.startRebuild(int(req.slot), t)
	}
}

// requeueGroup re-keys group g's waiting rebuilds after its degradation
// level changed: each gets a fresh heap entry at the new level (same
// failTime and enqueue seq), and the old entry dies by gen mismatch.
func (s *fleetSim) requeueGroup(g int) {
	if s.queuedCount[g] == 0 {
		return
	}
	base := g * s.g.Drives
	for k := base; k < base+s.g.Drives; k++ {
		sl := &s.slots[k]
		if !sl.queued {
			continue
		}
		sl.queueGen++
		s.heap.push(healReq{
			level:    s.failedCount[g],
			failTime: sl.failTime,
			seq:      sl.queueSeq,
			slot:     int32(k),
			gen:      sl.queueGen,
		})
	}
}

// recordDDF appends one group-tagged data-loss event.
func (s *fleetSim) recordDDF(g int, t float64, cause Cause) {
	s.evGroup = append(s.evGroup, int32(g))
	s.evDDF = append(s.evDDF, DDF{Time: t, Cause: cause})
}

// resize prepares the scratch for a fleet of the given group count and
// group size, reusing backing arrays whenever they are large enough.
func (s *fleetSim) resize(groups, drives int) {
	total := groups * drives
	if cap(s.slots) < total {
		s.slots = make([]fleetSlot, total)
	}
	s.slots = s.slots[:total]
	for i := range s.slots {
		sl := &s.slots[i]
		sl.failed, sl.restoreEnd, sl.gen = false, 0, 0
		sl.defects = sl.defects[:0]
		sl.failTime, sl.ttr = 0, 0
		sl.queueSeq, sl.queueGen, sl.queued = 0, 0, false
	}
	if cap(s.rngs) < groups {
		s.rngs = make([]rng.RNG, groups)
	}
	s.rngs = s.rngs[:groups]
	if cap(s.failedCount) < groups {
		s.failedCount = make([]int32, groups)
		s.queuedCount = make([]int32, groups)
		s.suppressUntil = make([]float64, groups)
		s.suppressSlot = make([]int32, groups)
		s.degradedSince = make([]float64, groups)
		s.pendTrunc = make([]pendingTrunc, groups)
	}
	s.failedCount = s.failedCount[:groups]
	s.queuedCount = s.queuedCount[:groups]
	s.suppressUntil = s.suppressUntil[:groups]
	s.suppressSlot = s.suppressSlot[:groups]
	s.degradedSince = s.degradedSince[:groups]
	s.pendTrunc = s.pendTrunc[:groups]
	for g := 0; g < groups; g++ {
		s.failedCount[g], s.queuedCount[g] = 0, 0
		s.suppressUntil[g], s.suppressSlot[g], s.degradedSince[g] = 0, -1, 0
		s.pendTrunc[g].slot = -1
	}
	s.q.reset()
	s.heap.reset()
	s.seq, s.reqSeq, s.defects = 0, 0, 0
	s.active, s.depth, s.maxDepth = 0, 0, 0
	s.depthT, s.depthI = 0, 0
	s.failures, s.rebuilds, s.waited = 0, 0, 0
	s.totalWait, s.maxWait, s.maxExposure = 0, 0, 0
	s.evGroup = s.evGroup[:0]
	s.evDDF = s.evDDF[:0]
}

// SimulateFleetInto runs one chronology of the whole fleet. Group g draws
// every sample from its own RNG stream baseStream+g of seed — the same
// stream iteration Offset+i uses in the scalar runner — so with unlimited
// repair slots and nil shared spares each group's chronology is
// bit-identical to an independent EventEngine run on that stream. Shared
// spares or a finite MaxConcurrentRebuilds couple the groups through the
// repair server: a failure burst in one group can starve another group's
// rebuild, stretching its exposure window.
//
// visit is called once per event-bearing group, in ascending group order,
// with that group's DDFs in chronological order. The slice is scratch
// backing reused across calls: callers must copy anything they keep.
// Event-free groups (the overwhelming majority in the rare-event regime)
// get no call. st, when non-nil, receives the chronology's heal-backlog
// statistics; pre-size st.GroupWaitHours to cfg.Groups to also collect
// per-group wait hours.
func SimulateFleetInto(cfg FleetConfig, seed, baseStream uint64, visit func(group int, ddfs []DDF), st *FleetStats) error {
	if err := cfg.Validate(); err != nil {
		return err
	}
	s := fleetSimPool.Get().(*fleetSim)
	s.cfg, s.g = cfg, cfg.Group
	s.kern.compile(&s.g)
	s.resize(cfg.Groups, s.g.Drives)
	s.spares.reset(cfg.SharedSpares)
	if st != nil && len(st.GroupWaitHours) == cfg.Groups {
		s.groupWait = st.GroupWaitHours
		for g := range s.groupWait {
			s.groupWait[g] = 0
		}
	}
	s.run(seed, baseStream)
	if st != nil {
		gw := st.GroupWaitHours
		*st = FleetStats{
			Failures:         s.failures,
			Rebuilds:         s.rebuilds,
			ActiveAtEnd:      s.active,
			QueuedAtEnd:      s.depth,
			Waited:           s.waited,
			TotalWaitHours:   s.totalWait,
			MaxWaitHours:     s.maxWait,
			MaxQueueDepth:    s.maxDepth,
			MeanQueueDepth:   s.depthI / s.g.Mission,
			MaxExposureHours: s.maxExposure,
			GroupWaitHours:   gw,
		}
	}
	if visit != nil {
		s.visitEvents(visit)
	}
	s.release()
	fleetSimPool.Put(s)
	return nil
}

// run executes the event loop. The per-event semantics mirror
// eventSim.run exactly (lazy defect liveness, phantom scrub seqs, DDF
// suppression windows); the differences are per-group RNG streams and the
// repair server between a failure and its restore.
func (s *fleetSim) run(seed, baseStream uint64) {
	g := &s.g
	drives := g.Drives
	for grp := 0; grp < s.cfg.Groups; grp++ {
		r := &s.rngs[grp]
		r.SeedStream(seed, baseStream+uint64(grp))
		base := grp * drives
		for j := 0; j < drives; j++ {
			s.scheduleOpFail(base+j, 0, r)
			s.scheduleDefect(base+j, 0, r)
		}
	}

	for s.q.Len() > 0 {
		ev := s.q.pop()
		if ev.time > g.Mission {
			break
		}
		evSlot := int(ev.slot)
		sl := &s.slots[evSlot]
		grp := evSlot / drives
		r := &s.rngs[grp]
		switch ev.kind {
		case evOpFail:
			if ev.gen != sl.gen {
				continue
			}
			// DDF determination happens at the instant of the failure,
			// before this slot's state changes — the event engine's scan,
			// restricted to the group.
			failedOthers, defectSlot := 0, -1
			defectStart := math.Inf(1)
			base := grp * drives
			for k := base; k < base+drives; k++ {
				if k == evSlot {
					continue
				}
				o := &s.slots[k]
				switch {
				case o.failed:
					failedOthers++
				case len(o.defects) > 0:
					for i := range o.defects {
						d := &o.defects[i]
						if d.start < defectStart && defectLive(d, ev.time, ev.seq) {
							defectStart = d.start
							defectSlot = k
						}
					}
				}
			}
			sl.failed = true
			sl.gen++
			sl.defects = sl.defects[:0]
			sl.failTime = ev.time
			s.failures++
			s.noteDepth(ev.time, +1)
			s.failedCount[grp]++
			if s.failedCount[grp] == 1 {
				s.degradedSince[grp] = ev.time
			}
			// The group got more degraded: promote its waiting rebuilds.
			s.requeueGroup(grp)
			// Draw order matches the event engine: spare availability
			// first (no draw), then the TTR, then the replacement's defect
			// process — so contention never shifts a group's stream.
			rebuildFrom := s.spares.rebuildStart(ev.time)
			sl.ttr = s.kern.ttr.Draw(r)
			sl.restoreEnd = math.Inf(1)
			if rebuildFrom > ev.time {
				s.pushEv(rebuildFrom, evFleetSpare, ev.slot, sl.gen, 0, 0)
			} else {
				s.admit(evSlot, ev.time)
			}
			s.scheduleDefect(evSlot, ev.time, r)

			if ev.time >= s.suppressUntil[grp] {
				switch {
				case failedOthers >= g.Redundancy:
					s.recordDDF(grp, ev.time, CauseOpOp)
					s.suppressUntil[grp] = sl.restoreEnd
					s.suppressSlot[grp] = ev.slot
				case failedOthers == g.Redundancy-1 && defectSlot >= 0:
					s.recordDDF(grp, ev.time, CauseLdOp)
					s.suppressUntil[grp] = sl.restoreEnd
					s.suppressSlot[grp] = ev.slot
					// The defective drive is repaired together with the
					// failed one. If this rebuild is still waiting for a
					// spare or repair slot, restoreEnd is +Inf: the repair
					// is held until startRebuild knows the restore time, with
					// the defective slot's generation taken now.
					trunc := pendingTrunc{slot: int32(defectSlot), gen: s.slots[defectSlot].gen, at: ev.time}
					if math.IsInf(sl.restoreEnd, 1) {
						s.pendTrunc[grp] = trunc
					} else {
						s.pushEv(sl.restoreEnd, evTruncateDefects, trunc.slot, trunc.gen, 0, trunc.at)
					}
				}
			}

		case evOpRestore:
			if ev.gen != sl.gen {
				continue
			}
			sl.failed = false
			s.rebuilds++
			s.failedCount[grp]--
			if s.failedCount[grp] == 0 {
				if dur := ev.time - s.degradedSince[grp]; dur > s.maxExposure {
					s.maxExposure = dur
				}
			}
			s.scheduleOpFail(evSlot, ev.time, r)
			s.active--
			if s.limited() {
				// The group got less degraded: re-key its waiting rebuilds
				// before handing out the freed slot.
				s.requeueGroup(grp)
				s.grantNext(ev.time)
			}

		case evFleetSpare:
			if ev.gen != sl.gen {
				continue
			}
			s.admit(evSlot, ev.time)

		case evDefectArrive:
			if ev.gen != sl.gen {
				continue
			}
			s.defects++
			end, clearSeq := math.Inf(1), int64(math.MaxInt64)
			if g.Trans.TTScrub != nil {
				end = ev.time + s.kern.scrub.Draw(r)
				if end <= g.Mission {
					// Phantom correction, as in the untraced event engine:
					// consume the seq the queued clear event would have
					// held, so tie-break ranks match bit for bit.
					s.seq++
					clearSeq = s.seq
				}
			}
			// Compact defects that can never be live again (ended at or
			// before now): every future event has time >= ev.time and seq
			// beyond any already-assigned clearSeq, so defectLive is false
			// for them forever. Keeps per-slot lists short over a long
			// mission without perturbing any DDF decision.
			kept := sl.defects[:0]
			for i := range sl.defects {
				if sl.defects[i].end > ev.time {
					kept = append(kept, sl.defects[i])
				}
			}
			sl.defects = kept
			sl.defects = append(sl.defects, defectRec{id: s.defects, start: ev.time, end: end, clearSeq: clearSeq})
			s.scheduleDefect(evSlot, ev.time, r)

		case evTruncateDefects:
			if ev.gen != sl.gen {
				continue
			}
			kept := sl.defects[:0]
			for _, d := range sl.defects {
				if d.start > ev.arg {
					kept = append(kept, d)
				}
			}
			sl.defects = kept
		}
	}

	// Close the open accounting windows at mission end.
	s.noteDepth(g.Mission, 0)
	for grp := 0; grp < s.cfg.Groups; grp++ {
		if s.failedCount[grp] > 0 {
			if dur := g.Mission - s.degradedSince[grp]; dur > s.maxExposure {
				s.maxExposure = dur
			}
		}
	}
}

// visitEvents delivers the recorded DDFs group by group, ascending, each
// group's events in chronological order. The per-group slices alias the
// reused visit buffer.
func (s *fleetSim) visitEvents(visit func(group int, ddfs []DDF)) {
	n := len(s.evGroup)
	if n == 0 {
		return
	}
	idx := s.evIdx[:0]
	for i := 0; i < n; i++ {
		idx = append(idx, int32(i))
	}
	s.evIdx = idx
	if n <= 32 {
		// Stable insertion sort by group; events were appended in time
		// order, so within-group order survives.
		for i := 1; i < n; i++ {
			v := idx[i]
			gv := s.evGroup[v]
			j := i - 1
			for ; j >= 0 && s.evGroup[idx[j]] > gv; j-- {
				idx[j+1] = idx[j]
			}
			idx[j+1] = v
		}
	} else {
		s.evSort.groups, s.evSort.idx = s.evGroup, idx
		sort.Sort(&s.evSort)
		s.evSort.groups, s.evSort.idx = nil, nil
	}
	buf := s.visitBuf[:0]
	for i := 0; i < n; {
		grp := s.evGroup[idx[i]]
		buf = buf[:0]
		j := i
		for ; j < n && s.evGroup[idx[j]] == grp; j++ {
			buf = append(buf, s.evDDF[idx[j]])
		}
		visit(int(grp), buf)
		i = j
	}
	s.visitBuf = buf[:0]
}

// SimulateFleet runs one fleet chronology and materializes every group's
// DDF list plus the heal-backlog statistics (including per-group wait
// hours). Group g draws from RNG stream baseStream+g of seed; see
// SimulateFleetInto for the coupling semantics. Prefer SimulateFleetInto
// for large fleets — this convenience wrapper allocates O(Groups).
func SimulateFleet(cfg FleetConfig, seed, baseStream uint64) ([]GroupDDFs, FleetStats, error) {
	if err := cfg.Validate(); err != nil {
		return nil, FleetStats{}, err
	}
	result := make([]GroupDDFs, cfg.Groups)
	for i := range result {
		result[i].Group = i
	}
	st := FleetStats{GroupWaitHours: make([]float64, cfg.Groups)}
	err := SimulateFleetInto(cfg, seed, baseStream, func(g int, ddfs []DDF) {
		cp := make([]DDF, len(ddfs))
		copy(cp, ddfs)
		result[g].DDFs = cp
	}, &st)
	if err != nil {
		return nil, FleetStats{}, err
	}
	return result, st, nil
}

package sim

import (
	"math"
	"sync"

	"raidrel/internal/rng"
)

// defectRec is one latent defect on a drive, in creation order. The
// untraced core never queues the defect's scrub-correction event:
// end/clearSeq capture when (and with what tie-break rank) that event
// would have fired, and liveness is checked lazily at DDF determination —
// see defectLive. Traced runs still queue the correction so observers see
// it in time order; the lazy predicate is consistent with eager removal,
// so both paths decide every DDF identically.
type defectRec struct {
	id       int64
	start    float64
	end      float64 // scrub-correction time; +Inf when never scrubbed
	clearSeq int64   // seq the correction event holds (or would hold)
}

// defectLive reports whether the defect is uncorrected at the instant an
// event with sequence number seq occurs at time t. The tie-break term
// reproduces the eager queue's behaviour exactly: at t == end the defect
// is live only for events that would have popped before the correction.
func defectLive(d *defectRec, t float64, seq int64) bool {
	return t < d.end || (t == d.end && seq < d.clearSeq)
}

// slotState is the mutable state of one drive slot: the drive itself and
// the repair-server bookkeeping of its current failure (when it failed,
// the TTR drawn at failure, and its heal-queue membership).
//
// The fields every event touches (gen, failed, defects) lead, so a large
// fleet's cache miss on a slot fetches them in one line.
type slotState struct {
	gen        int32
	failed     bool
	queued     bool
	queueGen   int32
	grp        int32       // the slot's group
	defects    []defectRec // live defects of the current drive, creation order
	restoreEnd float64
	failTime   float64
	ttr        float64
	queueSeq   int64
}

// removeDefect deletes the defect with the given id, preserving creation
// order, and reports whether it was present.
func (s *slotState) removeDefect(id int64) bool {
	for i := range s.defects {
		if s.defects[i].id == id {
			s.defects = append(s.defects[:i], s.defects[i+1:]...)
			return true
		}
	}
	return false
}

// pendingTrunc is the defect truncation an ld+op DDF schedules at the
// failed slot's restore: clear slot's (generation gen) defects that started
// at or before at.
type pendingTrunc struct {
	slot, gen int32
	at        float64
}

// chronology is the one discrete-event core behind EventEngine,
// SimulateTraced and SimulateFleetInto: the paper's §5 DDF rules over any
// number of groups that share one event queue, one spare pool and one
// repair server. Groups draw from their own RNG streams and a DDF needs
// coincident events within one group. The scratch is pooled; every slice
// keeps its backing array across runs, so a warmed-up worker runs
// event-free chronologies without a single heap allocation.
type chronology struct {
	g    Config // the per-group configuration
	kern cfgKernels
	obs  Observer
	// fleet tags every DDF with its group (the many-group driver).
	fleet       bool
	drives      int
	maxRebuilds int // fleet-wide rebuild cap; 0 = unlimited

	// r is the one-group driver's stream, the caller's RNG; fleet runs
	// draw group g from rngs[g]. See stream.
	r             *rng.RNG
	rngs          []rng.RNG
	slots         []slotState
	q             eventQueue
	seq, defectID int64
	// logW accumulates the chronology's importance-sampling log likelihood
	// ratio; stays exactly 0 when g.Bias is disabled.
	logW float64
	// tp holds the compiled component topology; tp.topo stays nil for
	// flat configurations, which then take none of the coupled branches.
	tp topoScratch

	// Per-group state.
	suppressUntil []float64 // DDF suppression window end
	suppressSlot  []int32   // slot whose restore ends the window, or -1
	// pendTrunc holds an ld+op DDF's concomitant defect repair while the
	// failed slot's rebuild waits to start (slot -1: none pending).
	pendTrunc     []pendingTrunc
	failedCount   []int32   // failed drives right now
	queuedCount   []int32   // heal-queue members right now
	degradedSince []float64 // start of the current degradation episode

	// Repair server.
	spares sparePool
	heap   healHeap
	active int
	depth  int
	depthT float64
	depthI float64 // ∫ depth dt
	reqSeq int64

	// Backlog accumulators; the fleet driver reports them as FleetStats.
	// The one-group driver discards them (a topology-held rebuild resumes
	// without passing the server, so they do not balance there).
	failures, rebuilds, waited, maxDepth int
	totalWait, maxWait, maxExposure      float64
	groupWait                            []float64 // caller's buffer or nil

	// ddfs receives the DDFs in event order; evGroup, in fleet runs, the
	// group of each.
	ddfs    []DDF
	evGroup []int32
	// Fleet output scratch: the DDF arena ddfs points into, and the
	// visit pass's group-sorted permutation and per-group slice.
	fleetDDFs []DDF
	evIdx     []int32
	evSort    evIdxSort
	visitBuf  []DDF
}

var chronPool = sync.Pool{New: func() any { return new(chronology) }}

// reset prepares the scratch for a chronology of groups copies of cfg
// sharing the given spare policy and rebuild cap, reusing backing arrays
// whenever they are large enough. cfg must already be validated; the
// caller sets r (one group) or seeds rngs (fleet).
func (c *chronology) reset(cfg *Config, groups int, spares *SparePolicy, maxRebuilds int) {
	c.g = *cfg
	c.kern.compile(&c.g)
	c.tp.attach(&c.g)
	c.drives, c.maxRebuilds = cfg.Drives, maxRebuilds
	total := groups * cfg.Drives
	if cap(c.slots) < total {
		c.slots = make([]slotState, total)
	}
	c.slots = c.slots[:total]
	for grp := 0; grp < groups; grp++ {
		base := grp * cfg.Drives
		for i := base; i < base+cfg.Drives; i++ {
			sl := &c.slots[i]
			*sl = slotState{grp: int32(grp), defects: sl.defects[:0]}
		}
	}
	if cap(c.failedCount) < groups {
		c.failedCount = make([]int32, groups)
		c.queuedCount = make([]int32, groups)
		c.suppressUntil = make([]float64, groups)
		c.suppressSlot = make([]int32, groups)
		c.degradedSince = make([]float64, groups)
		c.pendTrunc = make([]pendingTrunc, groups)
	}
	c.failedCount = c.failedCount[:groups]
	c.queuedCount = c.queuedCount[:groups]
	c.suppressUntil = c.suppressUntil[:groups]
	c.suppressSlot = c.suppressSlot[:groups]
	c.degradedSince = c.degradedSince[:groups]
	c.pendTrunc = c.pendTrunc[:groups]
	for grp := 0; grp < groups; grp++ {
		c.failedCount[grp], c.queuedCount[grp] = 0, 0
		c.suppressUntil[grp], c.suppressSlot[grp], c.degradedSince[grp] = 0, -1, 0
		c.pendTrunc[grp].slot = -1
	}
	c.q.reset()
	c.heap.reset()
	c.spares.reset(spares)
	c.seq, c.reqSeq, c.defectID = 0, 0, 0
	c.logW = 0
	c.active, c.depth, c.maxDepth = 0, 0, 0
	c.depthT, c.depthI = 0, 0
	c.failures, c.rebuilds, c.waited = 0, 0, 0
	c.totalWait, c.maxWait, c.maxExposure = 0, 0, 0
	c.evGroup = c.evGroup[:0]
}

// release drops references the scratch must not retain between runs (the
// observer, the caller's buffers, and the distributions inside the
// configuration and the compiled kernels) while keeping the reusable
// backing arrays.
func (c *chronology) release() {
	c.g = Config{}
	c.r, c.obs, c.ddfs, c.groupWait = nil, nil, nil, nil
	c.kern.release()
	c.tp.release()
	c.spares.reset(nil)
}

// stream returns group grp's RNG. The one-group path skips the index: a
// group lookup on every draw is measurable on the single-group hot loop.
func (c *chronology) stream(grp int32) *rng.RNG {
	if c.fleet {
		return &c.rngs[grp]
	}
	return c.r
}

// recordDDF appends a DDF of group grp at time t; fleet runs also tag it
// with its group, which visitEvents uses to index the DDF arena.
func (c *chronology) recordDDF(t float64, cause Cause, grp int) {
	c.ddfs = append(c.ddfs, DDF{Time: t, Cause: cause})
	if c.fleet {
		c.evGroup = append(c.evGroup, int32(grp))
	}
}

func (c *chronology) emit(e TraceEvent) {
	if c.obs != nil {
		c.obs.Observe(e)
	}
}

// push schedules e, discarding anything beyond the mission horizon. One
// seq counter spans every group, so within a group the relative seq order
// — the tie-break on exact time ties — is the same in a fleet as in a
// single-group run.
func (c *chronology) push(e event) {
	if e.time > c.g.Mission {
		return
	}
	c.seq++
	e.seq = c.seq
	c.q.push(e)
}

func (c *chronology) scheduleOpFail(slot int, from float64) {
	sl := &c.slots[slot]
	// Under bias the likelihood ratio is censored at the residual
	// mission: push discards from+dt > Mission, i.e. dt > Mission-from.
	dt, logLR := c.kern.drawTTOp(&c.g, slot-int(sl.grp)*c.drives, from, c.stream(sl.grp))
	c.logW += logLR
	c.push(event{time: from + dt, kind: evOpFail, slot: int32(slot), grp: sl.grp, gen: sl.gen})
}

func (c *chronology) scheduleDefect(slot int, from float64) {
	sl := &c.slots[slot]
	r := c.stream(sl.grp)
	if c.kern.plainTTLd {
		// Plain renewal defects: no likelihood-ratio bookkeeping.
		c.push(event{time: from + c.kern.ttld.Draw(r), kind: evDefectArrive, slot: int32(slot), grp: sl.grp, gen: sl.gen})
		return
	}
	if c.g.Trans.TTLd == nil {
		return
	}
	// Tilted renewal defects, the likelihood ratio censored at the
	// mission: push discards arrivals beyond it.
	dt, logLR := c.kern.ttldTilt.DrawLR(c.g.Mission-from, r)
	c.logW += logLR
	c.push(event{time: from + dt, kind: evDefectArrive, slot: int32(slot), grp: sl.grp, gen: sl.gen})
}

// run executes the chronology: it schedules every slot's first failure
// and defect (group by group, slot by slot, each from its group's stream),
// then every component path instance's first failure, and pops the event
// queue until the mission ends.
func (c *chronology) run() {
	for i := range c.slots {
		c.scheduleOpFail(i, 0)
		c.scheduleDefect(i, 0)
	}
	if c.tp.topo != nil {
		// Component path instances schedule after every drive slot, so the
		// drive draws (and their stream positions) match the flat model's
		// exactly; component draws are never tilted under bias.
		for inst, comp := range c.tp.instComp {
			c.push(event{time: c.tp.ttopK[comp].Draw(c.stream(0)), kind: evCompFail, slot: int32(inst)})
		}
	}

	for c.q.Len() > 0 {
		ev := c.q.pop()
		if ev.time > c.g.Mission {
			break
		}
		switch ev.kind {
		case evCompFail:
			// Component events index path instances, not drive slots.
			c.compFail(ev)
			continue
		case evCompRestore:
			c.compRestore(ev)
			continue
		}
		sl := &c.slots[ev.slot]
		if ev.gen != sl.gen {
			continue
		}
		switch ev.kind {
		case evOpFail:
			c.opFail(ev, sl)
		case evOpRestore:
			c.opRestore(ev, sl)
		case evSpare:
			c.admit(int(ev.slot), ev.time)
		case evDefectArrive:
			// Defect events are the bulk of every chronology; their
			// handlers run inline.
			c.defectID++
			c.emit(TraceEvent{Time: ev.time, Kind: TraceDefect, Slot: int(ev.slot)})
			end, clearSeq := math.Inf(1), int64(math.MaxInt64)
			if c.g.Trans.TTScrub != nil {
				end = ev.time + c.kern.scrub.Draw(c.stream(ev.grp))
				if end <= c.g.Mission {
					if c.obs != nil {
						// Traced runs queue the correction so the
						// observer sees TraceScrub in time order.
						c.push(event{time: end, kind: evDefectClear, slot: ev.slot, grp: ev.grp, gen: sl.gen, id: c.defectID})
					} else {
						// Phantom correction: consume the seq the queued
						// event would have held, so every later event's
						// tie-break rank — and therefore pop order on
						// exact time ties — matches the traced path bit
						// for bit.
						c.seq++
					}
					clearSeq = c.seq
				}
			}
			// Compact defects that can never be live again (ended at or
			// before now): every existing defect's clearSeq is below
			// this arrival's seq (each arrival is queued after the
			// previous defect's correction), so defectLive is false for
			// them at every future event; traced runs have already
			// removed them. Keeps per-slot lists short over a long
			// mission without perturbing any DDF decision.
			kept := sl.defects[:0]
			for i := range sl.defects {
				if sl.defects[i].end > ev.time {
					kept = append(kept, sl.defects[i])
				}
			}
			sl.defects = append(kept, defectRec{id: c.defectID, start: ev.time, end: end, clearSeq: clearSeq})
			c.scheduleDefect(int(ev.slot), ev.time)
		case evDefectClear:
			if sl.removeDefect(ev.id) {
				c.emit(TraceEvent{Time: ev.time, Kind: TraceScrub, Slot: int(ev.slot)})
			}
		case evTruncateDefects:
			kept := sl.defects[:0]
			for _, d := range sl.defects {
				if d.start <= ev.arg {
					c.emit(TraceEvent{Time: ev.time, Kind: TraceScrub, Slot: int(ev.slot)})
				} else {
					kept = append(kept, d)
				}
			}
			sl.defects = kept
		}
	}
	// Every tilted draw contributes to logW, including those later voided
	// by generation checks or left pending at mission end: the weight of a
	// sequentially sampled path is the product over all draws actually
	// made under the biased measure (the draws define the path's density,
	// whether or not the chronology ends up using them).
}

// opFail processes a drive's operational failure: DDF determination at
// the failure instant, then the replacement's rebuild request and defect
// process.
func (c *chronology) opFail(ev event, sl *slotState) {
	slot, grp := int(ev.slot), int(ev.grp)
	r := c.stream(ev.grp)
	// DDF determination happens at the instant of the failure, before this
	// slot's state changes, over the failing slot's group only.
	failedOthers, defectSlot := 0, -1
	defectStart := math.Inf(1)
	base := grp * c.drives
	for k := base; k < base+c.drives; k++ {
		if k == slot {
			continue
		}
		o := &c.slots[k]
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
	c.emit(TraceEvent{Time: ev.time, Kind: TraceOpFail, Slot: slot})
	// The failure itself: old drive out, replacement in; its data (and
	// latent defects) are gone, and defect generation on the replacement
	// starts immediately (write errors during rebuild are possible but do
	// not themselves constitute a DDF).
	sl.failed = true
	sl.gen++
	sl.defects = sl.defects[:0]
	sl.failTime = ev.time
	c.failures++
	c.noteDepth(ev.time, +1)
	c.failedCount[grp]++
	if c.failedCount[grp] == 1 {
		c.degradedSince[grp] = ev.time
	}
	// The group got more degraded: promote its waiting rebuilds.
	c.requeueGroup(grp)
	// Draw order is fixed — spare availability (no draw), the TTR, then
	// the replacement's defect process — so neither a spare wait, a
	// repair-slot wait nor a component outage shifts a group's stream.
	rebuildFrom := c.spares.rebuildStart(ev.time)
	sl.ttr = c.kern.ttr.Draw(r)
	sl.restoreEnd = math.Inf(1)
	switch {
	case c.tp.topo != nil && c.tp.inacc[slot] > 0:
		// The slot is inaccessible: the rebuild is held (full TTR
		// pending) until a covering component repair restores access.
		c.tp.paused[slot] = true
		c.tp.pending[slot] = sl.ttr
	case rebuildFrom > ev.time:
		// The rebuild waits for a replacement drive to arrive.
		c.push(event{time: rebuildFrom, kind: evSpare, slot: ev.slot, grp: ev.grp, gen: sl.gen})
	default:
		c.admit(slot, ev.time)
	}
	c.scheduleDefect(slot, ev.time)

	lossRecorded := false
	if ev.time >= c.suppressUntil[grp] {
		var cause Cause
		switch {
		case failedOthers >= c.g.Redundancy:
			cause = CauseOpOp
		case failedOthers == c.g.Redundancy-1 && defectSlot >= 0:
			cause = CauseLdOp
		}
		if cause != 0 {
			c.recordDDF(ev.time, cause, grp)
			c.emit(TraceEvent{Time: ev.time, Kind: TraceDDF, Slot: slot, Cause: cause})
			lossRecorded = true
			// Once a DDF has occurred, another cannot occur until this
			// rebuild completes; a rebuild still waiting to start leaves
			// the window open (+Inf) until restoreAt closes it.
			c.suppressUntil[grp] = sl.restoreEnd
			c.suppressSlot[grp] = ev.slot
		}
		if cause == CauseLdOp {
			// The defective drive is repaired together with the failed
			// one: its pre-existing defects clear at the same restore. A
			// rebuild still waiting to start holds the repair until
			// restoreAt knows the restore time; the defective slot's
			// generation is taken now.
			trunc := pendingTrunc{slot: int32(defectSlot), gen: c.slots[defectSlot].gen, at: ev.time}
			if math.IsInf(sl.restoreEnd, 1) {
				c.pendTrunc[grp] = trunc
			} else {
				c.push(event{time: sl.restoreEnd, kind: evTruncateDefects, slot: trunc.slot, grp: ev.grp, gen: trunc.gen, arg: trunc.at})
			}
		}
	}
	if c.tp.topo != nil {
		c.noteAvail(ev.time, lossRecorded)
	}
}

// opRestore completes a slot's rebuild.
func (c *chronology) opRestore(ev event, sl *slotState) {
	slot, grp := int(ev.slot), int(ev.grp)
	if c.tp.topo != nil && ev.id != c.tp.restoreID[slot] {
		// This rebuild was paused by a component outage after the event
		// was queued; its resumption is (or will be) rescheduled under a
		// fresh restore id.
		return
	}
	sl.failed = false
	c.emit(TraceEvent{Time: ev.time, Kind: TraceOpRestore, Slot: slot})
	c.rebuilds++
	c.failedCount[grp]--
	if c.failedCount[grp] == 0 {
		if dur := ev.time - c.degradedSince[grp]; dur > c.maxExposure {
			c.maxExposure = dur
		}
	}
	// The replacement's operational life is measured from restore
	// completion (the paper's alternating TTF/TTR chronology).
	c.scheduleOpFail(slot, ev.time)
	c.active--
	if c.maxRebuilds > 0 {
		// The group got less degraded: re-key its waiting rebuilds before
		// handing out the freed repair slot.
		c.requeueGroup(grp)
		c.grantNext(ev.time)
	}
	if c.tp.topo != nil {
		c.noteAvail(ev.time, false)
	}
}

// restoreAt gives slot's rebuild its restore time end. Every rebuild start
// — immediate, on a spare arrival or heal-queue grant, or on a topology
// resume — goes through it: it queues the restore, and when the rebuild
// owns a DDF suppression window left open (+Inf) because it had not
// started, it closes the window at end and releases the pending ld+op
// concomitant repair to the same instant.
func (c *chronology) restoreAt(slot int, end float64) {
	sl := &c.slots[slot]
	sl.restoreEnd = end
	var id int64
	if c.tp.topo != nil {
		id = c.tp.restoreID[slot]
	}
	c.push(event{time: end, kind: evOpRestore, slot: int32(slot), grp: sl.grp, gen: sl.gen, id: id})
	grp := sl.grp
	if c.suppressSlot[grp] == int32(slot) && math.IsInf(c.suppressUntil[grp], 1) {
		c.suppressUntil[grp] = end
		if p := c.pendTrunc[grp]; p.slot >= 0 {
			c.push(event{time: end, kind: evTruncateDefects, slot: p.slot, grp: grp, gen: p.gen, arg: p.at})
			c.pendTrunc[grp].slot = -1
		}
	}
}

// noteDepth advances the queue-depth time integral to t, then applies
// delta.
func (c *chronology) noteDepth(t float64, delta int) {
	c.depthI += float64(c.depth) * (t - c.depthT)
	c.depthT = t
	c.depth += delta
	if c.depth > c.maxDepth {
		c.maxDepth = c.depth
	}
}

// admit routes a spare-backed failed slot into the repair server at time
// t: start immediately when a rebuild slot is free, otherwise join the
// heal queue keyed by the group's current degradation level.
func (c *chronology) admit(slot int, t float64) {
	if c.maxRebuilds > 0 && c.active >= c.maxRebuilds {
		sl := &c.slots[slot]
		sl.queued = true
		c.reqSeq++
		sl.queueSeq = c.reqSeq
		c.queuedCount[sl.grp]++
		c.heap.push(healReq{
			level:    c.failedCount[sl.grp],
			failTime: sl.failTime,
			seq:      sl.queueSeq,
			slot:     int32(slot),
			gen:      sl.queueGen,
		})
		return
	}
	c.startRebuild(slot, t)
}

// startRebuild occupies a repair slot for the failed drive at time t. The
// TTR was drawn at failure time (keeping the per-group RNG stream layout
// independent of contention); the rebuild runs its full TTR from the
// start instant.
func (c *chronology) startRebuild(slot int, t float64) {
	sl := &c.slots[slot]
	c.active++
	if wait := t - sl.failTime; wait > 0 {
		c.waited++
		c.totalWait += wait
		if wait > c.maxWait {
			c.maxWait = wait
		}
		if c.groupWait != nil {
			c.groupWait[sl.grp] += wait
		}
	}
	c.noteDepth(t, -1)
	c.restoreAt(slot, t+sl.ttr)
}

// grantNext hands freed repair slots to the highest-priority waiting
// rebuilds, skipping stale heap entries (lazy deletion).
func (c *chronology) grantNext(t float64) {
	for c.active < c.maxRebuilds && c.heap.Len() > 0 {
		req := c.heap.pop()
		sl := &c.slots[req.slot]
		if !sl.queued || req.gen != sl.queueGen {
			continue
		}
		sl.queued = false
		sl.queueGen++
		c.queuedCount[sl.grp]--
		c.startRebuild(int(req.slot), t)
	}
}

// requeueGroup re-keys group grp's waiting rebuilds after its degradation
// level changed: each gets a fresh heap entry at the new level (same
// failTime and enqueue seq), and the old entry dies by gen mismatch.
func (c *chronology) requeueGroup(grp int) {
	if c.queuedCount[grp] == 0 {
		return
	}
	base := grp * c.drives
	for k := base; k < base+c.drives; k++ {
		sl := &c.slots[k]
		if !sl.queued {
			continue
		}
		sl.queueGen++
		c.heap.push(healReq{
			level:    c.failedCount[grp],
			failTime: sl.failTime,
			seq:      sl.queueSeq,
			slot:     int32(k),
			gen:      sl.queueGen,
		})
	}
}

// compFail processes a component path instance's failure. Instances
// alternate between service and repair like drives do; the covered slots
// flip accessibility only when the whole component — all of its path
// instances — is down.
//
// The topology handlers (compFail, compRestore, noteAvail) assume the
// one-group driver: component draws come from group 0's stream and the
// availability state and suppression window are group 0's.
// FleetOptions.Validate rejects coupled topologies, so no fleet reaches
// them.
func (c *chronology) compFail(ev event) {
	tp := &c.tp
	comp, nowDown := tp.compFail(int(ev.slot))
	c.emit(TraceEvent{Time: ev.time, Kind: TraceCompFail, Slot: comp})
	c.push(event{time: ev.time + tp.ttrK[comp].Draw(c.stream(0)), kind: evCompRestore, slot: ev.slot})
	if !nowDown {
		return
	}
	for _, d := range tp.topo.Components[comp].Drives {
		tp.inacc[d]++
		if tp.inacc[d] != 1 {
			continue
		}
		if tp.pauseSlot(&c.slots[d], d, ev.time) && c.suppressSlot[0] == int32(d) && ev.time < c.suppressUntil[0] {
			// The paused rebuild is the one ending the current DDF
			// suppression window; it now ends when the rebuild eventually
			// resumes and completes.
			c.suppressUntil[0] = math.Inf(1)
		}
	}
	c.noteAvail(ev.time, false)
}

// compRestore processes a component path instance's repair; when its
// component comes back up, held rebuilds of slots it made inaccessible
// resume with their pending repair hours.
func (c *chronology) compRestore(ev event) {
	tp := &c.tp
	comp, wasDown := tp.compRestore(int(ev.slot))
	c.emit(TraceEvent{Time: ev.time, Kind: TraceCompRestore, Slot: comp})
	c.push(event{time: ev.time + tp.ttopK[comp].Draw(c.stream(0)), kind: evCompFail, slot: ev.slot})
	if !wasDown {
		return
	}
	for _, d := range tp.topo.Components[comp].Drives {
		tp.inacc[d]--
		if tp.inacc[d] != 0 || !tp.paused[d] {
			continue
		}
		tp.paused[d] = false
		c.restoreAt(d, ev.time+tp.pending[d])
	}
	c.noteAvail(ev.time, false)
}

// noteAvail re-evaluates group availability after a state change at time
// t: the group is unavailable while more slots than the redundancy covers
// are lost, to operational failure or component inaccessibility. The
// available→unavailable transition records a CauseUnavail onset when a
// component-inaccessible slot is involved — unless the same instant
// already recorded a data loss, which dominates. Episodes end (and the
// next onset becomes recordable) when the lost count drops back within the
// redundancy.
func (c *chronology) noteAvail(t float64, lossRecorded bool) {
	tp := &c.tp
	lost, compInvolved := tp.lost(c.slots)
	if lost <= c.g.Redundancy {
		tp.unavailable = false
		return
	}
	if tp.unavailable {
		return
	}
	tp.unavailable = true
	if compInvolved && !lossRecorded {
		c.recordDDF(t, CauseUnavail, 0)
		c.emit(TraceEvent{Time: t, Kind: TraceUnavail, Slot: -1})
	}
}

package sim

import (
	"fmt"
	"math"
	"runtime"
	"slices"
	"sync"

	"raidrel/internal/rng"
)

// RunSpec describes a Monte Carlo campaign: Iterations independent group
// chronologies, each equivalent to monitoring one fielded RAID group for
// the mission (§5: "If 10,000 simulations are needed ... it is equivalent
// to monitoring the number of DDFs for 10,000 systems over the mission
// life").
type RunSpec struct {
	Config     Config
	Iterations int
	Seed       uint64
	Workers    int    // 0 = GOMAXPROCS
	Engine     Engine // nil = DefaultEngine(Config)

	// Offset shifts the RNG stream assignment: iteration i of this run
	// draws from rng.ForStream(Seed, Offset+i). Batched campaigns use it
	// to continue a run exactly where a previous batch left off — running
	// [0,k) then [k,n) with Offset k concatenates to the same per-group
	// results as one run of n iterations.
	Offset int

	// Fleet switches the run to fleet chronologies: each dispatch
	// simulates Fleet.Groups coupled groups (shared spares, bounded repair
	// bandwidth) in one chronology via SimulateFleetInto. Iterations still
	// counts groups — it must be a multiple of Fleet.Groups, as must
	// Offset — and group i keeps drawing from stream Offset+i, so an
	// uncontended fleet run observes the exact per-group stream a scalar
	// event-engine run would. Engine must be nil; collectors implementing
	// FleetObserver additionally receive each chronology's heal-backlog
	// statistics.
	Fleet *FleetOptions
}

// unitWindow is each worker's output-channel depth in units: how far
// ahead of the in-order merge a worker may run before blocking. Units are
// hundreds of iterations (or whole fleets), so a shallow window already
// hides merge jitter.
const unitWindow = 4

// unitEv is one event-bearing iteration inside a unit, sparse because the
// overwhelming majority of iterations produce no events. The events
// themselves live in the unit's flat ddfs arena at [off, off+n) — an index
// into pooled storage, not an allocation.
type unitEv struct {
	idx int // iteration index within the unit
	off int // offset into the unit's ddfs arena
	n   int
}

// unit is one contiguous run of iterations crossing from a worker to the
// merger. Units are pooled; the per-iteration log weights, the sparse
// event index, and the flat event arena reuse their backing arrays, so once
// each reaches its high-water mark the steady state allocates nothing —
// even under an importance-sampling tilt where most iterations bear events.
type unit struct {
	logWs []float64 // one per iteration, in iteration order
	ev    []unitEv
	ddfs  []DDF // flat arena the ev entries index into
	vr    VRBlock
	ez    float64
	fleet FleetStats
	err   error
}

var unitPool = sync.Pool{New: func() any { return new(unit) }}

// recycle clears the unit for reuse, keeping every backing array at its
// high-water capacity.
func (h *unit) recycle() {
	h.logWs = h.logWs[:0]
	h.ev = h.ev[:0]
	h.ddfs = h.ddfs[:0]
	h.vr = VRBlock{}
	h.ez = 0
	h.fleet = FleetStats{}
	h.err = nil
}

// record stashes iteration idx's events in the unit's arena. ddfs is
// worker scratch reused for the next iteration, so the events are copied.
func (h *unit) record(idx int, ddfs []DDF) {
	if len(ddfs) == 0 {
		return
	}
	h.ev = append(h.ev, unitEv{idx: idx, off: len(h.ddfs), n: len(ddfs)})
	h.ddfs = append(h.ddfs, ddfs...)
}

// RunCollect executes the campaign, streaming every iteration's DDFs into
// c in strict iteration order. Iterations are dispatched in units of
// contiguous, globally aligned iterations — Fleet.Groups per fleet
// chronology, Config.VR.EffectiveBlock() otherwise — and worker w simulates
// units u ≡ w (mod workers), iteration i from RNG stream Offset+i. The
// merger round-robins the worker channels and replays each unit into
// c.Observe, forwarding the unit's VR tally to a VRBlockObserver and its
// heal-backlog statistics to a FleetObserver, so c observes exactly the
// sequence a serial loop would produce, bit-identical for any worker count,
// while peak memory stays O(workers·window) units instead of
// O(iterations). Units align to multiples of their size in global
// (Offset-shifted) iteration space, so a batch starting at a unit boundary
// continues the exact unit sequence of an unbatched run; the edge units of
// unaligned runs are clipped.
//
// Each worker reuses one RNG (reseeded per stream), one DDF buffer, and
// its engine's pooled scratch — the steady-state event-free iteration
// allocates nothing.
func RunCollect(spec RunSpec, c Collector) error {
	if err := spec.Config.Validate(); err != nil {
		return err
	}
	if spec.Iterations < 1 {
		return fmt.Errorf("sim: iterations must be >= 1, got %d", spec.Iterations)
	}
	if spec.Offset < 0 {
		return fmt.Errorf("sim: stream offset must be >= 0, got %d", spec.Offset)
	}
	size := spec.Config.VR.EffectiveBlock()
	var fc *FleetConfig
	if spec.Fleet != nil {
		if spec.Engine != nil {
			return fmt.Errorf("sim: fleet runs use the dedicated fleet engine; Engine must be nil, got %T", spec.Engine)
		}
		f := spec.Fleet.Config(spec.Config)
		if err := f.Validate(); err != nil {
			return err
		}
		if spec.Iterations%f.Groups != 0 {
			return fmt.Errorf("sim: fleet runs need iterations (%d) in whole chronologies of %d groups", spec.Iterations, f.Groups)
		}
		if spec.Offset%f.Groups != 0 {
			return fmt.Errorf("sim: fleet stream offset (%d) must be a multiple of the fleet size (%d)", spec.Offset, f.Groups)
		}
		fc, size = &f, f.Groups
	} else {
		if spec.Engine == nil {
			spec.Engine = DefaultEngine(spec.Config)
		}
		// Uniform feature gating: reject combinations the chosen engine
		// cannot express (finite spares or coupled topologies off the
		// event engine, VR off the block engine) before any worker starts.
		if err := EngineSupports(spec.Engine, spec.Config); err != nil {
			return err
		}
	}

	lo, hi := spec.Offset, spec.Offset+spec.Iterations
	u0, uLast := lo/size, (hi-1)/size
	span := func(u int) (ulo, uhi int) {
		return max(u*size, lo), min((u+1)*size, hi)
	}
	workers := spec.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	workers = min(workers, uLast-u0+1)

	// done releases workers blocked on a full channel when the merger
	// aborts early on an error.
	done := make(chan struct{})
	defer close(done)
	chans := make([]chan *unit, workers)
	for w := range chans {
		chans[w] = make(chan *unit, unitWindow)
		go func(w int, out chan<- *unit) {
			wk := newUnitWorker(&spec, fc)
			defer wk.release()
			for u := u0 + w; u <= uLast; u += workers {
				h := unitPool.Get().(*unit)
				h.recycle()
				ulo, uhi := span(u)
				h.err = wk.fill(h, ulo, uhi)
				// The merger owns h the moment it is sent (it recycles and
				// re-pools it), so latch the error before handing it off.
				failed := h.err != nil
				select {
				case out <- h:
					if failed {
						return
					}
				case <-done:
					return
				}
			}
		}(w, chans[w])
	}

	vrObs, _ := c.(VRBlockObserver)
	fleetObs, _ := c.(FleetObserver)
	for u := u0; u <= uLast; u++ {
		h := <-chans[(u-u0)%workers]
		if h.err != nil {
			return h.err
		}
		ulo, _ := span(u)
		evi := 0
		for idx, logW := range h.logWs {
			var ddfs []DDF
			if evi < len(h.ev) && h.ev[evi].idx == idx {
				e := h.ev[evi]
				ddfs = h.ddfs[e.off : e.off+e.n]
				evi++
			}
			c.Observe(ulo+idx-lo, ddfs, logW)
		}
		if spec.Config.VR.Enabled() && vrObs != nil {
			vrObs.ObserveVRBlock(size, h.ez, h.vr)
		}
		if fc != nil && fleetObs != nil {
			fleetObs.ObserveFleetChronology(size, h.fleet)
		}
		h.recycle()
		unitPool.Put(h)
	}
	return nil
}

// unitWorker is one worker's simulation state. Only the inner step differs
// by run kind: fleets simulate a whole chronology per unit, the block
// engine drives its pooled scratch through the VR stream and stratum maps,
// and every other engine calls SimulateInto once per iteration.
type unitWorker struct {
	spec *RunSpec
	fc   *FleetConfig  // fleet runs only
	sc   *blockScratch // block-engine runs only
	err  error         // block scratch preparation failure
	r    rng.RNG
	buf  []DDF
}

// newUnitWorker prepares one worker's state; a block-scratch preparation
// failure surfaces from the worker's first fill.
func newUnitWorker(spec *RunSpec, fc *FleetConfig) *unitWorker {
	wk := &unitWorker{spec: spec, fc: fc}
	if _, ok := spec.Engine.(BlockEngine); ok {
		wk.sc = blockScratchPool.Get().(*blockScratch)
		wk.err = wk.sc.prep(&spec.Config)
	}
	return wk
}

// release returns the block scratch to its pool.
func (wk *unitWorker) release() {
	if wk.sc != nil {
		wk.sc.release()
		blockScratchPool.Put(wk.sc)
	}
}

// fill simulates the global iterations [lo, hi) into h.
func (wk *unitWorker) fill(h *unit, lo, hi int) error {
	spec := wk.spec
	// A fresh unit sizes its weight column once instead of growing it.
	h.logWs = slices.Grow(h.logWs, hi-lo)
	switch {
	case wk.fc != nil:
		for g := lo; g < hi; g++ {
			h.logWs = append(h.logWs, 0)
		}
		return SimulateFleetInto(*wk.fc, spec.Seed, uint64(lo), h.record, &h.fleet)
	case wk.sc != nil:
		if wk.err != nil {
			return wk.err
		}
		wk.fillBlock(h, lo, hi)
		return nil
	}
	for g := lo; g < hi; g++ {
		wk.r.SeedStream(spec.Seed, uint64(g))
		var logW float64
		var err error
		wk.buf, logW, err = spec.Engine.SimulateInto(spec.Config, &wk.r, wk.buf[:0])
		if err != nil {
			return err
		}
		h.logWs = append(h.logWs, logW)
		h.record(g-lo, wk.buf)
	}
	return nil
}

// fillBlock is the block engine's inner step: iteration g draws from the
// VR stream map's stream (complemented for antithetic odd members) with
// its stratum armed, and with VR enabled each iteration also feeds the
// unit's block tally.
func (wk *unitWorker) fillBlock(h *unit, lo, hi int) {
	cfg := &wk.spec.Config
	vr := cfg.VR
	sc := wk.sc
	h.ez = sc.ez
	prevY := 0.0
	for g := lo; g < hi; g++ {
		stream, anti := vr.stream(g)
		wk.r.SeedStream(wk.spec.Seed, stream)
		wk.r.SetAntithetic(anti)
		j, k := vr.stratum(g)
		sc.col.reset(&wk.r, j, k)
		var logW, z float64
		wk.buf, logW, z = sc.simulateGroup(cfg, wk.buf[:0])
		h.logWs = append(h.logWs, logW)
		h.record(g-lo, wk.buf)
		if !vr.Enabled() {
			continue
		}
		wt := math.Exp(logW)
		y := 0.0
		if len(wk.buf) > 0 {
			y = wt
		}
		h.vr.Y += y
		h.vr.Z += wt * z
		h.vr.Y2 += y * y
		h.vr.N++
		if vr.Antithetic {
			if g%2 == 1 && g-1 >= lo {
				h.vr.C += prevY * y
				h.vr.P++
			}
			prevY = y
		}
	}
}

// RunSparse executes the campaign and accumulates it in sparse form —
// O(events) memory, with the 99.9%+ event-free groups costing nothing but
// their count.
func RunSparse(spec RunSpec) (*SparseResult, error) {
	res := &SparseResult{}
	if err := RunCollect(spec, res); err != nil {
		return nil, err
	}
	return res, nil
}

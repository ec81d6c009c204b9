package sim

import (
	"fmt"
	"math"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"

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

// Validate reports whether RunCollect would accept the run: a valid
// Config, at least one iteration, a non-negative offset, and an engine
// that supports every configured feature — or, for a fleet, a valid fleet
// description, no explicit engine, and iterations and offset in whole
// chronologies. It is the one home of these run-shape rules: campaigns and
// models call it to reject a run before simulating anything. Partial VR
// blocks are allowed here; campaigns round to whole ones (see Unit).
func (spec RunSpec) Validate() error {
	if err := spec.Config.Validate(); err != nil {
		return err
	}
	if spec.Iterations < 1 {
		return fmt.Errorf("sim: iterations must be >= 1, got %d", spec.Iterations)
	}
	if spec.Offset < 0 {
		return fmt.Errorf("sim: stream offset must be >= 0, got %d", spec.Offset)
	}
	f := spec.Fleet
	if f == nil {
		// The engine × feature table (gate.go) rejects a combination the
		// chosen engine cannot run before any worker starts.
		return EngineSupports(spec.Engine, spec.Config)
	}
	if spec.Engine != nil {
		return fmt.Errorf("sim: fleet runs use the dedicated fleet engine; Engine must be nil, got %T", spec.Engine)
	}
	if err := f.Validate(spec.Config); err != nil {
		return err
	}
	if spec.Iterations%f.Groups != 0 {
		return fmt.Errorf("sim: fleet runs need iterations (%d) in whole chronologies of %d groups", spec.Iterations, f.Groups)
	}
	if spec.Offset%f.Groups != 0 {
		return fmt.Errorf("sim: fleet stream offset (%d) must be a multiple of the fleet size (%d)", spec.Offset, f.Groups)
	}
	return nil
}

// Unit is the run's iteration granularity: the fleet size for a fleet
// run (one chronology simulates Fleet.Groups groups at once), the VR block
// when variance reduction is on (a split block stratifies over a partial
// quantile range and biases its block mean), and 1 otherwise. Campaigns
// cut batches, iteration budgets and shard offsets in whole units.
func (spec RunSpec) Unit() int {
	switch {
	case spec.Fleet != nil && spec.Fleet.Groups > 1:
		return spec.Fleet.Groups
	case spec.Config.VR.Enabled():
		return spec.Config.VR.EffectiveBlock()
	}
	return 1
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

// putUnit recycles h into the pool.
func putUnit(h *unit) {
	h.recycle()
	unitPool.Put(h)
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

// RunCollect executes the run as one batch, streaming every iteration's
// DDFs into c in strict iteration order: RunBatches with a single batch
// and no boundary callback.
func RunCollect(spec RunSpec, c Collector) error {
	return RunBatches(spec, spec.Iterations, c, nil)
}

// RunBatches executes the run as consecutive batches of batch iterations
// (the last one clipped to the run) on one set of workers that lives for
// the whole run, streaming every iteration's DDFs into c in strict
// iteration order. Observe indices count from 0 within each batch, so c
// sees each batch exactly as a separate RunCollect of that batch's range
// would show it. After each batch the merger calls boundary(done), done
// being the iterations completed so far, on the caller's goroutine; the
// workers keep simulating meanwhile, up to unitWindow units each. When
// boundary returns false the run stops: workers notice within one
// iteration, their speculative units are discarded unobserved, and
// RunBatches returns nil once every worker has exited and released its
// scratch. A nil boundary runs the whole range.
//
// Iterations are dispatched in units of contiguous iterations, cut at
// multiples of the unit size in global (Offset-shifted) iteration space —
// Fleet.Groups per fleet chronology, Config.VR.EffectiveBlock() otherwise —
// and at batch boundaries, so the unit sequence is exactly the one k
// separate per-batch runs would dispatch. Worker w simulates the units
// whose sequence number is w modulo the worker count, iteration i from RNG
// stream Offset+i. The merger round-robins the worker channels and replays
// each unit into c.Observe, forwarding the unit's VR tally to a
// VRBlockObserver and its heal-backlog statistics to a FleetObserver, so c
// observes exactly the sequence a serial loop would produce, bit-identical
// for any worker count, while peak memory stays O(workers·window) units
// instead of O(iterations).
//
// Each worker prepares its engine scratch once, then reuses it, one RNG
// (reseeded per stream) and one DDF buffer across every batch — the
// steady-state event-free iteration allocates nothing.
func RunBatches(spec RunSpec, batch int, c Collector, boundary func(done int) bool) error {
	if err := spec.Validate(); err != nil {
		return err
	}
	if batch < 1 {
		return fmt.Errorf("sim: batch size must be >= 1, got %d", batch)
	}
	if f := spec.Fleet; f != nil && batch%f.Groups != 0 {
		return fmt.Errorf("sim: fleet runs need batches (%d) in whole chronologies of %d groups", batch, f.Groups)
	}
	size := spec.Config.VR.EffectiveBlock()
	if spec.Fleet != nil {
		size = spec.Fleet.Groups
	} else if spec.Engine == nil {
		spec.Engine = DefaultEngine(spec.Config)
	}

	lo, hi := spec.Offset, spec.Offset+spec.Iterations
	// cut returns the end of the unit starting at ulo: the next unit
	// boundary, batch boundary or the run's end, whichever comes first.
	cut := func(ulo int) int {
		end := hi
		if u := ulo - ulo%size; end-u > size {
			end = u + size
		}
		if b := ulo - (ulo-lo)%batch; end-b > batch {
			end = b + batch
		}
		return end
	}
	workers := spec.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	// The aligned unit count is a floor on the cut one: no worker is left
	// without a unit (and a scratch prepared for nothing).
	workers = min(workers, (hi-1)/size-lo/size+1)

	// stop tells workers to abandon their current unit; done releases
	// workers blocked on a full channel. Every worker has exited by the
	// time RunBatches returns (the deferred Wait runs after both), so its
	// goroutine and engine scratch are free for the next run to reuse
	// rather than allocate anew, and the units simulated ahead of the stop
	// go back to the pool unobserved.
	var stop atomic.Bool
	var wg sync.WaitGroup
	done := make(chan struct{})
	chans := make([]chan *unit, workers)
	defer func() {
		stop.Store(true)
		close(done)
		wg.Wait()
		for _, ch := range chans {
			for len(ch) > 0 {
				putUnit(<-ch)
			}
		}
	}()
	wg.Add(workers)
	for w := range chans {
		chans[w] = make(chan *unit, unitWindow)
		go func(w int, out chan<- *unit) {
			defer wg.Done()
			wk := newUnitWorker(&spec, &stop)
			defer wk.release()
			for ulo, seq := lo, 0; ulo < hi && !stop.Load(); seq++ {
				uhi := cut(ulo)
				if seq%workers == w {
					h := unitPool.Get().(*unit)
					h.recycle()
					h.err = wk.fill(h, ulo, uhi)
					if stop.Load() {
						putUnit(h) // a unit cut short is never observed
						return
					}
					// The merger owns h the moment it is sent (it recycles
					// and re-pools it), so latch the error before handing
					// it off.
					failed := h.err != nil
					select {
					case out <- h:
						if failed {
							return
						}
						// The send readied the merger onto this P's run
						// queue, where it would wait for this worker to
						// block or be preempted while every P simulates
						// ahead. Yield so merge and boundary run now.
						runtime.Gosched()
					case <-done:
						return
					}
				}
				ulo = uhi
			}
		}(w, chans[w])
	}

	vrObs, _ := c.(VRBlockObserver)
	fleetObs, _ := c.(FleetObserver)
	first := lo // the current batch's first iteration
	for ulo, seq := lo, 0; ulo < hi; seq++ {
		uhi := cut(ulo)
		h := <-chans[seq%workers]
		if h.err != nil {
			return h.err
		}
		evi := 0
		for idx, logW := range h.logWs {
			var ddfs []DDF
			if evi < len(h.ev) && h.ev[evi].idx == idx {
				e := h.ev[evi]
				ddfs = h.ddfs[e.off : e.off+e.n]
				evi++
			}
			c.Observe(ulo+idx-first, ddfs, logW)
		}
		if spec.Config.VR.Enabled() && vrObs != nil {
			vrObs.ObserveVRBlock(size, h.ez, h.vr)
		}
		if spec.Fleet != nil && fleetObs != nil {
			fleetObs.ObserveFleetChronology(size, h.fleet)
		}
		putUnit(h)
		ulo = uhi
		if ulo == hi || (ulo-lo)%batch == 0 {
			if boundary != nil && !boundary(ulo-lo) {
				return nil
			}
			first = ulo
		}
	}
	return nil
}

// unitWorker is one worker's simulation state. Only the inner step differs
// by run kind: fleets simulate a whole chronology per unit, the block
// engine drives its pooled scratch through the VR stream and stratum maps,
// and every other engine calls SimulateInto once per iteration.
type unitWorker struct {
	spec *RunSpec
	stop *atomic.Bool  // set when the run ends; fill loops check it
	sc   *blockScratch // block-engine runs only
	r    rng.RNG
	buf  []DDF
}

// newUnitWorker prepares one worker's state for a validated spec.
func newUnitWorker(spec *RunSpec, stop *atomic.Bool) *unitWorker {
	wk := &unitWorker{spec: spec, stop: stop}
	if _, ok := spec.Engine.(BlockEngine); ok {
		wk.sc = blockScratchPool.Get().(*blockScratch)
		wk.sc.prep(&spec.Config)
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

// fill simulates the global iterations [lo, hi) into h, or a prefix of
// them when the run stops meanwhile.
func (wk *unitWorker) fill(h *unit, lo, hi int) error {
	spec := wk.spec
	// A fresh unit sizes its weight column once instead of growing it.
	h.logWs = slices.Grow(h.logWs, hi-lo)
	switch {
	case spec.Fleet != nil:
		for g := lo; g < hi; g++ {
			h.logWs = append(h.logWs, 0)
		}
		return SimulateFleetInto(spec.Config, *spec.Fleet, spec.Seed, uint64(lo), h.record, &h.fleet)
	case wk.sc != nil:
		wk.fillBlock(h, lo, hi)
		return nil
	}
	for g := lo; g < hi && !wk.stop.Load(); g++ {
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
	for g := lo; g < hi && !wk.stop.Load(); g++ {
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

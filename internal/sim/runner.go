package sim

import (
	"fmt"
	"math"
	"runtime"
	"sort"
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

// RunResult aggregates a campaign.
type RunResult struct {
	// PerGroup holds each simulated group's DDF events in chronological
	// order; len(PerGroup) == Iterations.
	PerGroup [][]DDF
	// TotalDDFs is the total data-loss event count across groups;
	// unavailability onsets are counted in UnavailEvents instead.
	TotalDDFs int
	// OpOpDDFs and LdOpDDFs split the total by cause.
	OpOpDDFs, LdOpDDFs int
	// UnavailEvents counts data-unavailability onsets (coupled topologies
	// only; always 0 for flat runs).
	UnavailEvents int

	// flatTimes caches the sorted flat event-time slice behind DDFsBefore;
	// built lazily so manually assembled results work too.
	flatOnce  sync.Once
	flatTimes []float64
}

// EventTimes flattens the per-group DDF times into per-system event lists
// suitable for stats.MCF.
func (r *RunResult) EventTimes() [][]float64 {
	out := make([][]float64, len(r.PerGroup))
	for i, g := range r.PerGroup {
		ts := make([]float64, len(g))
		for j, d := range g {
			ts[j] = d.Time
		}
		out[i] = ts
	}
	return out
}

// flat returns the sorted slice of all event times across groups, built
// once. PerGroup must not be mutated after the first DDFsBefore call.
func (r *RunResult) flat() []float64 {
	r.flatOnce.Do(func() {
		n := 0
		for _, g := range r.PerGroup {
			n += len(g)
		}
		ts := make([]float64, 0, n)
		for _, g := range r.PerGroup {
			for _, d := range g {
				if d.Cause == CauseUnavail {
					continue
				}
				ts = append(ts, d.Time)
			}
		}
		sort.Float64s(ts)
		r.flatTimes = ts
	})
	return r.flatTimes
}

// DDFsBefore counts events at or before t across all groups. The first
// call sorts a flat event-time slice; subsequent calls are a binary
// search, so rendering a cumulative curve is O((E + P) log E) for E events
// and P query points instead of O(P·E) group scans.
func (r *RunResult) DDFsBefore(t float64) int {
	ts := r.flat()
	// First index with ts[i] > t == count of events at or before t.
	return sort.Search(len(ts), func(i int) bool { return ts[i] > t })
}

// Tally recomputes the aggregate counts from PerGroup — for results
// assembled by hand, e.g. restored from a campaign checkpoint.
func (r *RunResult) Tally() {
	r.TotalDDFs, r.OpOpDDFs, r.LdOpDDFs, r.UnavailEvents = 0, 0, 0, 0
	for _, g := range r.PerGroup {
		for _, d := range g {
			if d.Cause == CauseUnavail {
				r.UnavailEvents++
				continue
			}
			r.TotalDDFs++
			switch d.Cause {
			case CauseOpOp:
				r.OpOpDDFs++
			case CauseLdOp:
				r.LdOpDDFs++
			}
		}
	}
}

// Merge appends another result's groups to r and retallies the counts.
// Batched campaigns use it to accumulate: merging the results of runs
// [0,k) and [k,n) (the latter with Offset k) yields exactly the result of
// a single n-iteration run.
func (r *RunResult) Merge(other *RunResult) {
	r.PerGroup = append(r.PerGroup, other.PerGroup...)
	r.TotalDDFs += other.TotalDDFs
	r.OpOpDDFs += other.OpOpDDFs
	r.LdOpDDFs += other.LdOpDDFs
	r.UnavailEvents += other.UnavailEvents
	r.flatOnce = sync.Once{}
	r.flatTimes = nil
}

// collectWindow is each worker's output-channel depth: how far ahead of
// the in-order merge a worker may run before blocking.
const collectWindow = 256

// handoff is one simulated iteration crossing from a worker to the merger.
type handoff struct {
	ddfs []DDF
	logW float64
	err  error
}

// RunCollect executes the campaign, streaming every iteration's DDFs into
// c in strict iteration order. Worker w simulates iterations i ≡ w (mod
// workers), each from RNG stream Offset+i, and the merger round-robins the
// worker channels — so c observes exactly the sequence a serial loop would
// produce, bit-identical for any worker count, while peak memory stays
// O(workers·window) instead of O(iterations).
//
// Each worker reuses one RNG (reseeded per stream) and, when the engine
// implements IntoSimulator, one DDF buffer — the steady-state event-free
// iteration allocates nothing.
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
	workers := spec.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > spec.Iterations {
		workers = spec.Iterations
	}
	if spec.Fleet != nil {
		if spec.Engine != nil {
			return fmt.Errorf("sim: fleet runs use the dedicated fleet engine; Engine must be nil, got %T", spec.Engine)
		}
		return runCollectFleet(spec, workers, c)
	}
	engine := spec.Engine
	if engine == nil {
		engine = DefaultEngine(spec.Config)
	}
	// Uniform feature gating: reject combinations the chosen engine cannot
	// express (finite spares or coupled topologies off the event engine,
	// VR off the block engine, bias without a weight channel) before any
	// worker starts.
	if err := EngineSupports(engine, spec.Config); err != nil {
		return err
	}
	if be, ok := engine.(BlockEngine); ok {
		// The block engine runs whole blocks per worker dispatch — and is
		// the only engine that implements the variance-reduction schemes.
		return runCollectBlocks(spec, be, workers, c)
	}
	into, hasInto := engine.(IntoSimulator)

	// done releases workers blocked on a full channel when the merger
	// aborts early on an error.
	done := make(chan struct{})
	defer close(done)
	chans := make([]chan handoff, workers)
	for w := 0; w < workers; w++ {
		chans[w] = make(chan handoff, collectWindow)
		go func(w int, out chan<- handoff) {
			var (
				r   rng.RNG
				buf []DDF
			)
			for i := w; i < spec.Iterations; i += workers {
				r.SeedStream(spec.Seed, uint64(spec.Offset+i))
				var h handoff
				if hasInto {
					buf, h.logW, h.err = into.SimulateInto(spec.Config, &r, buf[:0])
					if h.err == nil && len(buf) > 0 {
						// The buffer is reused next iteration; only the rare
						// event-bearing result is copied out.
						h.ddfs = make([]DDF, len(buf))
						copy(h.ddfs, buf)
					}
				} else {
					h.ddfs, h.err = engine.Simulate(spec.Config, &r)
				}
				select {
				case out <- h:
					if h.err != nil {
						return
					}
				case <-done:
					return
				}
			}
		}(w, chans[w])
	}

	for i := 0; i < spec.Iterations; i++ {
		h := <-chans[i%workers]
		if h.err != nil {
			return h.err
		}
		c.Observe(i, h.ddfs, h.logW)
	}
	return nil
}

// blockWindow is each block worker's output-channel depth — blocks are
// hundreds of iterations, so a shallow window already hides merge jitter.
const blockWindow = 4

// blockEv is one event-bearing iteration inside a handoff, sparse because
// the overwhelming majority of iterations produce no events. The events
// themselves live in the handoff's flat ddfs arena at [off, off+n) — an
// index into pooled storage, not an allocation.
type blockEv struct {
	idx int // iteration index within the block
	off int // offset into the handoff's ddfs arena
	n   int
}

// blockHandoff is one simulated block crossing from a worker to the merger.
// Handoffs are pooled; the per-iteration log weights, the sparse event
// index, and the flat event arena reuse their backing arrays across blocks,
// so once each reaches its high-water mark the steady state allocates
// nothing — even under an importance-sampling tilt where most iterations
// bear events.
type blockHandoff struct {
	logWs []float64 // one per iteration, in iteration order
	ev    []blockEv
	ddfs  []DDF // flat arena the ev entries index into
	vr    VRBlock
	ez    float64
	err   error
}

var blockHandoffPool = sync.Pool{New: func() any { return new(blockHandoff) }}

// recycle clears the handoff for reuse, keeping every backing array at its
// high-water capacity.
func (h *blockHandoff) recycle() {
	h.logWs = h.logWs[:0]
	h.ev = h.ev[:0]
	h.ddfs = h.ddfs[:0]
	h.vr = VRBlock{}
	h.ez = 0
	h.err = nil
}

// runCollectBlocks is RunCollect's batched path: worker w simulates whole
// blocks b ≡ w (mod workers) of consecutive iterations on one scratch
// acquisition, and the merger round-robins the blocks back into the same
// strict per-iteration Observe order the scalar path produces. With
// cfg.VR disabled the observed stream is bit-identical to the scalar
// engines'; with it enabled the antithetic/stratified stream mapping is
// applied per iteration and each block's tallies reach any VRBlockObserver.
func runCollectBlocks(spec RunSpec, be BlockEngine, workers int, c Collector) error {
	cfg := spec.Config
	vr := cfg.VR
	// The VR configuration's block size wins (the stratum layout depends on
	// it); the engine's Block is a batching hint for plain runs.
	bs := be.Block
	if vr.Enabled() || vr.BlockSize > 0 {
		bs = vr.EffectiveBlock()
	}
	if bs <= 0 {
		bs = DefaultVRBlock
	}

	// Blocks are aligned to multiples of bs in global (Offset-shifted)
	// iteration space, so a campaign batch starting at a block boundary
	// continues the exact block sequence of an unbatched run. Edge blocks of
	// unaligned runs are clipped.
	lo, hi := spec.Offset, spec.Offset+spec.Iterations
	b0, bLast := lo/bs, (hi-1)/bs
	nBlocks := bLast - b0 + 1
	if workers > nBlocks {
		workers = nBlocks
	}
	blockRange := func(b int) (blo, bhi int) {
		blo, bhi = b*bs, (b+1)*bs
		if blo < lo {
			blo = lo
		}
		if bhi > hi {
			bhi = hi
		}
		return blo, bhi
	}

	done := make(chan struct{})
	defer close(done)
	chans := make([]chan *blockHandoff, workers)
	for w := 0; w < workers; w++ {
		chans[w] = make(chan *blockHandoff, blockWindow)
		go func(w int, out chan<- *blockHandoff) {
			sc := blockScratchPool.Get().(*blockScratch)
			defer func() {
				sc.release()
				blockScratchPool.Put(sc)
			}()
			prepErr := sc.prep(&cfg)
			var (
				r   rng.RNG
				buf []DDF
			)
			for b := b0 + w; b <= bLast; b += workers {
				h := blockHandoffPool.Get().(*blockHandoff)
				h.recycle()
				if prepErr != nil {
					h.err = prepErr
					select {
					case out <- h:
					case <-done:
					}
					return
				}
				blo, bhi := blockRange(b)
				h.ez = sc.ez
				prevY := 0.0
				for g := blo; g < bhi; g++ {
					stream, anti := vr.stream(g)
					r.SeedStream(spec.Seed, stream)
					r.SetAntithetic(anti)
					j, k := vr.stratum(g)
					sc.col.reset(&r, j, k)
					var logW float64
					var z float64
					buf, logW, z = sc.simulateGroup(&cfg, buf[:0])
					h.logWs = append(h.logWs, logW)
					if len(buf) > 0 {
						// The buffer is reused next iteration; stash the
						// events in the handoff's pooled arena.
						off := len(h.ddfs)
						h.ddfs = append(h.ddfs, buf...)
						h.ev = append(h.ev, blockEv{idx: g - blo, off: off, n: len(buf)})
					}
					if vr.Enabled() {
						wt := math.Exp(logW)
						y := 0.0
						if len(buf) > 0 {
							y = wt
						}
						h.vr.Y += y
						h.vr.Z += wt * z
						h.vr.Y2 += y * y
						h.vr.N++
						if vr.Antithetic {
							if g%2 == 1 && g-1 >= blo {
								h.vr.C += prevY * y
								h.vr.P++
							}
							prevY = y
						}
					}
				}
				select {
				case out <- h:
				case <-done:
					return
				}
			}
		}(w, chans[w])
	}

	vrObs, hasVRObs := c.(VRBlockObserver)
	for b := b0; b <= bLast; b++ {
		h := <-chans[(b-b0)%workers]
		if h.err != nil {
			return h.err
		}
		blo, _ := blockRange(b)
		evi := 0
		for idx, logW := range h.logWs {
			var ddfs []DDF
			if evi < len(h.ev) && h.ev[evi].idx == idx {
				e := h.ev[evi]
				ddfs = h.ddfs[e.off : e.off+e.n]
				evi++
			}
			c.Observe(blo+idx-lo, ddfs, logW)
		}
		if vr.Enabled() && hasVRObs {
			vrObs.ObserveVRBlock(bs, h.ez, h.vr)
		}
		h.recycle()
		blockHandoffPool.Put(h)
	}
	return nil
}

// fleetWindow is each fleet worker's output-channel depth; chronologies
// are whole fleets, so a shallow window hides merge jitter.
const fleetWindow = 4

// fleetHandoff is one simulated fleet chronology crossing from a worker to
// the merger: the sparse event-bearing groups (idx is the group index
// within the chronology) plus the chronology's backlog statistics.
type fleetHandoff struct {
	ev    []blockEv
	ddfs  []DDF // flat arena the ev entries index into
	stats FleetStats
	err   error
}

var fleetHandoffPool = sync.Pool{New: func() any { return new(fleetHandoff) }}

func (h *fleetHandoff) recycle() {
	h.ev = h.ev[:0]
	h.ddfs = h.ddfs[:0]
	h.stats = FleetStats{}
	h.err = nil
}

// runCollectFleet is RunCollect's fleet path: worker w simulates whole
// fleet chronologies b ≡ w (mod workers), and the merger round-robins
// them back into the same strict per-group Observe order the scalar path
// produces — group index Offset+b·Groups+g draws from stream Offset+i
// exactly like scalar iteration i, bit-identical for any worker count.
func runCollectFleet(spec RunSpec, workers int, c Collector) error {
	fc := spec.Fleet.Config(spec.Config)
	if err := fc.Validate(); err != nil {
		return err
	}
	groups := fc.Groups
	if spec.Iterations%groups != 0 {
		return fmt.Errorf("sim: fleet runs need iterations (%d) in whole chronologies of %d groups", spec.Iterations, groups)
	}
	if spec.Offset%groups != 0 {
		return fmt.Errorf("sim: fleet stream offset (%d) must be a multiple of the fleet size (%d)", spec.Offset, groups)
	}
	chrons := spec.Iterations / groups
	if workers > chrons {
		workers = chrons
	}

	done := make(chan struct{})
	defer close(done)
	chans := make([]chan *fleetHandoff, workers)
	for w := 0; w < workers; w++ {
		chans[w] = make(chan *fleetHandoff, fleetWindow)
		go func(w int, out chan<- *fleetHandoff) {
			for b := w; b < chrons; b += workers {
				h := fleetHandoffPool.Get().(*fleetHandoff)
				h.recycle()
				base := uint64(spec.Offset + b*groups)
				h.err = SimulateFleetInto(fc, spec.Seed, base, func(g int, ddfs []DDF) {
					// The visit slice is engine scratch; stash the rare
					// event-bearing group in the handoff's pooled arena.
					off := len(h.ddfs)
					h.ddfs = append(h.ddfs, ddfs...)
					h.ev = append(h.ev, blockEv{idx: g, off: off, n: len(ddfs)})
				}, &h.stats)
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

	fleetObs, hasFleetObs := c.(FleetObserver)
	for b := 0; b < chrons; b++ {
		h := <-chans[b%workers]
		if h.err != nil {
			return h.err
		}
		base := b * groups
		evi := 0
		for g := 0; g < groups; g++ {
			var ddfs []DDF
			if evi < len(h.ev) && h.ev[evi].idx == g {
				e := h.ev[evi]
				ddfs = h.ddfs[e.off : e.off+e.n]
				evi++
			}
			c.Observe(base+g, ddfs, 0)
		}
		if hasFleetObs {
			fleetObs.ObserveFleetChronology(groups, h.stats)
		}
		h.recycle()
		fleetHandoffPool.Put(h)
	}
	return nil
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

// Run executes the campaign and materializes the dense per-group
// representation. It is a compatibility wrapper over the sparse pipeline;
// prefer RunSparse (or RunCollect with a custom Collector) for large
// iteration counts, where PerGroup alone costs O(iterations) memory.
func Run(spec RunSpec) (*RunResult, error) {
	sres, err := RunSparse(spec)
	if err != nil {
		return nil, err
	}
	return sres.Dense(), nil
}

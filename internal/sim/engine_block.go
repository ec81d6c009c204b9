package sim

import (
	"math"
	"slices"
	"sync"

	"raidrel/internal/analytic"
	"raidrel/internal/dist"
	"raidrel/internal/rng"
)

// BlockEngine is the paper's Fig. 5 timing diagram as a per-slot sweep:
// each slot's alternating TTF/TTR episodes and latent-defect intervals are
// laid out first, then the merged failure sequence is swept in time order
// for DDFs. It is the second, independent implementation of the group
// chronology next to EventEngine; the pair cross-validate statistically in
// tests. It consumes the RNG through a prefetched uniform column — bulk
// rng.Uint64s refills of one small fixed size converted to uniforms at the
// refill, the exponential transform taken per draw on demand — and runs
// the compiled kernel transforms as flat array math. Its output is pinned
// draw for draw by the block/* and block-direct/* golden digests
// (testdata/stream_digests.txt): the same stream yields the same DDFs and
// the same log weight.
//
// Five lazy shortcuts keep the per-iteration math sublinear in the draw
// count without changing a single output bit (DESIGN.md §12 keeps their
// ledger: what each skips and what it was measured to earn):
//
//   - An operational draw whose raw uniform lies below the slot's censor
//     cut (dist.CensorCut of the mission hazard, precomputed per slot) is
//     censored before any log is taken: the cut guarantees the exact
//     transform lands past the mission, so +Inf stands in for it, and under
//     bias the censored log ratio TiltedKernel.CensoredLogLR of the
//     residual mission, the value the exact transform reaches. +Inf is
//     output-equivalent: the slot loop breaks without appending an
//     episode, the defect window is clipped to the mission either way, and
//     a defect cap set by the drive failure differs only beyond the
//     mission, where no query looks. Every other draw takes the exact
//     transform. Most operational draws land below the cut.
//   - Scrub completions stay raw uniforms: a defect stores its scrub draw
//     untransformed and resolves the exact end start + FromExp(-log(u)),
//     memoized, only on its first liveness query that the next shortcut
//     cannot answer. Defects never queried never pay the log.
//   - A liveness query at t on a defect that started scrubDead =
//     FromExp(37) or more before t answers dead without the log: no
//     column uniform has an exponential variate above -log(2^-53) =
//     36.74, so no scrub draw outlives that offset.
//   - Defect arrivals of a Poisson TTLd process (dist.AsPoissonRate)
//     stay raw uniforms too, each with its clock value: the running
//     product of its chain's uniforms scaled to e^(-start·rate) (ldClock).
//     The chain end is decided by comparing that product with the window
//     end's clock (guard-banded, with the exact sum as fallback), and a
//     start is computed, in stream order, only when it is actually needed
//     (layPoisson, materialize). The layout is chosen once per run in
//     prep: configurations that expect many first-generation failures
//     (strong TTOp tilts) read nearly every arrival and are laid eagerly.
//   - Liveness queries on such arrivals are start-free (scanLive): an
//     arrival whose clock value says it certainly starts after the query
//     time stops the scan, and one that certainly started scrubDead or
//     more before it (or whose drive has failed) is passed over as dead,
//     its start never computed. Only an arrival in the live window, or
//     inside the guard band of a query clock, is materialized — about
//     2.8 per scrubbed base-case group of ~76 arrivals.
//
// The engine requires every configured transition distribution to compile
// to a specialized kernel (dist.Kernel.Compiled — Weibull or Exponential,
// i.e. everything the paper's model uses); generic scripted distributions
// are rejected. Slots are precomputed independently, so finite spare
// pools and coupled topologies are rejected too (see gate.go).
//
// Like EventEngine it implements Engine for one-group use; the
// runner drives the pooled scratch directly, simulating a whole unit of
// Config.VR.EffectiveBlock() groups per scratch acquisition, with the
// variance-reduction hooks (antithetic pairing, stratified first draw,
// control-variate indicator) applied per iteration.
//
// The column prefetches uniforms, so the generator is advanced further
// than the draws consumed; callers must not interleave other draws on the
// same generator mid-iteration. The runner reseeds per iteration
// (SeedStream), which makes the overdraw unobservable.
type BlockEngine struct{}

var _ Engine = BlockEngine{}

// opInterval is one failure episode of a slot: the drive fails at Fail and
// the replacement is fully restored at RestoreEnd.
type opInterval struct {
	Fail, RestoreEnd float64
}

// intervalFailure is one operational failure tagged with its slot, for the
// merged group-wide sweep.
type intervalFailure struct {
	slot int
	op   opInterval
}

// colChunk is the uniforms fetched per bulk RNG refill, and colFirst those
// of an iteration's first refill. Small, because the generator work and
// the float conversions past the last draw an iteration consumes are pure
// waste (the runner reseeds per iteration): a rare-event iteration draws
// about ten uniforms, which the first refill covers, a scrubbed base-case
// one ~170, and a refill's fixed cost is a call plus a state load and
// store.
const (
	colChunk = 32
	colFirst = 16
)

// drawCol is the prefetched draw column: raw uniforms filled in bulk
// colChunk at a time (colFirst for an iteration's first refill) and
// converted to floats at the refill, the
// exponential transform applied on demand at consumption (so draws whose
// log is never needed — scrub variates resolved lazily, operational draws
// censored below their cut, lazily laid defect arrivals — never pay for
// it), and the stratification override for the iteration's first accepted
// uniform.
type drawCol struct {
	r *rng.RNG
	// pos is the next entry to consume; colChunk means the column is
	// spent (every refill fills it up to the end, the first of an
	// iteration from colChunk-colFirst on).
	pos   int
	fresh bool // no refill yet this iteration
	// When strataK > 0 the next accepted (nonzero) uniform u is replaced
	// by (strataJ + u)/strataK before the exponential transform — the
	// within-block stratification of the first operational-failure draw.
	strataJ, strataK float64
	// u holds the chunk's uniforms, every entry nonzero (see refill);
	// raw is the refill's generator output.
	u   [colChunk]float64
	raw [colChunk]uint64
}

// reset binds the column to a generator for one iteration, dropping any
// prefetched tail (the runner reseeds per iteration) and arming stratum j
// of k (k = 0 disables stratification).
func (c *drawCol) reset(r *rng.RNG, j, k int) {
	c.r = r
	c.pos, c.fresh = colChunk, true
	c.strataJ, c.strataK = float64(j), float64(k)
}

// refill fetches the next chunk of uniforms, each rng.Float64's value.
// The chunking is invisible to the draw sequence — Uint64s is identical
// to sequential Uint64 calls regardless of slice length. A zero uniform
// (probability 2^-53 per entry) is dropped, the later entries moving down
// and fresh draws topping the chunk up, so the column holds the nonzero
// uniforms of the stream in order, exactly what rng.Float64Open's retry
// returns.
func (c *drawCol) refill() {
	c.pos = 0
	if c.fresh {
		c.pos, c.fresh = colChunk-colFirst, false
	}
	c.r.Uint64s(c.raw[c.pos:])
	least := uint64(1 << 53)
	for i := c.pos; i < colChunk; i++ {
		x := c.raw[i] >> 11
		// x < 2^53 converts exactly through int64, one instruction where
		// the uint64 conversion branches on the top bit.
		c.u[i] = float64(int64(x)) / (1 << 53)
		least = min(least, x)
	}
	if least == 0 {
		c.dropZeros()
	}
}

// dropZeros compacts the zero uniforms out of the chunk's unread entries
// and tops it up from the generator, skipping zeros there too.
func (c *drawCol) dropZeros() {
	w := c.pos
	for _, u := range c.u[c.pos:] {
		if u > 0 {
			c.u[w] = u
			w++
		}
	}
	for w < colChunk {
		if u := c.r.Float64(); u > 0 {
			c.u[w] = u
			w++
		}
	}
}

// nextUniform returns the next nonzero uniform in (0,1), bit-identical to
// rng.Float64Open on the same stream. The exponential transform -log(u) is
// left to the caller, who may never need it. Refill has dropped the
// zeros, so the common case is a bounds check and a load, small enough to
// inline at every draw site (CI checks that it stays inlinable).
func (c *drawCol) nextUniform() float64 {
	if c.pos == colChunk {
		c.refill()
	}
	c.pos++
	return c.u[c.pos-1]
}

// nextExp returns the next unit-exponential variate, bit-identical to
// rng.ExpFloat64 on the same stream: -log of nextOpen's uniform.
func (c *drawCol) nextExp() float64 {
	if c.strataK > 0 {
		return -math.Log(c.nextOpenStrata())
	}
	return -math.Log(c.nextUniform())
}

// nextOpen returns the uniform behind the next exponential variate: the
// next nonzero uniform, remapped into the armed stratum if any.
func (c *drawCol) nextOpen() float64 {
	if c.strataK > 0 {
		return c.nextOpenStrata()
	}
	return c.nextUniform()
}

// nextOpenStrata is the armed-stratum draw: the raw uniform is remapped
// into stratum strataJ of strataK (and the stratum disarmed).
func (c *drawCol) nextOpenStrata() float64 {
	u := (c.strataJ + c.nextUniform()) / c.strataK
	c.strataK = 0
	return u
}

// blockDefect is a latent defect with its scrub completion kept lazy: the
// effective end is min(natural scrub end, cap), where cap starts at the
// drive's own failure and may be lowered to a concomitant restore by the
// LdOp repair rule. The scrub draw is stored as its raw uniform — the
// exponential transform -log(u) and the kernel quantile are paid only on
// the first liveness query (memoized); defects never queried never
// transform at all. A defect of a lazily laid Poisson chain may hold its
// arrival uniform in place of its start until the start is needed (see
// layPoisson and scanLive).
type blockDefect struct {
	// start is the creation time, or, while pending, the arrival's raw
	// uniform.
	start float64
	cap   float64
	// ue holds the scrub draw's raw uniform.
	ue float64
	// end is the memoized natural end once resolved. While the defect is
	// pending it holds its chain's generation start (pendingHead) or its
	// clock value (pendingLink; see ldClock) instead.
	end      float64
	resolved bool
	pending  pendingState
}

// pendingState marks a defect whose start is not yet materialized.
type pendingState uint8

const (
	// materialized: start holds the creation time.
	materialized pendingState = iota
	// pendingHead: the first arrival of a lazy chain; its start is the
	// chain's generation start (held in end) plus its own inter-arrival.
	pendingHead
	// pendingLink: a later arrival of a lazy chain; its start is the
	// previous defect's start plus its own inter-arrival, and its clock
	// value the previous one's times its uniform.
	pendingLink
)

// blockChronology is a slot's timeline in the block engine's lazy form.
// scan is the sweep's dead-prefix cursor: defects below it were found dead
// at an earlier (hence smaller, the sweep ascends) query time, and
// liveness is monotone, so they can never answer live again. It advances
// over pending defects found dead start-free as over materialized ones.
type blockChronology struct {
	ops     []opInterval
	defects []blockDefect
	scan    int
}

// blockScratch is the reusable per-worker state of the block engine: the
// compiled kernels, the draw column, per-slot chronologies, the merged
// failure sequence, and the per-slot acceleration constants (mission
// hazards, censor cuts, the control-variate expectation).
type blockScratch struct {
	kern   cfgKernels
	chrons []blockChronology
	fails  []intervalFailure
	col    drawCol
	// hm[s] = H_s(Mission), the base cumulative mission hazard of slot s's
	// operational-failure distribution — the censor cut's and the control
	// variate's analytic input.
	hm []float64
	// ucut[s] = dist.CensorCut(hm[s], θ) (θ = 1 unbiased): an operational
	// draw whose uniform lies below it is censored without its log.
	ucut []float64
	// ez is the analytic expectation of the control variate: with the
	// indicator control, 1 - exp(-Σ_s H_s(M)); with the conditional-DDF
	// variate, the analytic.CondDDF quadrature (in [0, drives]).
	ez       float64
	latent   bool
	hasScrub bool
	// scrubDead = scrub.FromExp(scrubDeadExp), or +Inf without scrub: a
	// defect that started at least this long before a query is dead at it
	// whatever its scrub draw (see defectLive).
	scrubDead float64
	// ldRate is the Poisson defect rate when this run lays its defect
	// chains lazily (layPoisson), 0 when it lays them eagerly; ldMaxChain
	// caps a lazy chain's length where the product's guard band still
	// covers the arrival sum's rounding.
	ldRate     float64
	ldMaxChain int
	// ldMissionC = ldClock(ldMission), the clock at the mission, where
	// most windows end (a first-generation drive that outlives it); ldLast
	// and ldLastC memoize the last other clock taken: a drive failure
	// ends one window, starts the next and is queried at.
	ldMission, ldMissionC float64
	ldLast, ldLastC       float64
	// ldDeadF = e^(scrubDead·rate), so that ldClock(t - scrubDead) =
	// ldClock(t)·ldDeadF takes no exp of its own (+Inf without scrub).
	ldDeadF float64
	// cond marks the conditional-DDF variate (VR.CondVariate): z becomes
	// the first-generation kill count κ summed over failing slots, judged
	// against the deterministic condWindow (mean TTR) and the drawn
	// defect states.
	cond       bool
	condWindow float64
	// condKern holds base (untilted) TTOp kernels for the cond quadrature
	// when the run is biased and sc.kern only compiled tilted ones.
	condKern []dist.Kernel
}

var blockScratchPool = sync.Pool{New: func() any { return new(blockScratch) }}

// prep compiles cfg into the scratch and precomputes the acceleration
// state. cfg must already be validated and supported by the block engine
// (EngineSupports): every distribution compiles, and nothing couples the
// slots.
func (sc *blockScratch) prep(cfg *Config) {
	sc.kern.compile(cfg)
	sc.latent = cfg.Trans.TTLd != nil
	sc.hasScrub = cfg.Trans.TTScrub != nil
	sc.scrubDead = math.Inf(1)
	if sc.hasScrub {
		sc.scrubDead = sc.kern.scrub.FromExp(scrubDeadExp)
	}

	if cap(sc.chrons) < cfg.Drives {
		grown := make([]blockChronology, cfg.Drives)
		copy(grown, sc.chrons[:cap(sc.chrons)])
		sc.chrons = grown
	}
	sc.chrons = sc.chrons[:cfg.Drives]
	if cap(sc.hm) < cfg.Drives {
		sc.hm = make([]float64, cfg.Drives)
		sc.ucut = make([]float64, cfg.Drives)
	}
	sc.hm = sc.hm[:cfg.Drives]
	sc.ucut = sc.ucut[:cfg.Drives]
	sumH := 0.0
	for s := 0; s < cfg.Drives; s++ {
		if sc.kern.biasOp {
			tk := &sc.kern.ttopTilt[s]
			sc.hm[s] = tk.CumHazard(cfg.Mission)
			sc.ucut[s] = dist.CensorCut(sc.hm[s], tk.Theta())
		} else {
			sc.hm[s] = sc.kern.ttop[s].CumHazard(cfg.Mission)
			sc.ucut[s] = dist.CensorCut(sc.hm[s], 1)
		}
		sumH += sc.hm[s]
	}
	sc.ez = -math.Expm1(-sumH)
	sc.prepDefectLayout(cfg)
	sc.cond = cfg.VR.CondVariate
	if sc.cond {
		sc.prepCond(cfg)
	}
}

// prepCond assembles the analytic.CondDDF model for the conditional-DDF
// variate and overwrites sc.ez with its exact expectation. Runs once per
// prep; the model and its closures are transient (only the scalar results
// are kept), so the pooled scratch pins nothing from cfg.
func (sc *blockScratch) prepCond(cfg *Config) {
	sc.condWindow = cfg.Trans.TTR.Mean()
	base := sc.kern.ttop
	if sc.kern.biasOp {
		// The quadrature needs the base law; under bias only tilted
		// kernels were compiled, so compile untilted ones on the side.
		if cap(sc.condKern) < cfg.Drives {
			sc.condKern = make([]dist.Kernel, cfg.Drives)
		}
		sc.condKern = sc.condKern[:cfg.Drives]
		for i := range sc.condKern {
			sc.condKern[i] = dist.Compile(cfg.ttopFor(i))
		}
		base = sc.condKern
	}
	slots := make([]analytic.CondSlot, cfg.Drives)
	for i := range slots {
		k := &base[i]
		slots[i] = analytic.CondSlot{CumHazard: k.CumHazard, Quantile: k.FromExp}
	}
	model := analytic.CondDDF{
		Mission:   cfg.Mission,
		Window:    sc.condWindow,
		Slots:     slots,
		Identical: cfg.SlotTTOp == nil,
		TKinks:    []float64{sc.condWindow},
	}
	var surv func(float64) float64
	var kinks []float64
	support := math.Inf(1)
	if sc.hasScrub {
		k := sc.kern.scrub
		surv = func(u float64) float64 { return math.Exp(-k.CumHazard(u)) }
		if l, ok := cfg.Trans.TTScrub.(interface{ Location() float64 }); ok && l.Location() > 0 {
			kinks = append(kinks, l.Location())
		}
		// Beyond H = 40 the survival is zero to double precision; the
		// live-defect integral saturates there (the mean scrub life).
		support = k.FromExp(40)
	}
	if cfg.Trans.TTLd != nil {
		rate, _ := dist.AsPoissonRate(cfg.Trans.TTLd) // Validate gates on ok
		model.LiveMean = analytic.LiveDefectMean(rate, surv, kinks, support)
	}
	// μ(t) loses smoothness at the scrub kinks and its saturation point;
	// tell the outer quadrature.
	model.TKinks = append(model.TKinks, kinks...)
	if !math.IsInf(support, 1) {
		model.TKinks = append(model.TKinks, support)
	}
	sc.ez = model.EZ()
}

// release drops configuration references so the pooled scratch does not
// pin a caller's state, keeping backing arrays warm.
func (sc *blockScratch) release() {
	sc.kern.release()
	sc.col.r = nil
	for i := range sc.condKern {
		sc.condKern[i] = dist.Kernel{}
	}
	sc.condKern = sc.condKern[:0]
}

// SimulateInto implements Engine: one chronology from r's stream, the same
// DDFs and logW the runner's block step delivers for that stream. The
// draw column prefetches, so r ends up advanced past the consumed draws;
// reseed per iteration (as every runner does) rather than chaining draws.
func (BlockEngine) SimulateInto(cfg Config, r *rng.RNG, buf []DDF) ([]DDF, float64, error) {
	if err := cfg.Validate(); err != nil {
		return buf, 0, err
	}
	if err := EngineSupports(BlockEngine{}, cfg); err != nil {
		return buf, 0, err
	}
	sc := blockScratchPool.Get().(*blockScratch)
	sc.prep(&cfg)
	sc.col.reset(r, 0, 0)
	buf, logW, _ := sc.simulateGroup(&cfg, buf)
	sc.release()
	blockScratchPool.Put(sc)
	return buf, logW, nil
}

// simulateGroup runs one group chronology from the bound column, appending
// DDFs to buf. Returns the extended buf, the iteration's log weight, and
// the control-variate observation z: the indicator 1{any first-generation
// operational failure within the mission}, or the conditional-DDF kill
// count when VR.CondVariate is on. prep must have succeeded and col been
// reset.
func (sc *blockScratch) simulateGroup(cfg *Config, buf []DDF) ([]DDF, float64, float64) {
	chrons := sc.chrons
	logW := 0.0
	z := 0.0
	for i := range chrons {
		chrons[i].ops = chrons[i].ops[:0]
		chrons[i].defects = chrons[i].defects[:0]
		chrons[i].scan = 0
		lw, zi := sc.buildSlot(cfg, i, &chrons[i])
		logW += lw
		if zi {
			z = 1
		}
	}
	if sc.cond {
		// Must run before the sweep: the LdOp concomitant-repair rule
		// lowers defect caps, and the variate is defined on the pristine
		// first-generation draws.
		z = sc.condZ()
	}

	// Merge every operational failure, tagged with its slot, in slot-major
	// order. The append order and comparator fix how the (unstable) sort
	// orders ties, which the golden digests pin. slices.SortFunc rather
	// than sort.Slice: the latter builds a reflection-based swapper, one
	// heap allocation per call.
	fails := sc.fails[:0]
	for slot := range chrons {
		for _, op := range chrons[slot].ops {
			fails = append(fails, intervalFailure{slot: slot, op: op})
		}
	}
	sc.fails = fails
	slices.SortFunc(fails, func(a, b intervalFailure) int {
		switch {
		case a.op.Fail < b.op.Fail:
			return -1
		case a.op.Fail > b.op.Fail:
			return 1
		default:
			return 0
		}
	})

	var suppressUntil float64
	for _, f := range fails {
		t := f.op.Fail
		if t > cfg.Mission {
			break
		}
		if t < suppressUntil {
			continue
		}
		failedOthers := 0
		var defect *blockDefect
		q := sc.query(t)
		for k := range chrons {
			if k == f.slot {
				continue
			}
			if opFailedAt(chrons[k].ops, t) {
				failedOthers++
				continue
			}
			// The scan starts at the dead-prefix cursor (failures sweep in
			// ascending t and liveness is monotone, so a leading dead
			// defect stays dead) and advances it over newly dead leading
			// defects. Once a slot yields a live defect, later slots only
			// look for one that started before it.
			ch := &chrons[k]
			if ch.scan == len(ch.defects) {
				continue // no defects left to scan; spare the call
			}
			var live int
			live, ch.scan = sc.scanLive(ch.defects, ch.scan, &q)
			if live >= 0 {
				defect = &ch.defects[live]
				q.stopBefore(sc, defect.start)
			}
		}
		switch {
		case failedOthers >= cfg.Redundancy:
			buf = append(buf, DDF{Time: t, Cause: CauseOpOp})
			suppressUntil = f.op.RestoreEnd
		case failedOthers == cfg.Redundancy-1 && defect != nil:
			buf = append(buf, DDF{Time: t, Cause: CauseLdOp})
			suppressUntil = f.op.RestoreEnd
			// The defective drive is repaired with the failed one: its
			// defect ends at the concomitant restore rather than running to
			// its natural scrub time. Lowering the lazy end bound makes the
			// effective end min(natural, cap, restore).
			if f.op.RestoreEnd < defect.cap {
				defect.cap = f.op.RestoreEnd
			}
		}
	}
	return buf, logW, z
}

// condZ evaluates the conditional-DDF variate on the freshly built
// chronologies: for every slot whose first-generation failure T_s lands
// within the mission, count 1 if some mate would kill it — the mate's own
// first-generation failure T_m covers T_s under the deterministic
// mean-rebuild window (T_m ≤ T_s < T_m + W), or the mate is still in its
// first generation (T_m > T_s) with a drawn defect alive at T_s. Judged
// only against first-generation structures, whose joint law the
// analytic.CondDDF quadrature integrates exactly (sc.ez); defect liveness
// goes through the sweep's scanLive, whose materialized starts and
// memoized scrub ends the sweep then reuses, so it pays nothing twice.
// Must be called before the sweep mutates defect caps.
func (sc *blockScratch) condZ() float64 {
	chrons := sc.chrons
	w := sc.condWindow
	z := 0.0
	for s := range chrons {
		if len(chrons[s].ops) == 0 {
			continue // first-generation failure censored past the mission
		}
		t := chrons[s].ops[0].Fail
		q := sc.query(t)
		kill := false
		for m := range chrons {
			if m == s {
				continue
			}
			mc := &chrons[m]
			if len(mc.ops) > 0 && mc.ops[0].Fail <= t {
				if t < mc.ops[0].Fail+w {
					kill = true
					break
				}
				// Restored before the window reached t; its gen-1 defects
				// died with the drive (cap), and gen-2 state is outside
				// the variate's conditioning.
				continue
			}
			// Mate still in generation 1 at t: every defect with start <= t
			// is first-generation (later generations start past T_m > t).
			if live, _ := sc.scanLive(mc.defects, 0, &q); live >= 0 {
				kill = true
				break
			}
		}
		if kill {
			z++
		}
	}
	return z
}

// opFailedAt reports whether the slot is inside a failure episode at
// t. Episodes are chronological and non-overlapping by construction, and a
// chronology holds a handful of them, so a linear scan with an early break
// beats a binary search.
func opFailedAt(ops []opInterval, t float64) bool {
	for i := range ops {
		if ops[i].Fail > t {
			return false
		}
		if t < ops[i].RestoreEnd {
			return true
		}
	}
	return false
}

// buildSlot lays out one slot's alternating up/down episodes and its
// defect intervals from the column: drive generation g runs from its
// installation (the previous drive's failure time) to its own failure;
// defects arrive by renewal within that window and end at scrub completion
// or the drive's own failure, whichever is first. Returns the slot's log weight and whether its first-generation
// drive failed within the mission.
//
// Under bias this engine censors defect chains at the generation window
// and the event engine at the mission, so per-iteration weights differ
// between the engines even on the same stream; both weightings are valid
// for their own chronology construction and the weighted estimates agree
// statistically.
func (sc *blockScratch) buildSlot(cfg *Config, slot int, ch *blockChronology) (logW float64, z bool) {
	genStart := 0.0 // installation time of the current drive
	upFrom := 0.0   // operational-clock start of the current drive
	for {
		// Under bias the draw is censored at the residual mission: a drive
		// whose failure lands past the mission contributes no further
		// in-mission episodes, matching the event engine's discard boundary.
		dt, logLR := sc.drawTTOp(cfg, slot, upFrom)
		logW += logLR
		fail := upFrom + dt
		end := fail
		if end > cfg.Mission {
			end = cfg.Mission
		}
		if sc.latent {
			logW += sc.appendDefects(ch, genStart, end, fail)
		}
		if fail > cfg.Mission {
			break
		}
		restore := fail + sc.kern.ttr.FromExp(sc.col.nextExp())
		ch.ops = append(ch.ops, opInterval{Fail: fail, RestoreEnd: restore})
		genStart = fail
		upFrom = restore
		if restore > cfg.Mission {
			// Defects on the replacement during a rebuild that outlives the
			// mission cannot affect any in-mission failure check.
			break
		}
	}
	// Only failures within the mission append an episode, so the first
	// generation failed within it exactly when one was appended.
	return logW, len(ch.ops) > 0
}

// drawTTOp is the column-fed counterpart of cfgKernels.drawTTOp with the
// censor cut: a uniform below the slot's cut has its exact transform past
// the full mission hazard, hence past the remaining mission too (H is
// monotone, upFrom >= 0), so +Inf stands in for the transformed draw
// (output-equivalent — see the engine comment) and, under bias,
// CensoredLogLR of the residual mission for its weight factor: the value
// DrawLRFromExp reaches for that draw, without its log and quantile.
func (sc *blockScratch) drawTTOp(cfg *Config, slot int, upFrom float64) (dt, logLR float64) {
	u := sc.col.nextOpen()
	if sc.kern.biasOp {
		tk := &sc.kern.ttopTilt[slot]
		if u < sc.ucut[slot] {
			return math.Inf(1), tk.CensoredLogLR(cfg.Mission - upFrom)
		}
		return tk.DrawLRFromExp(-math.Log(u), cfg.Mission-upFrom)
	}
	if u < sc.ucut[slot] {
		return math.Inf(1), 0
	}
	return sc.kern.ttop[slot].FromExp(-math.Log(u)), 0
}

// appendDefects renewal-samples defect arrivals on [genStart, windowEnd)
// from the column and records them, truncated at driveFail (the drive's
// own failure clears its defects); scrub completions stay raw uniforms.
// Returns the chain's importance-sampling log weight; tilted arrivals are
// censored at windowEnd, the boundary past which the chain stops.
func (sc *blockScratch) appendDefects(ch *blockChronology, genStart, windowEnd, driveFail float64) float64 {
	if sc.kern.plainTTLd {
		if sc.ldRate > 0 {
			sc.layPoisson(ch, genStart, windowEnd, driveFail)
		} else {
			sc.layEager(ch, genStart, windowEnd, driveFail)
		}
		return 0
	}
	// Tilted renewal defects (Bias.Ld), one column exponential each.
	logW := 0.0
	t := genStart
	for {
		dt, logLR := sc.kern.ttldTilt.DrawLRFromExp(sc.col.nextExp(), windowEnd-t)
		logW += logLR
		t += dt
		if t >= windowEnd {
			return logW
		}
		sc.pushDefect(ch, t, driveFail)
	}
}

// Constants of the lazy defect layout (layPoisson, scanLive, defectLive).
const (
	// scrubDeadExp bounds every unit exponential a scrub draw can take:
	// the column's smallest nonzero uniform is 2^-53, and -log(2^-53) =
	// 36.74 (stratification only ever remaps operational draws).
	scrubDeadExp = 37
	// ldBand is the relative guard band around a clock value inside which
	// the product cannot order an arrival's start against a time, and the
	// exact start decides (see layPoisson).
	ldBand = 0x1p-24
	// ldBandBudget bounds (n+10)·(Mission·rate+1), the rounding of an
	// n-arrival chain in units of 2^-53 (see layPoisson), so that it stays
	// within half the band: 2^-25 / 2^-53 = 2^28.
	ldBandBudget = 1 << 28
	// ldMaxHazard bounds Mission·rate, a slot's expected arrival count
	// over the mission, keeping every clock value e^(-x·rate) (≥ 1e-304)
	// a normal float with the band around it.
	ldMaxHazard = 700
	// ldLazyMaxFailures is the crossover in expected first-generation
	// failures per group (under the sampling law) past which the eager
	// layout is faster: frequent failures cut windows short and get
	// nearly every arrival read, so deferring the log buys nothing and
	// the product and per-window exp cost extra. Measured on the paper's
	// base case under a TTOp tilt θ (16 interleaved pairs, 2 vCPUs),
	// lazy/eager time: θ = 1.25 (1.41 expected failures) 0.93, θ = 1.5
	// (1.66) 0.97, θ = 1.75 (1.90) 1.05, θ = 2 (2.13) 1.05, θ = 4 (3.70)
	// 1.10; unbiased (1.15) 0.86. Those runs predate the start-free
	// queries (scanLive). Re-measured with them at θ = 8 (5.7 expected
	// failures, BenchmarkEngineBlockBiasedInto), forced lazy/eager read
	// 1.095 (16 pairs, 14 slower), then 0.990 (10 pairs, 3 slower) and
	// 1.012 (16 pairs, 9 slower): between no gain and +10%.
	ldLazyMaxFailures = 1.75
)

// prepDefectLayout chooses this run's defect layout: lazy (layPoisson)
// when the defect process is an untilted Poisson process whose mission
// hazard leaves room for the band, and first-generation failures are
// rare enough that most arrivals are never read; eager otherwise.
func (sc *blockScratch) prepDefectLayout(cfg *Config) {
	sc.ldRate, sc.ldMaxChain = 0, 0
	if !sc.kern.plainTTLd {
		return
	}
	rate, ok := dist.AsPoissonRate(cfg.Trans.TTLd)
	if !ok {
		return
	}
	// hm holds base hazards; a TTOp tilt scales them by θ.
	theta := 1.0
	if sc.kern.biasOp {
		theta = cfg.Bias.Op
	}
	failures := 0.0
	for _, h := range sc.hm {
		failures -= math.Expm1(-theta * h)
	}
	if failures > ldLazyMaxFailures {
		return
	}
	m := cfg.Mission * rate
	if !(m <= ldMaxHazard) {
		return
	}
	sc.ldRate = rate
	sc.ldMaxChain = int(ldBandBudget/(m+1) - 10) // ≥ 382,921 for m ≤ 700
	sc.ldMission, sc.ldMissionC = cfg.Mission, math.Exp(-cfg.Mission*rate)
	sc.ldLast, sc.ldLastC = 0, 1
	sc.ldDeadF = math.Exp(sc.scrubDead * rate)
}

// layEager lays a plain renewal chain's arrivals after t up to windowEnd,
// every start computed at layout: the layout of the renewal processes
// layPoisson cannot represent, and of the rest of a lazy chain once its
// band fallback fires.
func (sc *blockScratch) layEager(ch *blockChronology, t, windowEnd, driveFail float64) {
	for {
		t = sc.ldStep(t, sc.col.nextUniform())
		if t >= windowEnd {
			return
		}
		sc.pushDefect(ch, t, driveFail)
	}
}

// ldStep is the exact arrival step of the plain defect process: the next
// arrival after t from the column uniform u, t + FromExp(-log u) with
// -log u being rng.ExpFloat64's value. It is the only place a plain
// arrival's start is computed — at layout (layEager, layPoisson's band
// fallback) or on first read (materialize) — so every path yields the same
// floats in the same order. (The column's stratum is always spent by the
// slot's first operational draw before any defect draw, so the raw
// uniform is the one nextExp would have logged.)
func (sc *blockScratch) ldStep(t, u float64) float64 {
	return t + sc.kern.ttld.FromExp(-math.Log(u))
}

// ldClock maps time x onto the lazy chains' product clock, e^(-x·rate). A
// lazily laid arrival's clock value is e^(-genStart·rate) times
// the product of its chain's uniforms through it, which in exact
// arithmetic is ldClock of its start, so the arrival starts after x
// exactly when its clock value is below ldClock(x). Most chains start at
// 0 and end at the mission, and a drive failure's time is taken up to
// three times, so those cost no exp.
func (sc *blockScratch) ldClock(x float64) float64 {
	switch x {
	case 0:
		return 1
	case sc.ldMission:
		return sc.ldMissionC
	case sc.ldLast:
		return sc.ldLastC
	}
	sc.ldLast, sc.ldLastC = x, math.Exp(-x*sc.ldRate)
	return sc.ldLastC
}

// layPoisson is the lazy layout of a Poisson defect chain of rate
// sc.ldRate on [genStart, windowEnd): the same uniforms drawn in the same
// order as layEager, but each arrival stored as its raw uniform (pending)
// with its clock value, and its start left to materialize. The chain ends
// at the first arrival k whose exact start reaches windowEnd, i.e. (in
// exact arithmetic) where Σ_{i≤k} -log u_i ≥ (windowEnd-genStart)·rate,
// i.e. where its clock value ldClock(genStart)·Π u_i ≤ ldClock(windowEnd)
// — so the end is decided from the running product, without a log. A
// product within a relative ldBand of ldClock(windowEnd) falls back to the
// exact sequential sum, and every certain verdict matches layEager's.
// scanLive orders pending arrivals against query times the same way.
//
// Margin sketch, in units of ε = 2^-53 and hazard (arrival-count) units,
// m = Mission·rate ≥ h = (windowEnd-genStart)·rate; a relative error δ of
// a clock value is a hazard error δ. The product of n uniforms and the
// genStart clock carries ≤ n+1 relative roundings while it stays normal,
// which m ≤ ldMaxHazard secures. The genStart and windowEnd clocks carry
// ≤ m/2 each for the time × rate product and ≤ 1 for the exp, the band
// factor 1 more. The float chain layEager evaluates differs from the
// exact sum by ≤ 3ε·h for the n logs and kernel transforms and ≤ ε·m per
// addition (every partial start is below windowEnd ≤ Mission), n+1 of
// them counting the final comparison. Together ≤ (n+10)·(m+1)·ε, which
// prepDefectLayout keeps within half the band by capping n at ldMaxChain;
// a chain reaching the cap is laid eagerly from there. scanLive compares
// the same float chain with a query's clocks: ldClock(t) as above, and
// ldClock(t - scrubDead) taken as ldClock(t)·e^(scrubDead·rate), ≤ m/2+2
// more wherever t - scrubDead ≥ 0 (elsewhere its exact value exceeds 1
// and no clock value, a product of factors ≤ 1, can pass it). That
// comes to ≤ (n+6)·(m+1), inside the same bound; and a float start
// certainly below t - scrubDead has start + scrubDead ≤ t after rounding,
// t being a float.
func (sc *blockScratch) layPoisson(ch *blockChronology, genStart, windowEnd, driveFail float64) {
	c := sc.ldClock(windowEnd)
	hi, lo := c*(1+ldBand), c*(1-ldBand)
	p := sc.ldClock(genStart)
	for n := 0; ; n++ {
		u := sc.col.nextUniform()
		p *= u
		if p <= hi || n == sc.ldMaxChain {
			if p < lo && n < sc.ldMaxChain {
				return
			}
			// Inside the band, or at the chain cap: settle this arrival
			// and the rest of the chain by the exact sum.
			t := genStart
			if n > 0 {
				t = sc.materialize(ch.defects, len(ch.defects)-1)
			}
			if t = sc.ldStep(t, u); t < windowEnd {
				sc.pushDefect(ch, t, driveFail)
				sc.layEager(ch, t, windowEnd, driveFail)
			}
			return
		}
		d := sc.pushDefect(ch, u, driveFail)
		d.end, d.pending = genStart, pendingHead
		if n > 0 {
			d.end, d.pending = p, pendingLink
		}
	}
}

// pushDefect records a defect starting at start (or, for the caller to
// mark pending, holding its arrival uniform there) whose drive fails at
// driveFail, its scrub variate drawn (in stream order) but kept as the raw
// uniform, untransformed, and returns it. The entry is written field by
// field in place: a composite literal would be built in a stack temporary
// whose wide copy stalls on the narrow stores just made to it.
func (sc *blockScratch) pushDefect(ch *blockChronology, start, driveFail float64) *blockDefect {
	ch.defects = append(ch.defects, blockDefect{})
	d := &ch.defects[len(ch.defects)-1]
	d.start, d.cap = start, driveFail
	if sc.hasScrub {
		d.ue = sc.col.nextUniform()
	}
	return d
}

// materialize computes the pending starts of pending defect di's chain
// through di, in stream order through ldStep, and returns di's.
func (sc *blockScratch) materialize(ds []blockDefect, di int) float64 {
	j := di
	for ds[j].pending == pendingLink && ds[j-1].pending != materialized {
		j--
	}
	t := ds[j].end // pendingHead: the chain's generation start
	if ds[j].pending == pendingLink {
		t = ds[j-1].start
	}
	for ; j <= di; j++ {
		t = sc.ldStep(t, ds[j].start)
		ds[j].start, ds[j].pending = t, materialized
	}
	return t
}

// liveQuery is one defect-liveness query at time t: scanLive looks for
// the first defect live at t, stopping at the first start past t or at or
// past before (+Inf until a live defect bounds the search). The rest are
// clock values (ldClock) with the guard band applied, for the start-free
// verdicts on pending defects: a pending defect whose clock value k is
// below stopLo certainly starts past the stop bound, above stopHi
// certainly before it, and above deadHi certainly scrubDead or more
// before t. On an eager layout nothing is pending and they go unused.
type liveQuery struct {
	t, before              float64
	stopLo, stopHi, deadHi float64
}

// query starts a liveness query at t.
func (sc *blockScratch) query(t float64) liveQuery {
	q := liveQuery{t: t, before: math.Inf(1)}
	if sc.ldRate > 0 {
		c := sc.ldClock(t)
		q.stopLo, q.stopHi = c*(1-ldBand), c*(1+ldBand)
		q.deadHi = c * sc.ldDeadF * (1 + ldBand)
	}
	return q
}

// stopBefore bounds the query's scans to defects that start before
// start, the start of a live defect found at q.t (so at most q.t: this
// only ever tightens the stop).
func (q *liveQuery) stopBefore(sc *blockScratch, start float64) {
	q.before = start
	if sc.ldRate > 0 {
		c := sc.ldClock(start)
		q.stopLo, q.stopHi = c*(1-ldBand), c*(1+ldBand)
	}
}

// scanLive scans a slot's defects from index from for the first one live
// at q.t and returns its index (-1 if none) with the dead-prefix cursor:
// from advanced over the leading defects found dead. Defect starts are
// ascending within a slot, so the scan stops at the first start past q.t
// (nothing later covers t) or at or past q.before (nothing later beats the
// live defect already found), and the first live defect found is the
// slot's min-start live one — the same winner, under the same tie rules,
// as a full scan of the slot's defects.
//
// A pending defect is judged without its start wherever the clock can
// tell: it certainly starts past the stop bound, or certainly before it
// and is dead — its drive failed by t (cap), or it started scrubDead or
// more before t, so that the float start + scrubDead cannot exceed t (see
// defectLive). Only a defect inside a guard band, or in the live window
// (t - scrubDead, t], is materialized, and then the exact path decides, so
// every verdict and every start read is the one a fully materialized scan
// gives.
func (sc *blockScratch) scanLive(ds []blockDefect, from int, q *liveQuery) (live, scan int) {
	scan = from
	for di := from; di < len(ds); di++ {
		d := &ds[di]
		if d.pending != materialized {
			// The clock value: stored for a chain link, the generation
			// start's clock times the uniform for a chain head.
			k := d.end
			if d.pending == pendingHead {
				k = sc.ldClock(d.end) * d.start
			}
			if k < q.stopLo {
				return -1, scan
			}
			if k > q.stopHi && (q.t >= d.cap || k > q.deadHi) {
				if di == scan {
					scan++
				}
				continue
			}
			sc.materialize(ds, di)
		}
		if d.start > q.t || d.start >= q.before {
			return -1, scan
		}
		if sc.defectLive(d, q.t) {
			return di, scan
		}
		if di == scan {
			scan++
		}
	}
	return -1, scan
}

// defectLive reports whether the defect covers time t (its start,
// materialized, <= t already checked by the caller): t must be below both
// the lazy cap and the natural scrub end. A defect that started
// scrubDead or more before t is dead without a log: its draw e =
// -log(u) is at most -log(2^-53) < scrubDeadExp, so its natural end
// start + FromExp(e) is at most start + scrubDead (FromExp and the float
// addition are monotone). Otherwise the first query resolves the exact
// end start + FromExp(-log(u)) and memoizes it; defects never queried pay
// no transform.
//
// Liveness is monotone: once false for some t it is false for every
// later t, because end and the natural scrub completion are fixed and
// cap only ever decreases (the LdOp concomitant-repair rule). The sweep's
// dead-prefix cursor relies on this.
func (sc *blockScratch) defectLive(d *blockDefect, t float64) bool {
	if t >= d.cap {
		return false
	}
	if !d.resolved {
		if !sc.hasScrub {
			return true // no scrub: the natural end is +Inf
		}
		if t >= d.start+sc.scrubDead {
			return false
		}
		d.end = d.start + sc.kern.scrub.FromExp(-math.Log(d.ue))
		d.resolved = true
	}
	return t < d.end
}

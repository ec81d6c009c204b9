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
// rng.Uint64s refills of one small fixed size, the exponential transform
// taken per draw on demand — and runs the compiled kernel transforms as
// flat array math. Its output is pinned draw for draw by the block/* and
// block-direct/* golden digests (testdata/stream_digests.txt): the same
// stream yields the same DDFs and the same log weight.
//
// Five lazy-transform shortcuts keep the per-iteration math sublinear in
// the draw count without changing a single output bit:
//
//   - An operational draw whose raw uniform lies below the slot's censor
//     cut (dist.CensorCut of the mission hazard, precomputed per slot) is
//     ruled censored in the uniform domain, before any log is taken: the
//     cut maps strictly inside the banded hazard test below, so the draw
//     takes exactly the censored result that test would give it. Most
//     operational draws of a rare-event configuration land here.
//   - Otherwise, an operational draw (any generation) whose exponential
//     variate lies certainly above the slot's mission hazard H_s(M)
//     (dist.CompareHazard, guard-banded) is substituted with +Inf instead
//     of being transformed — H monotone means it is certainly past the
//     remaining mission too.
//     Any value strictly above the mission is output-equivalent there: the
//     slot loop breaks without appending an episode, the defect window is
//     clipped to the mission either way, and a defect end truncated by the
//     drive failure differs only beyond the mission, where no query ever
//     looks. Under bias the censored log ratio (θ-1)·H(M) is precomputed
//     per slot for first generations and computed directly
//     (TiltedKernel.CensoredLogLR, one cumulative hazard instead of
//     quantile + cumulative hazard) for later ones, so the skipped draw's
//     weight factor is still bit-exact.
//   - Scrub completions stay raw uniforms: a defect stores its scrub draw
//     untransformed and resolves the exact end start + FromExp(-log(u)),
//     memoized, only on its first liveness query. Defects never queried —
//     the overwhelming majority — never pay the log.
//   - A liveness query at t on a defect that started scrubDead =
//     FromExp(37) or more before t answers dead without the log: no
//     column uniform has an exponential variate above -log(2^-53) =
//     36.74, so no scrub draw outlives that offset.
//   - Defect arrivals of a Poisson TTLd process (dist.AsPoissonRate)
//     stay raw uniforms too: the chain end is decided by the running
//     product of the uniforms against e^(-h) (guard-banded, with the
//     exact sum as fallback), and a start is computed, in stream order,
//     only when the sweep or the conditional variate first reads it
//     (layPoisson, startAt). The layout is chosen once per run in prep:
//     configurations that expect many first-generation failures (strong
//     TTOp tilts) read nearly every arrival and are laid eagerly.
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

// colChunk is the uniforms fetched per bulk RNG refill — every refill,
// the first included. Small, because the generator work past the last
// draw an iteration consumes is pure waste (the runner reseeds per
// iteration): a rare-event iteration draws about ten uniforms, a scrubbed
// base-case one ~170, and a refill's fixed cost is a call plus a state
// load and store.
const colChunk = 32

// drawCol is the prefetched draw column: raw uniforms filled in bulk
// colChunk at a time, the exponential transform applied on demand at
// consumption (so draws whose log is never needed — scrub variates
// resolved lazily, operational draws censored below their cut — never pay
// for it), and the stratification override for the iteration's first
// accepted uniform.
type drawCol struct {
	r *rng.RNG
	// pos is the next entry to consume; colChunk means the column is
	// spent (every refill fills it whole).
	pos int
	// When strataK > 0 the next accepted (nonzero) uniform u is replaced
	// by (strataJ + u)/strataK before the exponential transform — the
	// within-block stratification of the first operational-failure draw.
	strataJ, strataK float64
	u                [colChunk]uint64
}

// reset binds the column to a generator for one iteration, dropping any
// prefetched tail (the runner reseeds per iteration) and arming stratum j
// of k (k = 0 disables stratification).
func (c *drawCol) reset(r *rng.RNG, j, k int) {
	c.r = r
	c.pos = colChunk
	c.strataJ, c.strataK = float64(j), float64(k)
}

// refill fetches the next chunk of raw uniforms. The chunking is
// invisible to the draw sequence — Uint64s is identical to sequential
// Uint64 calls regardless of slice length.
func (c *drawCol) refill() {
	c.r.Uint64s(c.u[:])
	c.pos = 0
}

// nextUniform returns the next nonzero uniform in (0,1), bit-identical to
// rng.Float64Open on the same stream: zero uniforms are consumed and
// retried. The exponential transform -log(u) is left to the caller, who
// may never need it. The common case — entry available, nonzero — stays
// short; refills and the (2^-53-probability) zero retry live in the slow
// path.
func (c *drawCol) nextUniform() float64 {
	if c.pos < colChunk {
		u := float64(c.u[c.pos]>>11) / (1 << 53)
		c.pos++
		if u > 0 {
			return u
		}
	}
	return c.nextUniformSlow()
}

func (c *drawCol) nextUniformSlow() float64 {
	for {
		if c.pos == colChunk {
			c.refill()
		}
		u := float64(c.u[c.pos]>>11) / (1 << 53)
		c.pos++
		if u > 0 {
			return u
		}
	}
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
// arrival uniform in place of its start until the start is first read
// (see startAt).
type blockDefect struct {
	// start is the creation time, or, while pending, the arrival's raw
	// uniform.
	start float64
	cap   float64
	// ue holds the scrub draw: the raw uniform until the first liveness
	// query logs it (logged), the unit exponential after.
	ue float64
	// end is the memoized natural end once resolved; while the defect is
	// a pendingHead it holds its chain's generation start instead.
	end      float64
	logged   bool
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
	// previous defect's start plus its own inter-arrival.
	pendingLink
)

// blockChronology is a slot's timeline in the block engine's lazy form.
// scan is the sweep's dead-prefix cursor: defects below it were found dead
// at an earlier (hence smaller, the sweep ascends) query time, and
// liveness is monotone, so they can never answer live again.
type blockChronology struct {
	ops     []opInterval
	defects []blockDefect
	scan    int
}

// blockScratch is the reusable per-worker state of the block engine: the
// compiled kernels, the draw column, per-slot chronologies, the merged
// failure sequence, and the per-slot acceleration constants (mission
// hazards, censor cuts, censored gen-1 log ratios, the control-variate
// expectation).
type blockScratch struct {
	kern   cfgKernels
	chrons []blockChronology
	fails  []intervalFailure
	col    drawCol
	// hm[s] = H_s(Mission), the base cumulative mission hazard of slot s's
	// operational-failure distribution — the gen-1 lazy-skip threshold and
	// the control variate's analytic input.
	hm []float64
	// ucut[s] = dist.CensorCut(hm[s], θ) (θ = 1 unbiased): an operational
	// draw whose uniform lies below it is censored without its log.
	ucut []float64
	// lr1[s] is the censored gen-1 log likelihood ratio (θ-1)·H_s(M),
	// substituted for a provably censored first draw under bias.
	lr1 []float64
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
	// ldH and ldC memoize the last window's e^(-h) = ldC: most windows
	// span the whole mission (a first-generation drive that outlives it),
	// so most chains share one h.
	ldH, ldC float64
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
		sc.lr1 = make([]float64, cfg.Drives)
	}
	sc.hm = sc.hm[:cfg.Drives]
	sc.ucut = sc.ucut[:cfg.Drives]
	sc.lr1 = sc.lr1[:cfg.Drives]
	sumH := 0.0
	for s := 0; s < cfg.Drives; s++ {
		if sc.kern.biasOp {
			tk := &sc.kern.ttopTilt[s]
			sc.hm[s] = tk.CumHazard(cfg.Mission)
			sc.ucut[s] = dist.CensorCut(sc.hm[s], tk.Theta())
			sc.lr1[s] = tk.CensoredLogLR(cfg.Mission)
		} else {
			sc.hm[s] = sc.kern.ttop[s].CumHazard(cfg.Mission)
			sc.ucut[s] = dist.CensorCut(sc.hm[s], 1)
			sc.lr1[s] = 0
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
		defectStart := math.Inf(1)
		for k := range chrons {
			if k == f.slot {
				continue
			}
			if opFailedAt(chrons[k].ops, t) {
				failedOthers++
				continue
			}
			// Defect starts are ascending within a slot, so the scan can
			// stop at the first start past t (nothing later covers t) or
			// past the best candidate (nothing later beats it), and the
			// first live defect found is the slot's min-start live one —
			// the same winner, under the same strict-< tie rule, as a full
			// scan of the slot's defects. The scan starts at the
			// dead-prefix cursor (failures sweep in ascending t and
			// liveness is monotone, so a leading dead defect stays dead)
			// and advances it over newly dead leading defects.
			ch := &chrons[k]
			ds := ch.defects
			for di := ch.scan; di < len(ds); di++ {
				start := sc.startAt(ds, di)
				if start > t || start >= defectStart {
					break
				}
				if d := &ds[di]; sc.defectLive(d, t) {
					defectStart = start
					defect = d
					break
				}
				if di == ch.scan {
					ch.scan = di + 1
				}
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
// reuses the lazily memoized defectLive, so the sweep pays nothing twice.
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
			ds := mc.defects
			for di := range ds {
				if sc.startAt(ds, di) > t {
					break
				}
				if sc.defectLive(&ds[di], t) {
					kill = true
					break
				}
			}
			if kill {
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
// defect intervals from the column, with the gen-1 lazy skip applied:
// drive generation g runs from its installation (the previous drive's
// failure time) to its own failure; defects arrive by renewal within that
// window and end at scrub completion or the drive's own failure, whichever
// is first. Returns the slot's log weight and whether its first-generation
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
	gen1 := true
	for {
		// Under bias the draw is censored at the residual mission: a drive
		// whose failure lands past the mission contributes no further
		// in-mission episodes, matching the event engine's discard boundary.
		dt, logLR := sc.drawTTOp(cfg, slot, upFrom, gen1)
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
		if gen1 {
			z = true
		}
		restore := fail + sc.kern.ttr.FromExp(sc.col.nextExp())
		ch.ops = append(ch.ops, opInterval{Fail: fail, RestoreEnd: restore})
		genStart = fail
		upFrom = restore
		gen1 = false
		if restore > cfg.Mission {
			// Defects on the replacement during a rebuild that outlives the
			// mission cannot affect any in-mission failure check.
			break
		}
	}
	return logW, z
}

// drawTTOp is the column-fed counterpart of cfgKernels.drawTTOp with the
// censoring skips: when the exponential variate is certainly past the
// slot's full mission hazard it is certainly past the remaining mission
// too (H is monotone, upFrom >= 0), so +Inf stands in for the transformed
// draw (output-equivalent — see the engine comment). The uniform-domain
// cut decides most such draws before the log is taken; the banded hazard
// test decides the rest, and the cut lies strictly inside it, so both
// reach the same verdict. Under bias the censored log ratio stands in for
// the weight factor: the precomputed (θ-1)·H(M) for a first-generation
// drive, the same CensoredLogLR the full transform would reach for later
// generations — one cumulative hazard instead of a quantile plus a
// cumulative hazard.
func (sc *blockScratch) drawTTOp(cfg *Config, slot int, upFrom float64, gen1 bool) (dt, logLR float64) {
	u := sc.col.nextOpen()
	censored := u < sc.ucut[slot]
	var e float64
	if !censored {
		e = -math.Log(u)
	}
	if sc.kern.biasOp {
		tk := &sc.kern.ttopTilt[slot]
		if censored || dist.CompareHazard(e/tk.Theta(), sc.hm[slot]) > 0 {
			if gen1 {
				return math.Inf(1), sc.lr1[slot]
			}
			return math.Inf(1), tk.CensoredLogLR(cfg.Mission - upFrom)
		}
		return tk.DrawLRFromExp(e, cfg.Mission-upFrom)
	}
	if censored || dist.CompareHazard(e, sc.hm[slot]) > 0 {
		return math.Inf(1), 0
	}
	return sc.kern.ttop[slot].FromExp(e), 0
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
		sc.pushDefect(ch, blockDefect{start: t, cap: driveFail})
	}
}

// Constants of the lazy defect layout (layPoisson, defectLive).
const (
	// scrubDeadExp bounds every unit exponential a scrub draw can take:
	// the column's smallest nonzero uniform is 2^-53, and -log(2^-53) =
	// 36.74 (stratification only ever remaps operational draws).
	scrubDeadExp = 37
	// ldBand is the relative guard band around e^(-h) inside which
	// layPoisson settles a chain's end by the exact arrival sum.
	ldBand = 0x1p-24
	// ldBandBudget bounds (n+10)·(Mission·rate+1), the rounding of an
	// n-arrival chain in units of 2^-53 (see layPoisson), so that it stays
	// within half the band: 2^-25 / 2^-53 = 2^28.
	ldBandBudget = 1 << 28
	// ldMaxWindowHazard bounds a lazily laid window's expected arrival
	// count h, keeping e^(-h) (≥ 1e-304) a normal float with the band
	// around it.
	ldMaxWindowHazard = 700
	// ldLazyMaxFailures is the crossover in expected first-generation
	// failures per group (under the sampling law) past which the eager
	// layout is faster: frequent failures cut windows short and get
	// nearly every arrival read, so deferring the log buys nothing and
	// the product and per-window exp cost extra. Measured on the paper's
	// base case under a TTOp tilt θ (16 interleaved pairs, 2 vCPUs),
	// lazy/eager time: θ = 1.25 (1.41 expected failures) 0.93, θ = 1.5
	// (1.66) 0.97, θ = 1.75 (1.90) 1.05, θ = 2 (2.13) 1.05, θ = 4 (3.70)
	// 1.10; unbiased (1.15) 0.86.
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
	n := ldBandBudget/(cfg.Mission*rate+1) - 10
	if !(n >= 1) {
		return
	}
	sc.ldRate = rate
	sc.ldMaxChain = int(min(n, math.MaxInt32))
	sc.ldH, sc.ldC = 0, 1
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
		sc.pushDefect(ch, blockDefect{start: t, cap: driveFail})
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

// layPoisson is the lazy layout of a Poisson defect chain of rate
// sc.ldRate on [genStart, windowEnd): the same uniforms drawn in the same
// order as layEager, but each arrival stored as its raw uniform (pending)
// and its start left to startAt. The chain ends at the first arrival k
// whose exact start reaches windowEnd, i.e. (in exact arithmetic) where
// Σ_{i≤k} -log u_i ≥ h = (windowEnd-genStart)·rate, i.e. Π u_i ≤ e^(-h) —
// so the end is decided from the running product, without a log. A
// product within a relative ldBand of e^(-h) falls back to the exact
// sequential sum, and every certain verdict matches layEager's.
//
// Margin sketch, in units of ε = 2^-53 and hazard (arrival-count) units,
// m = Mission·rate ≥ h. The product of n uniforms carries ≤ n relative
// roundings while it stays normal, which h ≤ ldMaxWindowHazard secures
// wherever it is compared near e^(-h) (a product that underflows is
// already a factor 2^53 below it). The float chain layEager evaluates
// differs from the exact sum by ≤ 3ε·h for the n logs and kernel
// transforms and ≤ ε·m per addition (every partial start is below
// windowEnd ≤ Mission), n+1 of them counting the final comparison;
// e^(-h) itself carries ≤ 5 more (windowEnd-genStart, the rate, the
// product with it, exp, the band factor). Together ≤ (n+10)·(m+1)·ε,
// which prepDefectLayout keeps within half the band by capping n at
// ldMaxChain; a chain reaching the cap, like a window past
// ldMaxWindowHazard, is laid eagerly from there.
func (sc *blockScratch) layPoisson(ch *blockChronology, genStart, windowEnd, driveFail float64) {
	h := (windowEnd - genStart) * sc.ldRate
	if !(h <= ldMaxWindowHazard) {
		sc.layEager(ch, genStart, windowEnd, driveFail)
		return
	}
	if h != sc.ldH {
		sc.ldH, sc.ldC = h, math.Exp(-h)
	}
	hi, lo := sc.ldC*(1+ldBand), sc.ldC*(1-ldBand)
	state := pendingHead
	p := 1.0
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
				t = sc.startAt(ch.defects, len(ch.defects)-1)
			}
			if t = sc.ldStep(t, u); t < windowEnd {
				sc.pushDefect(ch, blockDefect{start: t, cap: driveFail})
				sc.layEager(ch, t, windowEnd, driveFail)
			}
			return
		}
		sc.pushDefect(ch, blockDefect{start: u, cap: driveFail, end: genStart, pending: state})
		state = pendingLink
	}
}

// pushDefect records defect d, its scrub variate drawn (in stream order)
// but kept as the raw uniform, untransformed.
func (sc *blockScratch) pushDefect(ch *blockChronology, d blockDefect) {
	if sc.hasScrub {
		d.ue = sc.col.nextUniform()
	}
	ch.defects = append(ch.defects, d)
}

// startAt returns defect di's start, materializing it first if pending.
// The sweep and condZ read a slot's defects in index order from one
// already read (or from the first), so a pending defect's predecessor is
// usually materialized and materialize takes one step.
func (sc *blockScratch) startAt(ds []blockDefect, di int) float64 {
	if ds[di].pending == materialized {
		return ds[di].start
	}
	return sc.materialize(ds, di)
}

// materialize computes the pending starts of defect di's chain through
// di, in stream order through ldStep, and returns di's.
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

// defectLive reports whether the defect covers time t (its start,
// materialized, <= t already checked by the caller): t must be below both
// the lazy cap and the natural scrub end. A defect that started
// scrubDead or more before t is dead without a log: its draw e =
// -log(u) is at most -log(2^-53) < scrubDeadExp, so its natural end
// start + FromExp(e) is at most start + scrubDead (FromExp and the float
// addition are monotone). Otherwise the first query pays the
// exponential transform -log(u) (rng.ExpFloat64's exact value, memoized
// in ue); each query then tests liveness with the banded dist.CompareExp
// against the elapsed time, falling back to the exact end start +
// FromExp(e) only inside the guard band, and memoizing it. Defects never
// queried pay neither transform.
//
// Liveness is monotone: once false for some t it is false for every
// later t, because end and the natural scrub completion are fixed and
// cap only ever decreases (the LdOp concomitant-repair rule). The sweep's
// dead-prefix cursor relies on this.
func (sc *blockScratch) defectLive(d *blockDefect, t float64) bool {
	if t >= d.cap {
		return false
	}
	if d.resolved {
		return t < d.end
	}
	if !sc.hasScrub {
		return true // no scrub: the natural end is +Inf
	}
	if t >= d.start+sc.scrubDead {
		return false
	}
	if !d.logged {
		d.ue = -math.Log(d.ue)
		d.logged = true
	}
	switch sc.kern.scrub.CompareExp(d.ue, t-d.start) {
	case 1:
		return true
	case -1:
		return false
	}
	d.end = d.start + sc.kern.scrub.FromExp(d.ue)
	d.resolved = true
	return t < d.end
}

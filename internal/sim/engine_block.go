package sim

import (
	"fmt"
	"math"
	"slices"
	"sync"

	"raidrel/internal/analytic"
	"raidrel/internal/dist"
	"raidrel/internal/rng"
)

// BlockEngine is the batched structure-of-arrays implementation of the
// interval chronology. It consumes the RNG through a prefetched uniform
// column — one bulk rng.Uint64s refill ahead of a pre-logged exponential
// frontier — and runs the compiled kernel transforms as flat array math,
// while producing chronologies bit-identical to IntervalEngine: the same
// stream yields the same DDFs and the same log weight, draw for draw.
//
// Two lazy-transform shortcuts keep the per-iteration math sublinear in the
// draw count without breaking that identity:
//
//   - An operational draw (any generation) whose exponential variate lies
//     certainly above the slot's mission hazard H_s(M) (dist.CompareHazard,
//     guard-banded) is substituted with +Inf instead of being transformed —
//     H monotone means it is certainly past the remaining mission too.
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
//     untransformed and resolves the exact end -log(u) -> FromExp (the
//     same value the interval engine computes eagerly, memoized) only on
//     its first liveness query. Defects never queried — the overwhelming
//     majority — never pay the log.
//
// The engine requires every configured transition distribution to compile
// to a specialized kernel (dist.Kernel.Compiled — Weibull or Exponential,
// i.e. everything the paper's model uses); generic scripted distributions
// and finite spare pools are rejected, as is the interval engine's spare
// restriction. The NHPP defect process is supported through the same
// column.
//
// Like the scalar engines it implements Engine for one-group use; the
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

const (
	// colChunk is the uniforms fetched on the column's first bulk RNG
	// refill: covers the ~170-draw base-case iteration in one fill most of
	// the time.
	colChunk = 192
	// colChunkMore is the refill size after the first: tilted iterations
	// overrun the first chunk by a fraction of it, and a short tail chunk
	// keeps the generator from running far past the draws the chronology
	// actually consumes.
	colChunkMore = 64
)

// drawCol is the prefetched draw column: raw uniforms filled in bulk, the
// exponential transform applied on demand at consumption (so draws whose
// log is never needed — scrub variates resolved lazily — never pay for
// it), and the stratification override for the iteration's first accepted
// uniform.
type drawCol struct {
	r     *rng.RNG
	pos   int // next entry to consume
	n     int // filled entries
	first bool
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
	c.pos, c.n = 0, 0
	c.first = true
	c.strataJ, c.strataK = float64(j), float64(k)
}

// refill fetches the next chunk of raw uniforms: a full column first, then
// short tails. The chunking is invisible to the draw sequence — Uint64s is
// identical to sequential Uint64 calls regardless of slice length.
func (c *drawCol) refill() {
	n := colChunk
	if !c.first {
		n = colChunkMore
	}
	c.first = false
	c.r.Uint64s(c.u[:n])
	c.pos, c.n = 0, n
}

// nextUniform returns the next nonzero uniform in (0,1), bit-identical to
// rng.Float64Open on the same stream: zero uniforms are consumed and
// retried. The exponential transform -log(u) is left to the caller, who
// may never need it. The common case — entry available, nonzero — stays
// small enough to inline; refills and the (2^-53-probability) zero retry
// live in the slow path.
func (c *drawCol) nextUniform() float64 {
	if c.pos < c.n {
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
		if c.pos == c.n {
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
// rng.ExpFloat64 on the same stream.
func (c *drawCol) nextExp() float64 {
	if c.strataK > 0 {
		return c.nextExpStrata()
	}
	return -math.Log(c.nextUniform())
}

// nextExpStrata is the armed-stratum draw: the raw uniform is remapped
// into stratum strataJ of strataK before the exponential transform.
func (c *drawCol) nextExpStrata() float64 {
	u := (c.strataJ + c.nextUniform()) / c.strataK
	c.strataK = 0
	return -math.Log(u)
}

// nextFloat64 returns the next uniform in [0,1), bit-identical to
// rng.Float64 (no zero-skip) — the NHPP thinning acceptance draw.
func (c *drawCol) nextFloat64() float64 {
	if c.pos == c.n {
		c.refill()
	}
	u := float64(c.u[c.pos]>>11) / (1 << 53)
	c.pos++
	return u
}

// blockDefect is a latent defect with its scrub completion kept lazy: the
// effective end is min(natural scrub end, cap), where cap starts at the
// drive's own failure and may be lowered to a concomitant restore by the
// LdOp repair rule. The scrub draw is stored as its raw uniform — the
// exponential transform -log(u) and the kernel quantile are paid only on
// the first liveness query (memoized); defects never queried never
// transform at all.
type blockDefect struct {
	start float64
	cap   float64
	// ue holds the scrub draw: the raw uniform until the first liveness
	// query logs it (logged), the unit exponential after.
	ue       float64
	end      float64
	logged   bool
	resolved bool
}

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
// hazards, censored gen-1 log ratios, the control-variate expectation).
type blockScratch struct {
	kern   cfgKernels
	chrons []blockChronology
	fails  []intervalFailure
	col    drawCol
	// hm[s] = H_s(Mission), the base cumulative mission hazard of slot s's
	// operational-failure distribution — the gen-1 lazy-skip threshold and
	// the control variate's analytic input.
	hm []float64
	// lr1[s] is the censored gen-1 log likelihood ratio (θ-1)·H_s(M),
	// substituted for a provably censored first draw under bias.
	lr1 []float64
	// ez is the analytic expectation of the control variate: with the
	// indicator control, 1 - exp(-Σ_s H_s(M)); with the conditional-DDF
	// variate, the analytic.CondDDF quadrature (in [0, drives]).
	ez       float64
	latent   bool
	hasScrub bool
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
// state. cfg must already be validated. On error the scratch is left
// released.
func (sc *blockScratch) prep(cfg *Config) error {
	if cfg.Spares != nil {
		return errUnsupported("block", "a finite spare pool")
	}
	if cfg.Topology.Coupled() {
		return errUnsupported("block", "a coupled component topology")
	}
	// The exp-domain transforms have no generic fallback.
	if what := uncompiled(cfg); what != "" {
		return fmt.Errorf("sim: the block engine requires compiled (Weibull or Exponential) kernels, but %s does not compile; use IntervalEngine or EventEngine", what)
	}
	sc.kern.compile(cfg)
	sc.latent = cfg.Trans.latentEnabled()
	sc.hasScrub = cfg.Trans.TTScrub != nil

	if cap(sc.chrons) < cfg.Drives {
		grown := make([]blockChronology, cfg.Drives)
		copy(grown, sc.chrons[:cap(sc.chrons)])
		sc.chrons = grown
	}
	sc.chrons = sc.chrons[:cfg.Drives]
	if cap(sc.hm) < cfg.Drives {
		sc.hm = make([]float64, cfg.Drives)
		sc.lr1 = make([]float64, cfg.Drives)
	}
	sc.hm = sc.hm[:cfg.Drives]
	sc.lr1 = sc.lr1[:cfg.Drives]
	sumH := 0.0
	for s := 0; s < cfg.Drives; s++ {
		if sc.kern.biasOp {
			tk := &sc.kern.ttopTilt[s]
			sc.hm[s] = tk.CumHazard(cfg.Mission)
			sc.lr1[s] = tk.CensoredLogLR(cfg.Mission)
		} else {
			sc.hm[s] = sc.kern.ttop[s].CumHazard(cfg.Mission)
			sc.lr1[s] = 0
		}
		sumH += sc.hm[s]
	}
	sc.ez = -math.Expm1(-sumH)
	sc.cond = cfg.VR.CondVariate
	if sc.cond {
		sc.prepCond(cfg)
	}
	return nil
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
	switch {
	case cfg.Trans.TTLdRate != nil:
		model.LiveMean = analytic.LiveDefectMeanNHPP(cfg.Trans.TTLdRate, cfg.Trans.TTLdRateMax, surv, kinks, support)
	case cfg.Trans.TTLd != nil:
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

// SimulateInto implements Engine: one chronology from r's stream,
// bit-identical to IntervalEngine.SimulateInto — same DDFs, same logW. The
// draw column prefetches, so r ends up advanced past the consumed draws;
// reseed per iteration (as every runner does) rather than chaining draws.
func (BlockEngine) SimulateInto(cfg Config, r *rng.RNG, buf []DDF) ([]DDF, float64, error) {
	if err := cfg.Validate(); err != nil {
		return buf, 0, err
	}
	sc := blockScratchPool.Get().(*blockScratch)
	if err := sc.prep(&cfg); err != nil {
		blockScratchPool.Put(sc)
		return buf, 0, err
	}
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

	// Merge every operational failure, tagged with its slot — the same
	// slot-major append order and comparator as the interval engine, so the
	// sort permutes ties identically.
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
			if blockOpFailedAt(chrons[k].ops, t) {
				failedOthers++
				continue
			}
			// Defect starts are ascending within a slot, so the scan can
			// stop at the first start past t (nothing later covers t) or
			// past the best candidate (nothing later beats it), and the
			// first live defect found is the slot's min-start live one —
			// the same winner, under the same strict-< tie rule, as the
			// interval engine's full scan. The scan starts at the
			// dead-prefix cursor (failures sweep in ascending t and
			// liveness is monotone, so a leading dead defect stays dead)
			// and advances it over newly dead leading defects.
			ch := &chrons[k]
			ds := ch.defects
			for di := ch.scan; di < len(ds); di++ {
				d := &ds[di]
				if d.start > t || d.start >= defectStart {
					break
				}
				if sc.defectLive(d, t) {
					defectStart = d.start
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
			// The defective drive is repaired with the failed one: lower
			// the lazy end bound to the concomitant restore, which makes
			// the effective end min(natural, cap, restore) — exactly the
			// interval engine's truncation.
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
				d := &ds[di]
				if d.start > t {
					break
				}
				if sc.defectLive(d, t) {
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

// blockOpFailedAt is opFailedAt without the binary search: block
// chronologies hold a handful of episodes, so a linear scan with an early
// break beats sort.Search's closure indirection. Episodes are ascending in
// Fail, making the predicates equivalent.
func blockOpFailedAt(ops []opInterval, t float64) bool {
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

// buildSlot lays out one slot's episodes and defects from the column,
// draw-for-draw identical to buildSlotChronology, with the gen-1 lazy skip
// applied. Returns the slot's log weight and whether its first-generation
// drive failed within the mission.
func (sc *blockScratch) buildSlot(cfg *Config, slot int, ch *blockChronology) (logW float64, z bool) {
	genStart := 0.0 // installation time of the current drive
	upFrom := 0.0   // operational-clock start of the current drive
	gen1 := true
	for {
		dt, logLR := sc.drawTTOp(cfg, slot, upFrom, gen1)
		logW += logLR
		fail := upFrom + dt
		end := fail
		if end > cfg.Mission {
			end = cfg.Mission
		}
		if sc.latent {
			logW += sc.appendDefects(cfg, ch, genStart, end, fail)
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
			break
		}
	}
	return logW, z
}

// drawTTOp is the column-fed counterpart of cfgKernels.drawTTOp with the
// hazard-domain censoring skip: when the exponential variate is certainly
// past the slot's full mission hazard it is certainly past the remaining
// mission too (H is monotone, upFrom >= 0), so +Inf stands in for the
// transformed draw (output-equivalent — see the engine comment). Under
// bias the censored log ratio stands in for the weight factor: the
// precomputed (θ-1)·H(M) for a first-generation drive, the same
// CensoredLogLR the full transform would reach for later generations —
// one cumulative hazard instead of a quantile plus a cumulative hazard.
func (sc *blockScratch) drawTTOp(cfg *Config, slot int, upFrom float64, gen1 bool) (dt, logLR float64) {
	e := sc.col.nextExp()
	if sc.kern.biasOp {
		tk := &sc.kern.ttopTilt[slot]
		if dist.CompareHazard(e/tk.Theta(), sc.hm[slot]) > 0 {
			if gen1 {
				return math.Inf(1), sc.lr1[slot]
			}
			return math.Inf(1), tk.CensoredLogLR(cfg.Mission - upFrom)
		}
		return tk.DrawLRFromExp(e, cfg.Mission-upFrom)
	}
	if dist.CompareHazard(e, sc.hm[slot]) > 0 {
		return math.Inf(1), 0
	}
	return sc.kern.ttop[slot].FromExp(e), 0
}

// appendDefects renewal-samples defect arrivals on [genStart, windowEnd)
// from the column, mirroring the interval engine's appendDefects draw for
// draw; scrub completions stay in the exponential domain.
func (sc *blockScratch) appendDefects(cfg *Config, ch *blockChronology, genStart, windowEnd, driveFail float64) float64 {
	logW := 0.0
	t := genStart
	if sc.kern.plainTTLd {
		for {
			t += sc.kern.ttld.FromExp(sc.col.nextExp())
			if t >= windowEnd {
				return 0
			}
			sc.pushDefect(ch, t, driveFail)
		}
	}
	for {
		next, logLR := sc.nextDefect(cfg, t, windowEnd)
		logW += logLR
		t = next
		if t >= windowEnd {
			return logW
		}
		sc.pushDefect(ch, t, driveFail)
	}
}

// pushDefect records a defect created at t, its scrub variate drawn (in
// stream order) but kept as the raw uniform, untransformed.
func (sc *blockScratch) pushDefect(ch *blockChronology, t, driveFail float64) {
	d := blockDefect{start: t, cap: driveFail}
	if sc.hasScrub {
		d.ue = sc.col.nextUniform()
	}
	ch.defects = append(ch.defects, d)
}

// nextDefect is the column-fed counterpart of cfgKernels.nextDefect for
// the non-plain processes (NHPP thinning, tilted renewal).
func (sc *blockScratch) nextDefect(cfg *Config, from, horizon float64) (float64, float64) {
	switch {
	case cfg.Trans.TTLdRate != nil:
		t := from
		for {
			t += sc.col.nextExp() / cfg.Trans.TTLdRateMax
			if t > cfg.Mission {
				return t, 0 // beyond the horizon; caller discards
			}
			rate := cfg.Trans.TTLdRate(t)
			if rate < 0 || rate > cfg.Trans.TTLdRateMax {
				if rate < 0 {
					rate = 0
				} else {
					rate = cfg.Trans.TTLdRateMax
				}
			}
			if sc.col.nextFloat64()*cfg.Trans.TTLdRateMax < rate {
				return t, 0
			}
		}
	case cfg.Trans.TTLd != nil:
		if sc.kern.biasLd {
			dt, logLR := sc.kern.ttldTilt.DrawLRFromExp(sc.col.nextExp(), horizon-from)
			return from + dt, logLR
		}
		return from + sc.kern.ttld.FromExp(sc.col.nextExp()), 0
	default:
		return math.Inf(1), 0
	}
}

// defectLive reports whether the defect covers time t (start <= t already
// checked by the caller): t must be below both the lazy cap and the
// natural scrub end. The first query pays the exponential transform
// -log(u) (rng.ExpFloat64's exact value, memoized in ue); each query then
// tests liveness with the banded dist.CompareExp against the elapsed
// time, falling back to the exact quantile — the same start + FromExp(e)
// the interval engine computes eagerly — only inside the guard band, and
// memoizing it. Defects never queried pay neither transform.
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

// Package campaign orchestrates adaptive Monte Carlo campaigns on top of
// internal/sim. DDFs are rare events — the paper's base case yields ~0.27
// DDFs per 1,000 groups per 10 years — so a fixed iteration count either
// wastes cycles or returns statistically useless counts. The orchestrator
// instead runs iterations in batches and, after each batch:
//
//  1. computes a confidence interval on the per-group DDF probability —
//     Wilson for plain Monte Carlo, the weighted-normal interval of the
//     likelihood-ratio estimator when importance sampling (sim.Bias) is
//     on — and stops once a target relative half-width (or an iteration /
//     wall-clock budget) is reached;
//  2. appends the batch to a versioned JSON checkpoint journal — per-group
//     results plus the next RNG stream index — so a killed campaign resumes
//     bit-for-bit identically (stream i is always assigned to iteration i,
//     so the worker count and the kill point are both irrelevant);
//  3. reports progress (iterations/sec, running DDF counts by cause, CI
//     width, ETA) through a pluggable Progress sink.
package campaign

import (
	"context"
	"fmt"
	"math"
	"time"

	"raidrel/internal/sim"
	"raidrel/internal/stats"
)

// Default knobs applied by Spec.withDefaults.
const (
	// DefaultBatchSize is the iterations-per-batch default: small enough
	// for responsive progress and tight checkpoints, large enough that
	// batch overhead (CI computation, checkpoint write) is negligible.
	DefaultBatchSize = 1000
	// DefaultConfidence is the CI level used when Spec.Confidence is zero.
	DefaultConfidence = 0.95
)

// Spec describes an adaptive campaign.
type Spec struct {
	// Config is the simulated RAID-group configuration.
	Config sim.Config
	// Seed is the campaign RNG seed; iteration i always draws from
	// rng.ForStream(Seed, i) regardless of batching, workers, or resume.
	Seed uint64
	// Workers is the number of simulation workers the campaign's runner
	// keeps for its whole life (0 = GOMAXPROCS).
	Workers int
	// Engine selects the simulation engine (nil = sim.DefaultEngine of
	// Config, the fastest engine that can run it).
	Engine sim.Engine

	// Offset shifts the campaign's RNG stream assignment: local iteration i
	// draws from rng.ForStream(Seed, Offset+i). Shard j of n in an
	// N-iteration campaign runs Offset = j·N/n with MaxIterations =
	// (j+1)·N/n − j·N/n; merging the shard results in offset order
	// reproduces the unsharded campaign bit-exactly. Nonzero offsets enter
	// the fingerprint, so a shard checkpoint can only resume its own shard.
	Offset int

	// Fleet, when non-nil, runs fleet chronologies of Fleet.Groups coupled
	// RAID groups (shared spare pool, bounded repair bandwidth) instead of
	// independent groups. Iterations still count groups; batch sizes and
	// budgets are rounded up to whole chronologies, the heal-backlog tally
	// accumulates in Result.Fleet, and checkpoints carry it so a resumed
	// campaign's backlog statistics stay exact. Engine must be nil.
	Fleet *sim.FleetOptions

	// BatchSize is the number of iterations per batch (0 = DefaultBatchSize).
	BatchSize int
	// MinIterations is the floor below which the target-precision rule
	// never fires, guarding against lucky early stops (0 = one batch).
	MinIterations int

	// TargetRelErr stops the campaign once the relative half-width of the
	// CI on the per-group DDF probability drops to this value (e.g. 0.1
	// for ±10%). Zero disables the precision rule.
	TargetRelErr float64
	// Confidence is the CI level for the stopping rule and reports
	// (0 = DefaultConfidence).
	Confidence float64
	// MaxIterations is a hard iteration budget (0 = unlimited).
	MaxIterations int
	// MaxDuration is a wall-clock budget for this process, excluding any
	// time spent by a resumed-from run (0 = unlimited).
	MaxDuration time.Duration

	// Checkpoint, when non-empty, is a checkpoint journal path: the first
	// batch of a run rewrites it atomically, every later batch appends to
	// it, so the campaign can be killed and resumed.
	Checkpoint string
	// Resume, when non-empty, is a checkpoint file to restore before
	// running. When Checkpoint is empty, checkpoints continue to be
	// written to the Resume path.
	Resume string

	// Progress receives a snapshot after every batch and a final one on
	// completion (nil = no reporting).
	Progress Progress

	// now is a test hook for the clock.
	now func() time.Time
}

// withDefaults returns a copy of s with zero knobs filled in. Negative
// knobs are left alone for validate to reject — they signal caller error,
// not a request for the default.
func (s Spec) withDefaults() Spec {
	if s.BatchSize == 0 {
		s.BatchSize = DefaultBatchSize
	}
	// Every batch covers whole run units — VR blocks, which a split would
	// stratify over a partial quantile range and bias, or fleet
	// chronologies, which the runner cannot split — so round the batch
	// size and any iteration budget up to unit multiples.
	u := sim.RunSpec{Config: s.Config, Fleet: s.Fleet}.Unit()
	if s.BatchSize > 0 {
		s.BatchSize = roundUp(s.BatchSize, u)
	}
	if s.MaxIterations > 0 {
		s.MaxIterations = roundUp(s.MaxIterations, u)
	}
	if s.MinIterations == 0 {
		s.MinIterations = s.BatchSize
	}
	if s.Confidence == 0 {
		s.Confidence = DefaultConfidence
	}
	if s.now == nil {
		s.now = time.Now
	}
	return s
}

// validate rejects specs that cannot run or would never stop. Called on
// the defaulted copy.
func (s Spec) validate() error {
	if s.TargetRelErr < 0 {
		return fmt.Errorf("campaign: target relative error %v negative", s.TargetRelErr)
	}
	if s.BatchSize < 0 {
		return fmt.Errorf("campaign: batch size %d negative", s.BatchSize)
	}
	if s.MinIterations < 0 {
		return fmt.Errorf("campaign: min iterations %d negative", s.MinIterations)
	}
	if s.MaxDuration < 0 {
		return fmt.Errorf("campaign: max duration %v negative", s.MaxDuration)
	}
	if s.Confidence <= 0 || s.Confidence >= 1 {
		return fmt.Errorf("campaign: confidence level %v outside (0,1)", s.Confidence)
	}
	if s.MaxIterations < 0 {
		return fmt.Errorf("campaign: max iterations %d negative", s.MaxIterations)
	}
	if s.TargetRelErr == 0 && s.MaxIterations == 0 && s.MaxDuration == 0 {
		return fmt.Errorf("campaign: no stopping rule (set TargetRelErr, MaxIterations, or MaxDuration)")
	}
	// The first batch stands for every batch: all start on unit
	// boundaries and cover whole units.
	first := s.BatchSpec(0)
	if err := first.Validate(); err != nil {
		return err
	}
	if u := first.Unit(); s.Offset%u != 0 {
		return fmt.Errorf("campaign: stream offset %d is not a multiple of the run unit %d (shards must start on whole VR blocks or fleet chronologies)", s.Offset, u)
	}
	return nil
}

// roundUp rounds n up to the next multiple of m.
func roundUp(n, m int) int {
	if r := n % m; r != 0 {
		return n + m - r
	}
	return n
}

// Validate reports whether the spec (after defaulting) could run — the
// same checks Run performs before its first batch. Services accepting
// specs over the wire use it to reject bad requests at submit time instead
// of surfacing the error from a queued job later.
func (s Spec) Validate() error {
	return s.withDefaults().validate()
}

// BatchSpec returns the run of the batch that starts after done completed
// iterations, with zero knobs defaulted as Run defaults them: the next
// BatchSize iterations, clipped to MaxIterations, from stream Offset+done.
// Run simulates every batch through it and Validate checks the first one
// with sim.RunSpec.Validate, so submit-time and run-time checks agree.
func (s Spec) BatchSpec(done int) sim.RunSpec {
	s = s.withDefaults()
	batch := s.BatchSize
	if s.MaxIterations > 0 && done+batch > s.MaxIterations {
		batch = s.MaxIterations - done
	}
	return sim.RunSpec{
		Config:     s.Config,
		Iterations: batch,
		Seed:       s.Seed,
		Workers:    s.Workers,
		Engine:     s.Engine,
		Offset:     s.Offset + done,
		Fleet:      s.Fleet,
	}
}

// runSpec returns the run of the rest of the campaign after done
// completed iterations: BatchSpec(done) stretched to MaxIterations, or
// without an iteration budget to the longest range of whole batches the
// stream index can address. Run hands it to one sim.RunBatches runner.
func (s Spec) runSpec(done int) sim.RunSpec {
	rs := s.BatchSpec(done)
	if s.MaxIterations > 0 {
		rs.Iterations = s.MaxIterations - done
	} else {
		rs.Iterations = (math.MaxInt - rs.Offset) / s.BatchSize * s.BatchSize
	}
	return rs
}

// checkpointPath returns where checkpoints should be written, or "".
func (s Spec) checkpointPath() string {
	if s.Checkpoint != "" {
		return s.Checkpoint
	}
	return s.Resume
}

// StopReason records why a campaign ended.
type StopReason int

const (
	// StopNone means the campaign has not stopped.
	StopNone StopReason = iota
	// StopTarget: the CI reached the target relative half-width.
	StopTarget
	// StopMaxIterations: the iteration budget was exhausted.
	StopMaxIterations
	// StopMaxDuration: the wall-clock budget was exhausted.
	StopMaxDuration
	// StopCancelled: the context was cancelled; the checkpoint (if any)
	// reflects every completed batch.
	StopCancelled
)

// String implements fmt.Stringer.
func (s StopReason) String() string {
	switch s {
	case StopNone:
		return "running"
	case StopTarget:
		return "target precision reached"
	case StopMaxIterations:
		return "iteration budget exhausted"
	case StopMaxDuration:
		return "wall-clock budget exhausted"
	case StopCancelled:
		return "cancelled"
	default:
		return fmt.Sprintf("reason(%d)", int(s))
	}
}

// Result aggregates a finished (or cancelled) campaign.
type Result struct {
	// Run holds the merged results of every completed batch in sparse
	// form, exactly as a single sim.RunSparse of the same iteration count
	// would return them. Memory is O(events), so billion-iteration
	// rare-event campaigns accumulate in effectively constant space.
	Run *sim.SparseResult
	// Iterations is the number of completed iterations (== the next RNG
	// stream index).
	Iterations int
	// Batches is the number of batches executed, including any restored
	// from a checkpoint.
	Batches int
	// GroupsWithDDF counts groups that experienced at least one DDF —
	// the binomial numerator behind CI.
	GroupsWithDDF int
	// GroupsWithUnavail counts groups that experienced at least one
	// unavailability onset (a coupled-topology episode where a component
	// outage pushed the group past its redundancy without data loss). Zero
	// for flat topologies; never part of the loss statistics or CI.
	GroupsWithUnavail int
	// CI is the interval on the per-group DDF probability: Wilson for a
	// plain campaign, the weighted-normal interval of the likelihood-ratio
	// estimator when importance sampling is enabled.
	CI stats.Interval
	// RelErr is CI's relative half-width (+Inf until a DDF is seen).
	RelErr float64
	// ESS is the Kish effective sample size of the event-group importance
	// weights — the number of unweighted DDF groups carrying equivalent
	// statistical information. Zero for unbiased campaigns (where every
	// weight is 1 and ESS would equal GroupsWithDDF).
	ESS float64
	// VRPairs is the number of completed antithetic pairs; zero when
	// variance reduction (or antithetic pairing) is off.
	VRPairs int
	// VRCoeff is the fitted control-variate coefficient ĉ; zero when the
	// control variate is off or the control has no sample variance yet.
	VRCoeff float64
	// VRFactor is the variance-reduction factor: the naive per-iteration
	// estimator's variance divided by the achieved block-mean estimator's
	// variance, ≈ how many plain iterations one VR iteration is worth.
	// Zero until measurable.
	VRFactor float64
	// VRByVariate attributes VRFactor to the individual techniques; nil
	// until VRFactor is measurable or when VR is off.
	VRByVariate *VRBreakdown
	// Fleet aggregates the heal-backlog statistics of a fleet campaign
	// (Spec.Fleet); nil otherwise. It aliases Run.Fleet.
	Fleet *sim.FleetTally
	// Reason records which stopping rule fired.
	Reason StopReason
	// Elapsed is this process's wall-clock time in the campaign loop.
	Elapsed time.Duration
	// ResumedFrom is the iteration count restored from a checkpoint
	// (0 for a fresh campaign).
	ResumedFrom int
}

// PointEstimate is the point estimate p̂ of the per-group DDF probability.
// An importance-sampled or variance-reduced campaign (ESS or VRFactor
// positive) estimates the (adjusted) mean, the midpoint of its symmetric
// normal CI; otherwise p̂ is the raw event fraction GroupsWithDDF /
// Iterations, 0 before any iteration.
func (r *Result) PointEstimate() float64 {
	if r.ESS > 0 || r.VRFactor > 0 {
		return (r.CI.Lo + r.CI.Hi) / 2
	}
	if r.Iterations == 0 {
		return 0
	}
	return float64(r.GroupsWithDDF) / float64(r.Iterations)
}

// Run executes the campaign until a stopping rule fires or ctx is
// cancelled. Cancellation is not an error: the partial result is returned
// with Reason == StopCancelled, and the checkpoint file (if configured)
// holds every completed batch for a later Resume.
func Run(ctx context.Context, spec Spec) (*Result, error) {
	spec = spec.withDefaults()
	if err := spec.validate(); err != nil {
		return nil, err
	}

	run := &sim.SparseResult{}
	batches := 0
	resumedFrom := 0
	if spec.Resume != "" {
		ck, err := loadCheckpoint(spec.Resume, spec)
		if err != nil {
			return nil, err
		}
		run, batches, spec.Engine = ck.run, ck.batches, ck.engine
		resumedFrom = run.Groups
	}
	var ckpt *journal
	if path := spec.checkpointPath(); path != "" {
		ckpt = &journal{path: path, spec: spec}
		defer ckpt.close()
	}

	sum := newSummary(spec)
	sum.extend(run)
	start := spec.now()
	// res is the view the stopping rules judge: assembled once per batch,
	// right after the batch merges, and judged with its wall clock
	// refreshed.
	res := assemble(spec, sum, run, batches, resumedFrom, 0)
	// judge applies the stopping rules to res and reports whether the
	// campaign goes on.
	judge := func() bool {
		done := run.Groups
		res.Elapsed = spec.now().Sub(start)
		switch {
		case ctx.Err() != nil:
			res.Reason = StopCancelled
		case spec.TargetRelErr > 0 && done >= spec.MinIterations && res.RelErr <= spec.TargetRelErr:
			res.Reason = StopTarget
		case spec.MaxIterations > 0 && done >= spec.MaxIterations:
			res.Reason = StopMaxIterations
		case spec.MaxDuration > 0 && done > 0 && res.Elapsed >= spec.MaxDuration:
			res.Reason = StopMaxDuration
		}
		return res.Reason == StopNone
	}
	// br collects one batch at a time; reusing it keeps its event capacity
	// from batch to batch.
	br := &sim.SparseResult{}
	var saveErr error
	// boundary runs between batches on this goroutine while the runner's
	// workers simulate ahead: merge, summary, journal, progress, stopping
	// rules.
	boundary := func(int) bool {
		run.Merge(br)
		br.Reset()
		batches++
		sum.extend(run)
		if ckpt != nil {
			if err := ckpt.save(run, batches); err != nil {
				saveErr = fmt.Errorf("campaign: checkpoint: %w", err)
				return false
			}
		}
		res = assemble(spec, sum, run, batches, resumedFrom, spec.now().Sub(start))
		report(spec, res, start, false)
		return judge()
	}
	// One runner serves the rest of the campaign; the loop only comes round
	// again if an unbounded campaign exhausts its stream range.
	for res.Reason == StopNone && judge() {
		err := sim.RunBatches(spec.runSpec(run.Groups), spec.BatchSize, br, boundary)
		if saveErr != nil {
			return nil, saveErr
		}
		if err != nil {
			return nil, err
		}
		// Stamped once the runner has drained, so the wall clock covers
		// the whole campaign loop.
		res.Elapsed = spec.now().Sub(start)
	}
	report(spec, res, start, true)
	if ckpt != nil {
		if err := ckpt.close(); err != nil {
			return nil, fmt.Errorf("campaign: checkpoint: %w", err)
		}
	}
	return res, nil
}

// Summarize builds the Result view — counts, CI, relative error, ESS — of
// an externally assembled run, exactly as Run would report it at the same
// state. The service layer uses it to summarize shard merges: k shard
// results combined through sim.SparseResult.Merge are handed here with the
// unsharded spec, yielding the same statistics an unsharded campaign of
// run.Groups iterations would have produced. Reason is left as StopNone;
// the run did not pass through a stopping rule. It folds the whole run
// into a fresh summary in one step — the same code Run extends batch by
// batch.
func Summarize(spec Spec, run *sim.SparseResult) *Result {
	spec = spec.withDefaults()
	sum := newSummary(spec)
	sum.extend(run)
	return assemble(spec, sum, run, 0, 0, 0)
}

// assemble builds the Result view of the current state from the summary
// of run's events.
func assemble(spec Spec, sum *summary, run *sim.SparseResult, batches, resumedFrom int, elapsed time.Duration) *Result {
	done := run.Groups
	res := &Result{
		Run:         run,
		Iterations:  done,
		Batches:     batches,
		Reason:      StopNone,
		Elapsed:     elapsed,
		ResumedFrom: resumedFrom,
	}
	res.RelErr = math.Inf(1)
	res.Fleet = run.Fleet
	if done > 0 {
		res.GroupsWithDDF = sum.ddfGroups
		res.GroupsWithUnavail = sum.unavailGroups
		if spec.Config.Bias.Enabled() {
			// ESS stays the weight-degeneracy diagnostic of any
			// importance-sampled campaign, whichever interval stops it.
			res.ESS = sum.ess()
		}
		switch {
		case spec.Config.VR.Enabled() && run.VR != nil && len(run.VR.Blocks) >= 2:
			// Variance-reduced campaign: blocks are iid by construction, so
			// the stopping interval is a normal interval over block means —
			// control-variate adjusted when that technique is on.
			assembleVR(spec, run.VR, res)
		case spec.Config.Bias.Enabled():
			// Importance-sampled campaign: the observations are the
			// likelihood-ratio weights of event groups (implied zeros
			// elsewhere), not 0/1 indicators, so Wilson does not apply.
			// Stop on the weighted-normal interval instead.
			ci, err := sum.weightedCI(done, spec.Confidence)
			if err == nil {
				res.CI = ci
				if res.GroupsWithDDF > 0 {
					res.RelErr = ci.RelativeHalfWidth()
				}
			}
		default:
			ci, err := stats.WilsonCI(res.GroupsWithDDF, done, spec.Confidence)
			if err == nil {
				res.CI = ci
				if res.GroupsWithDDF > 0 {
					// With zero events the Wilson interval is [0, hi] and its
					// relative half-width is identically 1 — no information
					// about the rate at all. Keep RelErr infinite so neither
					// the stopping rule nor the ETA treats it as progress.
					res.RelErr = ci.RelativeHalfWidth()
				}
			}
		}
	}
	return res
}

// assembleVR fills res.CI, res.RelErr, and the VR diagnostics from the
// run's block tallies. Each block contributes one mean observation; with
// the control variate on, the interval is the control-adjusted one around
// ȳ - ĉ·(z̄ - EZ).
func assembleVR(spec Spec, vr *sim.VRTally, res *Result) {
	ys := make([]float64, len(vr.Blocks))
	zs := make([]float64, len(vr.Blocks))
	var sumY, sumY2 float64
	n := 0
	for i, b := range vr.Blocks {
		ys[i] = b.Y / float64(b.N)
		zs[i] = b.Z / float64(b.N)
		sumY += b.Y
		sumY2 += b.Y2
		n += b.N
	}
	var ci stats.Interval
	var err error
	if spec.Config.VR.AnyControl() {
		ci, res.VRCoeff, err = stats.ControlVariateCI(ys, zs, vr.EZ, spec.Confidence)
	} else {
		ci, err = stats.NormalMeanCI(ys, spec.Confidence)
	}
	if err != nil {
		return
	}
	res.VRPairs = vr.Pairs()
	res.RelErr = ci.RelativeHalfWidth()
	half := (ci.Hi - ci.Lo) / 2
	// VRFactor compares the naive per-iteration estimator's standard error
	// (from the unblocked sums Σy, Σy²) against the achieved half-width.
	if n > 1 && half > 0 {
		mean := sumY / float64(n)
		if v1 := sumY2/float64(n) - mean*mean; v1 > 0 {
			naiveHalf := stats.ZScore(ci.Level) * math.Sqrt(v1/float64(n))
			res.VRFactor = (naiveHalf / half) * (naiveHalf / half)
		}
	}
	res.VRByVariate = vrBreakdown(spec.Config.VR, vr, ys, zs, res.VRFactor)
	// The normal interval over block means can cross zero; the estimand is
	// a probability, so clamp for display after the relative-error math.
	if ci.Lo < 0 {
		ci.Lo = 0
	}
	res.CI = ci
}

// VRBreakdown attributes the campaign's overall variance-reduction factor
// to the individual techniques. Each field is the multiplicative factor
// credited to that technique (how many plain iterations one of its
// iterations is worth); fields for techniques that are off stay zero. The
// attribution is a diagnostic, not an exact decomposition: antithetic and
// control credits come from their own sample statistics, and stratification
// receives the residual, so interaction effects land on Stratified.
type VRBreakdown struct {
	// Antithetic is v₁/(v₁+cov): the per-sample variance against the pair
	// co-moment, the classical antithetic gain.
	Antithetic float64 `json:"antithetic,omitempty"`
	// Stratified is the residual factor VRFactor/(Antithetic·control) —
	// what remains of the measured total after the other credits.
	Stratified float64 `json:"stratified,omitempty"`
	// Control is 1/(1-r²) for the indicator control variate.
	Control float64 `json:"control,omitempty"`
	// Cond is 1/(1-r²) for the conditional-DDF variate.
	Cond float64 `json:"cond,omitempty"`
}

// vrBreakdown computes the per-variate attribution from the block tallies.
// Returns nil until the total factor is measurable.
func vrBreakdown(v sim.VR, vr *sim.VRTally, ys, zs []float64, total float64) *VRBreakdown {
	if !(total > 0) {
		return nil
	}
	bd := &VRBreakdown{}
	if v.Antithetic {
		var sumY, sumY2, sumC float64
		var n, p int
		for _, b := range vr.Blocks {
			sumY += b.Y
			sumY2 += b.Y2
			sumC += b.C
			n += b.N
			p += b.P
		}
		if p > 0 && n > 0 {
			mean := sumY / float64(n)
			v1 := sumY2/float64(n) - mean*mean
			cov := sumC/float64(p) - mean*mean
			if v1 > 0 && v1+cov > 0 {
				bd.Antithetic = v1 / (v1 + cov)
			}
		}
	}
	if v.AnyControl() {
		var acc stats.CVAccum
		for i := range ys {
			acc.Add(ys[i], zs[i])
		}
		f := total // cap: a control cannot be credited more than the total
		if r2 := acc.R2(); r2 < 1 {
			if g := 1 / (1 - r2); g < f || !(f > 1) {
				f = g
			}
		}
		if v.CondVariate {
			bd.Cond = f
		} else {
			bd.Control = f
		}
	}
	if v.Stratify {
		denom := 1.0
		for _, f := range []float64{bd.Antithetic, bd.Control, bd.Cond} {
			if f > 0 {
				denom *= f
			}
		}
		bd.Stratified = total / denom
	}
	return bd
}

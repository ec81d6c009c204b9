// Package core is the paper's model: a RAID N+1 group whose drives fail
// operationally, silently corrupt data, get rebuilt, and get scrubbed
// according to generalized (three-parameter Weibull) distributions, with
// double-disk failures counted by sequential Monte Carlo simulation. It
// ties the dist, sim, stats, analytic, and markov substrates into the
// public API the examples and experiments consume.
package core

import (
	"context"
	"fmt"
	"math"
	"sort"
	"time"

	"raidrel/internal/analytic"
	"raidrel/internal/campaign"
	"raidrel/internal/dist"
	"raidrel/internal/sim"
	"raidrel/internal/stats"
)

// WeibullSpec is a three-parameter Weibull in the paper's (γ, η, β)
// notation.
type WeibullSpec struct {
	Location float64 `json:"location,omitempty"` // γ, hours
	Scale    float64 `json:"scale"`              // η, hours
	Shape    float64 `json:"shape"`              // β
}

// Dist materializes the spec.
func (s WeibullSpec) Dist() (dist.Weibull, error) {
	return dist.NewWeibull(s.Shape, s.Scale, s.Location)
}

// ComponentSpec describes one shared hardware component of the group — an
// enclosure, expander, or controller whose failure makes every drive
// behind it inaccessible at once (without destroying the data on them).
type ComponentSpec struct {
	// Name identifies the component; it must be unique within the topology.
	Name string `json:"name"`
	// Parent optionally names the component this one sits behind, forming a
	// tree: a parent's outage takes down its whole subtree, so a parent's
	// effective drive cover is its own Drives plus every descendant's.
	Parent string `json:"parent,omitempty"`
	// Drives lists the drive slots directly attached to this component.
	Drives []int `json:"drives,omitempty"`
	// Paths is the number of redundant instances (dual porting, paired
	// expanders); the component is only down while every instance is down.
	// Zero means one path.
	Paths int `json:"paths,omitempty"`
	// TTOp is the per-instance time-to-failure distribution.
	TTOp WeibullSpec `json:"tt_op"`
	// TTR is the per-instance repair-time distribution.
	TTR WeibullSpec `json:"ttr"`
}

// TopologySpec is the JSON form of the component topology: the shared
// failure domains above the drives. Nil (or an empty component list) is
// the flat, drives-only model of the paper.
type TopologySpec struct {
	Components []ComponentSpec `json:"components"`
}

// lower resolves the component tree — effective drive cover = own drives
// plus every descendant's — and materializes the engine topology. A nil or
// empty spec lowers to nil (flat).
func (t *TopologySpec) lower() (*sim.Topology, error) {
	if t == nil || len(t.Components) == 0 {
		return nil, nil
	}
	idx := make(map[string]int, len(t.Components))
	for i, c := range t.Components {
		if c.Name == "" {
			return nil, fmt.Errorf("core: topology component %d has no name", i)
		}
		if _, dup := idx[c.Name]; dup {
			return nil, fmt.Errorf("core: duplicate topology component %q", c.Name)
		}
		idx[c.Name] = i
	}
	children := make([][]int, len(t.Components))
	for i, c := range t.Components {
		if c.Parent == "" {
			continue
		}
		p, ok := idx[c.Parent]
		if !ok {
			return nil, fmt.Errorf("core: component %q names unknown parent %q", c.Name, c.Parent)
		}
		children[p] = append(children[p], i)
	}

	// Depth-first effective covers with cycle detection; the set semantics
	// deduplicate a slot reachable through several children.
	const (
		unvisited = 0
		visiting  = 1
		doneMark  = 2
	)
	state := make([]int, len(t.Components))
	covers := make([]map[int]bool, len(t.Components))
	var cover func(i int) (map[int]bool, error)
	cover = func(i int) (map[int]bool, error) {
		switch state[i] {
		case visiting:
			return nil, fmt.Errorf("core: topology parent cycle through component %q", t.Components[i].Name)
		case doneMark:
			return covers[i], nil
		}
		state[i] = visiting
		set := make(map[int]bool)
		for _, d := range t.Components[i].Drives {
			set[d] = true
		}
		for _, ch := range children[i] {
			sub, err := cover(ch)
			if err != nil {
				return nil, err
			}
			for d := range sub {
				set[d] = true
			}
		}
		state[i] = doneMark
		covers[i] = set
		return set, nil
	}

	out := &sim.Topology{Components: make([]sim.Component, len(t.Components))}
	for i, c := range t.Components {
		set, err := cover(i)
		if err != nil {
			return nil, err
		}
		drives := make([]int, 0, len(set))
		for d := range set {
			drives = append(drives, d)
		}
		sort.Ints(drives)
		ttop, err := c.TTOp.Dist()
		if err != nil {
			return nil, fmt.Errorf("core: component %q TTOp: %w", c.Name, err)
		}
		ttr, err := c.TTR.Dist()
		if err != nil {
			return nil, fmt.Errorf("core: component %q TTR: %w", c.Name, err)
		}
		out.Components[i] = sim.Component{
			Name:   c.Name,
			Drives: drives,
			Paths:  c.Paths,
			TTOp:   ttop,
			TTR:    ttr,
		}
	}
	return out, nil
}

// Params is the full parameterization of one study — the programmatic form
// of the paper's Table 2 plus the structural knobs (group size, redundancy,
// mission, which processes are enabled).
type Params struct {
	// GroupSize is the total number of drives (the paper's N+1).
	GroupSize int `json:"group_size"`
	// Redundancy is the number of tolerated simultaneous drive losses:
	// 1 models RAID 4/5, 2 models the RAID 6 extension.
	Redundancy int `json:"redundancy"`
	// MissionHours is the simulated horizon (87,600 in the paper).
	MissionHours float64 `json:"mission_hours"`

	// TTOp is the time-to-operational-failure distribution.
	TTOp WeibullSpec `json:"tt_op"`
	// TTR is the time-to-restore distribution.
	TTR WeibullSpec `json:"ttr"`

	// LatentDefects enables the usage-dependent data-corruption process.
	LatentDefects bool `json:"latent_defects,omitempty"`
	// TTLd is the time-to-latent-defect distribution (β = 1 in the paper:
	// corruption arrives at a constant usage-driven rate).
	TTLd WeibullSpec `json:"tt_ld"`

	// Scrub enables background scrubbing of latent defects.
	Scrub bool `json:"scrub,omitempty"`
	// TTScrub is the time from defect creation to scrub correction.
	TTScrub WeibullSpec `json:"tt_scrub"`

	// SlotTTOp optionally gives each drive slot its own operational-failure
	// distribution — a group assembled from mixed manufacturing vintages
	// (Fig. 2). When non-empty its length must equal GroupSize; zero-value
	// entries fall back to TTOp.
	SlotTTOp []WeibullSpec `json:"slot_tt_op,omitempty"`

	// Spares optionally bounds the spare-drive pool (the paper assumes a
	// spare is always available); nil keeps that assumption.
	Spares *sim.SparePolicy `json:"spares,omitempty"`

	// Topology optionally describes the shared hardware components —
	// enclosures, expanders, controllers — the drives sit behind. A
	// component outage makes its drives inaccessible (recoverable on
	// repair, distinct from data loss) and pauses their rebuilds; nil is
	// the flat drives-only model. Coupled topologies run on the event
	// engine only.
	Topology *TopologySpec `json:"topology,omitempty"`

	// Bias optionally enables failure-biased importance sampling: hazards
	// are scaled up by the given factors during sampling and every
	// estimate is reweighted by the likelihood ratio, so rare DDFs are
	// reached with orders of magnitude fewer iterations at unchanged
	// expectation. The zero value is plain Monte Carlo.
	Bias sim.Bias `json:"bias"`

	// VR optionally stacks block-level variance reduction (antithetic
	// stream pairs, stratified first-failure quantiles, analytic control
	// variate) on top of plain or importance-sampled simulation, on the
	// batched block engine; the zero value changes nothing.
	VR sim.VR `json:"vr"`

	// Fleet optionally couples each iteration's RAID groups into a fleet
	// sharing a spare pool and a bounded repair crew (Fleet.Groups groups
	// per chronology, at most Fleet.MaxConcurrentRebuilds concurrent
	// rebuilds). Iterations still count groups; heal-backlog statistics
	// accumulate alongside the DDF estimate. Nil keeps the paper's
	// independent-group model. Incompatible with VR, Bias, and Topology.
	Fleet *sim.FleetOptions `json:"fleet,omitempty"`

	// ExponentialOp forces a constant-rate TTOp with the same mean as the
	// Weibull spec (the paper's "c-" variants in Fig. 6).
	ExponentialOp bool `json:"exponential_op,omitempty"`
	// ExponentialRestore forces a constant-rate TTR with the same mean
	// (the "-c" variants).
	ExponentialRestore bool `json:"exponential_restore,omitempty"`
}

// Base case of the paper's Table 2 (§6, reconstructed — see DESIGN.md):
// TTOp Weibull(γ=0, η=461,386, β=1.12); TTR Weibull(γ=6, η=12, β=2);
// TTLd constant rate 1.08e-4/h (medium read-error rate at the low hourly
// read volume of Table 1), i.e. Weibull(γ=0, η=9,259, β=1); TTScrub
// Weibull(γ=6, η=168, β=3).
const (
	// BaseMTBFHours is the characteristic life of the field TTOp fit.
	BaseMTBFHours = 461386
	// BaseTTLdScaleHours is 1/1.08e-4, the Table 1 medium×low cell.
	BaseTTLdScaleHours = 9259
	// BaseMissionHours is the paper's 10-year mission.
	BaseMissionHours = 87600
	// BaseScrubHours is the paper's base-case 168-hour scrub.
	BaseScrubHours = 168
)

// BaseCase returns the paper's base-case parameters: 8 drives, 10-year
// mission, latent defects on, 168-hour scrubbing.
func BaseCase() Params {
	return Params{
		GroupSize:     8,
		Redundancy:    1,
		MissionHours:  BaseMissionHours,
		TTOp:          WeibullSpec{Location: 0, Scale: BaseMTBFHours, Shape: 1.12},
		TTR:           WeibullSpec{Location: 6, Scale: 12, Shape: 2},
		LatentDefects: true,
		TTLd:          WeibullSpec{Location: 0, Scale: BaseTTLdScaleHours, Shape: 1},
		Scrub:         true,
		TTScrub:       WeibullSpec{Location: 6, Scale: BaseScrubHours, Shape: 3},
	}
}

// WithScrubPeriod returns a copy of p scrubbing with characteristic period
// hours (Fig. 9's 12/48/168/336-hour sweep); hours <= 0 disables scrubbing.
// It is the one home of the §6.4 TTScrub rule: shape 3, and as location
// the preset p.TTScrub.Location (a drive's minimum scrub pass, say), 6 h
// when unset, halved when it reaches the period. A non-finite period is
// left for New to reject.
func (p Params) WithScrubPeriod(hours float64) Params {
	if hours <= 0 {
		p.Scrub = false
		return p
	}
	p.Scrub = true
	loc := p.TTScrub.Location
	if loc <= 0 {
		loc = 6
	}
	if loc >= hours {
		// Keep the minimum below the characteristic period for very fast
		// scrubs.
		loc = hours / 2
	}
	p.TTScrub = WeibullSpec{Location: loc, Scale: hours, Shape: 3}
	return p
}

// WithoutLatentDefects returns a copy of p with the corruption process
// disabled (the Fig. 6 variants).
func (p Params) WithoutLatentDefects() Params {
	p.LatentDefects = false
	p.Scrub = false
	return p
}

// WithOpShape returns a copy of p with the TTOp shape parameter replaced
// at fixed characteristic life (Fig. 10's β sweep).
func (p Params) WithOpShape(beta float64) Params {
	p.TTOp.Shape = beta
	return p
}

// simConfig lowers Params to the engine configuration.
func (p Params) simConfig() (sim.Config, error) {
	ttop, err := p.TTOp.Dist()
	if err != nil {
		return sim.Config{}, fmt.Errorf("core: TTOp: %w", err)
	}
	ttr, err := p.TTR.Dist()
	if err != nil {
		return sim.Config{}, fmt.Errorf("core: TTR: %w", err)
	}
	trans := sim.Transitions{TTOp: ttop, TTR: ttr}
	if p.ExponentialOp {
		// The paper's constant-rate variants use the nominal MTBF (the
		// characteristic life η fed to equation 3), so the c-c case tracks
		// the MTTDL line.
		e, err := dist.ExponentialFromMean(p.TTOp.Scale)
		if err != nil {
			return sim.Config{}, fmt.Errorf("core: exponential TTOp: %w", err)
		}
		trans.TTOp = e
	}
	if p.ExponentialRestore {
		e, err := dist.ExponentialFromMean(p.TTR.Scale)
		if err != nil {
			return sim.Config{}, fmt.Errorf("core: exponential TTR: %w", err)
		}
		trans.TTR = e
	}
	if p.LatentDefects {
		ttld, err := p.TTLd.Dist()
		if err != nil {
			return sim.Config{}, fmt.Errorf("core: TTLd: %w", err)
		}
		trans.TTLd = ttld
		if p.Scrub {
			scrub, err := p.TTScrub.Dist()
			if err != nil {
				return sim.Config{}, fmt.Errorf("core: TTScrub: %w", err)
			}
			trans.TTScrub = scrub
		}
	}
	topo, err := p.Topology.lower()
	if err != nil {
		return sim.Config{}, err
	}
	cfg := sim.Config{
		Drives:     p.GroupSize,
		Redundancy: p.Redundancy,
		Mission:    p.MissionHours,
		Trans:      trans,
		Spares:     p.Spares,
		Bias:       p.Bias,
		VR:         p.VR,
		Topology:   topo,
	}
	if len(p.SlotTTOp) > 0 {
		if len(p.SlotTTOp) != p.GroupSize {
			return sim.Config{}, fmt.Errorf("core: %d slot TTOp specs for %d drives",
				len(p.SlotTTOp), p.GroupSize)
		}
		cfg.SlotTTOp = make([]dist.Distribution, p.GroupSize)
		for i, spec := range p.SlotTTOp {
			if spec == (WeibullSpec{}) {
				continue // fall back to the group TTOp
			}
			d, err := spec.Dist()
			if err != nil {
				return sim.Config{}, fmt.Errorf("core: slot %d TTOp: %w", i, err)
			}
			cfg.SlotTTOp[i] = d
		}
	}
	return cfg, nil
}

// WithMixedVintages returns a copy of p whose drives cycle through the
// given vintage TTOp specs (slot i gets vintages[i mod len]).
func (p Params) WithMixedVintages(vintages []WeibullSpec) Params {
	if len(vintages) == 0 {
		p.SlotTTOp = nil
		return p
	}
	slots := make([]WeibullSpec, p.GroupSize)
	for i := range slots {
		slots[i] = vintages[i%len(vintages)]
	}
	p.SlotTTOp = slots
	return p
}

// Model is a runnable study.
type Model struct {
	params Params
	cfg    sim.Config
}

// New validates p and returns a Model.
func New(p Params) (*Model, error) {
	cfg, err := p.simConfig()
	if err != nil {
		return nil, err
	}
	// Validate the shape of the model's smallest run: the group config,
	// the default engine's feature support, and for a fleet the coupling
	// knobs plus the features the fleet path cannot honor.
	run := sim.RunSpec{Config: cfg, Fleet: p.Fleet}
	run.Iterations = run.Unit()
	if err := run.Validate(); err != nil {
		return nil, err
	}
	return &Model{params: p, cfg: cfg}, nil
}

// Params returns the model's parameters.
func (m *Model) Params() Params { return m.params }

// SimConfig returns the validated engine configuration the model runs —
// for advanced uses such as tracing single chronologies with
// sim.SimulateTraced or swapping in custom engines.
func (m *Model) SimConfig() sim.Config { return m.cfg }

// Run simulates the given number of independent RAID groups with the given
// seed and returns the aggregated result. Iterations is the paper's "RAID
// groups monitored": 1,000 groups × 10 years in the headline numbers. Run
// is a one-batch adaptive campaign, so the count is rounded up to whole run
// units exactly as RunAdaptive rounds its budget: whole VR blocks for
// variance-reduced models, whole fleet chronologies for fleet models.
// Result.Groups reports the count simulated.
func (m *Model) Run(iterations int, seed uint64) (*Result, error) {
	if iterations < 1 {
		return nil, fmt.Errorf("core: iterations must be >= 1, got %d", iterations)
	}
	res, err := m.RunAdaptive(context.Background(), seed, AdaptiveOptions{MaxIterations: iterations, BatchSize: iterations})
	if err != nil {
		return nil, err
	}
	return res.Result, nil
}

// AdaptiveOptions steers Model.RunAdaptive. The zero value is not
// runnable: at least one stopping rule (TargetRelErr, MaxIterations, or
// MaxDuration) must be set.
type AdaptiveOptions struct {
	// TargetRelErr stops once the Wilson CI on the per-group DDF
	// probability reaches this relative half-width (e.g. 0.1 for ±10%);
	// 0 disables the precision rule.
	TargetRelErr float64
	// Confidence is the CI level (0 = 0.95).
	Confidence float64
	// BatchSize is iterations per batch (0 = campaign.DefaultBatchSize).
	BatchSize int
	// MinIterations guards against lucky early stops (0 = one batch).
	MinIterations int
	// MaxIterations is a hard iteration budget (0 = unlimited).
	MaxIterations int
	// MaxDuration is a wall-clock budget (0 = unlimited).
	MaxDuration time.Duration
	// Checkpoint, when set, is the checkpoint journal, brought up to date
	// after every batch.
	Checkpoint string
	// Resume, when set, restores a checkpoint before running; further
	// checkpoints go to the same path unless Checkpoint overrides it.
	Resume string
	// Workers is per-batch parallelism (0 = GOMAXPROCS).
	Workers int
	// Progress receives telemetry after each batch (nil = silent).
	Progress campaign.Progress
}

// AdaptiveResult couples the usual derived-statistics view with the
// campaign telemetry (iteration count, CI, stopping reason).
type AdaptiveResult struct {
	*Result
	Campaign *campaign.Result
}

// RunAdaptive runs an adaptively sized Monte Carlo campaign: batches of
// iterations until the DDF-rate confidence interval is tight enough or a
// budget runs out, with optional checkpoint/resume and progress
// telemetry. Results are bit-for-bit identical to Model.Run at the same
// final iteration count — batching, worker count, and resume points do
// not perturb the RNG stream assignment.
func (m *Model) RunAdaptive(ctx context.Context, seed uint64, opts AdaptiveOptions) (*AdaptiveResult, error) {
	cres, err := campaign.Run(ctx, campaign.Spec{
		Config:        m.cfg,
		Seed:          seed,
		Workers:       opts.Workers,
		BatchSize:     opts.BatchSize,
		MinIterations: opts.MinIterations,
		TargetRelErr:  opts.TargetRelErr,
		Confidence:    opts.Confidence,
		MaxIterations: opts.MaxIterations,
		MaxDuration:   opts.MaxDuration,
		Checkpoint:    opts.Checkpoint,
		Resume:        opts.Resume,
		Progress:      opts.Progress,
		Fleet:         m.params.Fleet,
	})
	if err != nil {
		return nil, err
	}
	if cres.Iterations == 0 {
		// Cancelled before the first batch finished: there is no sample
		// to build statistics from.
		return nil, fmt.Errorf("core: adaptive campaign cancelled before any iterations completed")
	}
	// Importance-sampled runs feed the weighted MCF; for unbiased runs the
	// weight slice is nil and the computation is bit-identical to the
	// unweighted one.
	times, weights := cres.Run.TimesAndWeights()
	mcf, err := stats.MCFFromWeightedTimes(times, weights, cres.Iterations)
	if err != nil {
		return nil, fmt.Errorf("core: mcf: %w", err)
	}
	res := &Result{Groups: cres.Iterations, Mission: m.params.MissionHours, Raw: cres.Run, mcf: mcf}
	return &AdaptiveResult{Result: res, Campaign: cres}, nil
}

// Result aggregates one Monte Carlo campaign. Raw is the sparse event
// index: only the groups that produced DDFs are materialized, so a
// million-group campaign costs memory proportional to its (rare) events.
type Result struct {
	Groups  int
	Mission float64
	Raw     *sim.SparseResult
	mcf     []stats.MCFPoint
}

// DDFsPer1000GroupsAt returns the expected cumulative DDFs per 1,000 RAID
// groups by time t — the y-axis of the paper's Figs. 6, 7, 9, and 10.
func (r *Result) DDFsPer1000GroupsAt(t float64) float64 {
	return stats.MCFAt(r.mcf, t) * 1000
}

// Curve samples the cumulative DDFs-per-1,000-groups on an even grid.
func (r *Result) Curve(points int) (times, ddfsPer1000 []float64) {
	times, vals := stats.CumulativeCurve(r.mcf, r.Mission, points)
	for i := range vals {
		vals[i] *= 1000
	}
	return times, vals
}

// ROCOF returns windowed DDF counts per 1,000 groups (the paper's Fig. 8).
func (r *Result) ROCOF(window float64) ([]stats.ROCOFPoint, error) {
	points, err := stats.ROCOF(r.mcf, r.Mission, window)
	if err != nil {
		return nil, err
	}
	for i := range points {
		points[i].Rate *= 1000
		points[i].Count *= 1000
	}
	return points, nil
}

// FirstYearDDFsPer1000 returns the cumulative count at 8,760 hours, the
// quantity tabulated in Table 3.
func (r *Result) FirstYearDDFsPer1000() float64 {
	return r.DDFsPer1000GroupsAt(analytic.HoursPerYear)
}

// UnavailPer1000Groups returns the expected unavailability onsets per
// 1,000 RAID groups over the mission — episodes where a shared-component
// outage pushed the group past its redundancy without losing data. The
// count is importance-weighted like CauseBreakdown; zero for flat
// topologies.
func (r *Result) UnavailPer1000Groups() float64 {
	return r.Raw.WeightedUnavailTotal() * 1000 / float64(r.Groups)
}

// GroupUnavailProbability returns the fraction of simulated groups that
// experienced at least one unavailability episode; zero for flat
// topologies.
func (r *Result) GroupUnavailProbability() float64 {
	return float64(r.Raw.GroupsWithUnavail()) / float64(r.Groups)
}

// Fleet returns the heal-backlog tally of a fleet run — repair-queue
// depth, per-rebuild waits, and worst degradation exposure accumulated
// across chronologies — or nil for independent-group runs.
func (r *Result) Fleet() *sim.FleetTally {
	return r.Raw.Fleet
}

// CauseBreakdown returns the OpOp and LdOp counts per 1,000 groups over
// the full mission. The counts are importance-weighted; for unbiased runs
// (every weight exactly 1) they equal the raw integer tallies.
func (r *Result) CauseBreakdown() (opop, ldop float64) {
	scale := 1000 / float64(r.Groups)
	_, wOpOp, wLdOp := r.Raw.WeightedCauseTotals()
	return wOpOp * scale, wLdOp * scale
}

// ConfidenceInterval returns a normal-approximation confidence interval
// (e.g. level 0.95) for the DDFs-per-1,000-groups estimate at time t,
// built from the per-group counts. Only the groups with events are
// scanned — O(events), not O(groups·events); the event-free groups enter
// the estimate as exact zeros.
func (r *Result) ConfidenceInterval(t float64, level float64) (stats.Interval, error) {
	ci, err := stats.NormalMeanCISparse(r.Raw.GroupCounts(t), r.Groups, level)
	if err != nil {
		return stats.Interval{}, fmt.Errorf("core: confidence interval: %w", err)
	}
	ci.Lo *= 1000
	ci.Hi *= 1000
	return ci, nil
}

// MTTDLComparison contrasts a simulated count with the MTTDL estimate at
// the same horizon.
type MTTDLComparison struct {
	Horizon    float64 // hours
	Simulated  float64 // DDFs per 1,000 groups from the model
	MTTDL      float64 // DDFs per 1,000 groups from equation 3
	Ratio      float64 // Simulated / MTTDL
	MTTDLYears float64 // the MTTDL itself, in years
}

// CompareWithMTTDL computes the Table 3 style ratio at the given horizon.
// The MTTDL input uses the nominal MTBF and MTTR (the characteristic
// lives), exactly how the paper feeds equation 1 in its equation 3 worked
// example.
func (m *Model) CompareWithMTTDL(r *Result, horizon float64) (MTTDLComparison, error) {
	in := analytic.MTTDLInput{
		N:    m.params.GroupSize - 1,
		MTBF: m.params.TTOp.Scale,
		MTTR: m.params.TTR.Scale,
	}
	mttdl, err := analytic.MTTDL(in)
	if err != nil {
		return MTTDLComparison{}, err
	}
	expected, err := analytic.ExpectedDDFs(in, horizon, 1000)
	if err != nil {
		return MTTDLComparison{}, err
	}
	simulated := r.DDFsPer1000GroupsAt(horizon)
	ratio := math.Inf(1)
	if expected > 0 {
		ratio = simulated / expected
	}
	return MTTDLComparison{
		Horizon:    horizon,
		Simulated:  simulated,
		MTTDL:      expected,
		Ratio:      ratio,
		MTTDLYears: analytic.Years(mttdl),
	}, nil
}

// Package raidrel estimates the reliability of RAID storage systems with
// the enhanced model of Elerath & Pecht, "Enhanced Reliability Modeling of
// RAID Storage Systems" (DSN 2007): per-drive three-parameter Weibull
// distributions for operational failure, restoration, latent-defect
// creation, and scrubbing, evaluated by sequential Monte Carlo simulation
// of double-disk failures (DDFs). It corrects the classical MTTDL
// method's homogeneous-Poisson assumptions and accounts for silent data
// corruption.
//
// This root package is the stable public facade over the internal
// implementation packages. Quick start:
//
//	model, err := raidrel.New(raidrel.BaseCase())
//	if err != nil { ... }
//	res, err := model.Run(10000, 1) // 10,000 RAID groups, seed 1
//	if err != nil { ... }
//	fmt.Println(res.DDFsPer1000GroupsAt(87600)) // DDFs per 1,000 groups in 10 years
//
// Model.Run is a one-batch adaptive campaign, so variance-reduced and
// fleet models round the iteration count up to whole units — VR blocks or
// fleet chronologies — exactly as Model.RunAdaptive rounds its budget;
// Result.Groups reports the count simulated.
//
// See DESIGN.md for the system inventory and EXPERIMENTS.md for the
// paper-versus-measured record of every reproduced table and figure.
package raidrel

import (
	"io"

	"raidrel/internal/analytic"
	"raidrel/internal/campaign"
	"raidrel/internal/core"
	"raidrel/internal/sim"
)

// Re-exported model types. The core package defines the implementation;
// these aliases are the supported public names.
type (
	// Params parameterizes a study: group structure, mission, and the four
	// transition distributions of the paper's Fig. 4.
	Params = core.Params
	// WeibullSpec is a three-parameter Weibull in (γ location, η scale,
	// β shape) form.
	WeibullSpec = core.WeibullSpec
	// Model is a validated, runnable study.
	Model = core.Model
	// Result aggregates one Monte Carlo campaign.
	Result = core.Result
	// MTTDLComparison contrasts the simulation with the MTTDL estimate.
	MTTDLComparison = core.MTTDLComparison
	// SparePolicy bounds the spare-drive pool (Params.Spares); nil keeps
	// the paper's always-available-spare assumption.
	SparePolicy = sim.SparePolicy
	// Bias configures failure-biased importance sampling (Params.Bias):
	// hazards are scaled up during sampling and every estimate is
	// reweighted by the likelihood ratio, accelerating rare-event
	// campaigns without biasing the expectation. The zero value is plain
	// Monte Carlo.
	Bias = sim.Bias
)

// Adaptive-campaign types (Model.RunAdaptive): DDFs are rare events, so
// instead of a fixed iteration count the orchestrator runs batches until
// the Wilson confidence interval on the per-group DDF probability reaches
// a target relative half-width or a budget runs out, checkpointing after
// every batch so a killed campaign resumes bit-for-bit identically.
type (
	// AdaptiveOptions steers an adaptive campaign: precision target,
	// budgets, batch size, checkpoint/resume paths, progress sink.
	AdaptiveOptions = core.AdaptiveOptions
	// AdaptiveResult couples the usual Result with campaign telemetry.
	AdaptiveResult = core.AdaptiveResult
	// CampaignResult is the orchestrator's view: iterations, CI, batches,
	// stopping reason.
	CampaignResult = campaign.Result
	// Progress receives a telemetry Snapshot after every batch.
	Progress = campaign.Progress
	// ProgressFunc adapts a function to the Progress interface.
	ProgressFunc = campaign.ProgressFunc
	// Snapshot is one telemetry frame: iterations/sec, DDF counts by
	// cause, CI width, ETA.
	Snapshot = campaign.Snapshot
	// StopReason records which stopping rule ended a campaign.
	StopReason = campaign.StopReason
)

// Stopping reasons reported in CampaignResult.Reason.
const (
	// StopTarget: the CI reached the target relative half-width.
	StopTarget = campaign.StopTarget
	// StopMaxIterations: the iteration budget was exhausted.
	StopMaxIterations = campaign.StopMaxIterations
	// StopMaxDuration: the wall-clock budget was exhausted.
	StopMaxDuration = campaign.StopMaxDuration
	// StopCancelled: the context was cancelled between batches.
	StopCancelled = campaign.StopCancelled
)

// StderrProgress returns the default campaign telemetry reporter, writing
// one status line per batch to standard error.
func StderrProgress() Progress { return campaign.StderrProgress() }

// WriterProgress returns a campaign telemetry reporter writing to w.
func WriterProgress(w io.Writer) Progress { return campaign.WriterProgress(w) }

// BaseCase returns the paper's Table 2 base case: an 8-drive RAID 4/5
// group on a 10-year mission with latent defects and 168-hour scrubbing.
func BaseCase() Params { return core.BaseCase() }

// New validates params and returns a runnable model.
func New(p Params) (*Model, error) { return core.New(p) }

// MTTDLInput holds the constant-rate inputs of the classical calculation.
type MTTDLInput = analytic.MTTDLInput

// MTTDL returns the classical mean time to data loss (the paper's eq. 1)
// in hours.
func MTTDL(in MTTDLInput) (float64, error) { return analytic.MTTDL(in) }

// ExpectedDDFs returns the homogeneous-Poisson DDF estimate (eq. 3) for a
// fleet over a horizon.
func ExpectedDDFs(in MTTDLInput, hours float64, groups int) (float64, error) {
	return analytic.ExpectedDDFs(in, hours, groups)
}

// MTTDLDoubleParity returns the classical RAID 6 approximation
// MTBF³/(m(m-1)(m-2)·MTTR²) with m = N+2 — as blind to latent defects as
// equation 1.
func MTTDLDoubleParity(in MTTDLInput) (float64, error) {
	return analytic.MTTDLDoubleParity(in)
}

// HoursPerYear is the paper's 8,760-hour year.
const HoursPerYear = analytic.HoursPerYear

// Command raidsim runs the enhanced RAID reliability model for an
// arbitrary configuration and prints the cumulative double-disk-failure
// curve, the cause breakdown, and the comparison against the MTTDL
// estimate. Campaigns can be fixed-size (-iterations) or adaptive:
// -target-rel-err keeps simulating in batches until the confidence
// interval on the DDF rate is tight enough, -checkpoint/-resume survive
// kills bit-for-bit, and -progress streams live telemetry to stderr.
//
// Usage (all flags optional; defaults are the paper's base case):
//
//	raidsim [-drives 8] [-redundancy 1] [-mission 87600]
//	        [-op-eta 461386] [-op-beta 1.12]
//	        [-ttr-gamma 6] [-ttr-eta 12] [-ttr-beta 2]
//	        [-ld-rate 1.08e-4] [-scrub 168]
//	        [-topology topo.json]
//	        [-fleet 100] [-repair-slots 4]
//	        [-iterations 10000] [-seed 1] [-csv]
//	        [-trace]
//	        [-target-rel-err 0.1] [-confidence 0.95]
//	        [-max-iterations N] [-max-duration 1h] [-batch 1000]
//	        [-checkpoint c.json] [-resume c.json] [-progress[=json]]
//	        [-bias 4] [-bias-ld 1]
//	        [-vr antithetic,stratify,cv|cond] [-batch-block 256]
//	        [-cpuprofile cpu.prof] [-memprofile mem.prof]
//
// -topology loads a component topology — the shared failure domains
// (enclosures, expanders, controllers) the drives sit behind — as a JSON
// document of the core.TopologySpec schema:
//
//	{"components": [
//	  {"name": "enclosure", "drives": [0,1,2,3,4,5,6,7],
//	   "tt_op": {"scale": 200000, "shape": 1}, "ttr": {"scale": 2000, "shape": 1}},
//	  {"name": "expander", "parent": "enclosure", "paths": 2,
//	   "tt_op": {"scale": 150000, "shape": 1}, "ttr": {"scale": 300, "shape": 1}}
//	]}
//
// A component outage makes every drive behind it inaccessible at once and
// pauses their rebuilds — distinct from data loss, reported separately as
// unavailability onsets. Coupled topologies run on the event engine and
// cannot combine with -vr or a spare pool.
//
// -fleet couples every N simulated groups into one fleet chronology and
// -repair-slots bounds its repair bandwidth: at most K rebuilds run
// concurrently fleet-wide (0 = unlimited), with queued rebuilds granted to
// the most-degraded group first. The summary then includes the heal
// backlog — queue depth, rebuild waits, and the worst degradation
// exposure. Iteration counts round up to whole chronologies. Fleet runs
// cannot combine with -vr, -bias, or -topology.
//
// -bias enables importance sampling: operational-failure hazards are
// scaled up by the factor during sampling and every estimate is
// reweighted by the likelihood ratio, so rare DDFs are resolved with far
// fewer iterations at unchanged expectation.
//
// -vr stacks block-level variance reduction on top (see DESIGN.md §12):
// antithetic stream pairs, stratified first-failure quantiles, and a
// control — the indicator control variate ("cv") for no-scrub regimes, or
// the conditional-DDF variate ("cond") for scrubbed ones, where the
// indicator loses its correlation ("all" enables antithetic+stratify+cv;
// "cond" requires a memoryless defect process and excludes "cv"). Every
// run uses the batched block engine unless its configuration needs the
// event engine (a coupled -topology); -batch-block sets the block length,
// which is also the VR block size. With -vr on, iteration counts round up
// to whole VR blocks.
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"runtime"
	"runtime/pprof"
	"syscall"

	"strings"

	"raidrel/internal/campaign"
	"raidrel/internal/core"
	"raidrel/internal/report"
	"raidrel/internal/sim"
)

func main() {
	// Between-batch cancellation: on SIGINT/SIGTERM the campaign loop
	// finishes its current batch, leaves the checkpoint current, and the
	// partial summary still prints.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if err := run(ctx, os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "raidsim:", err)
		os.Exit(1)
	}
}

func run(ctx context.Context, args []string, out io.Writer) error {
	fs := flag.NewFlagSet("raidsim", flag.ContinueOnError)
	drives := fs.Int("drives", 8, "drives in the group (N+1)")
	redundancy := fs.Int("redundancy", 1, "tolerated simultaneous losses (1=RAID5, 2=RAID6)")
	mission := fs.Float64("mission", 87600, "mission, hours")
	opEta := fs.Float64("op-eta", core.BaseMTBFHours, "TTOp characteristic life, hours")
	opBeta := fs.Float64("op-beta", 1.12, "TTOp shape")
	ttrGamma := fs.Float64("ttr-gamma", 6, "TTR minimum, hours")
	ttrEta := fs.Float64("ttr-eta", 12, "TTR characteristic life, hours")
	ttrBeta := fs.Float64("ttr-beta", 2, "TTR shape")
	ldRate := fs.Float64("ld-rate", 1.08e-4, "latent defects per drive-hour (0 disables)")
	scrubHours := fs.Float64("scrub", 168, "scrub period, hours (0 disables)")
	topoFile := fs.String("topology", "", "JSON component-topology file (shared failure domains; empty = flat drives-only model)")
	fleet := fs.Int("fleet", 0, "couple every N groups into one fleet chronology (0 = independent groups)")
	repairSlots := fs.Int("repair-slots", 0, "fleet-wide concurrent-rebuild cap, most-degraded group first (0 = unlimited; requires -fleet)")
	iterations := fs.Int("iterations", 10000, "simulated RAID groups (fixed-size campaigns)")
	seed := fs.Uint64("seed", 1, "RNG seed")
	csv := fs.Bool("csv", false, "emit the cumulative curve as CSV")
	trace := fs.Bool("trace", false, "render a single group's Fig.-5 timing diagram instead of a campaign")
	targetRelErr := fs.Float64("target-rel-err", 0, "adaptive: stop when the DDF-rate CI relative half-width reaches this (0 disables)")
	confidence := fs.Float64("confidence", 0.95, "adaptive: confidence level for the stopping CI")
	maxIterations := fs.Int("max-iterations", 0, "adaptive: hard iteration budget (0 = unlimited)")
	maxDuration := fs.Duration("max-duration", 0, "adaptive: wall-clock budget, e.g. 30m (0 = unlimited)")
	batch := fs.Int("batch", 0, "adaptive: iterations per batch (0 = default)")
	checkpoint := fs.String("checkpoint", "", "adaptive: write a resumable checkpoint file after every batch")
	resume := fs.String("resume", "", "adaptive: restore campaign state from a checkpoint file")
	var progress progressMode
	fs.Var(&progress, "progress", "adaptive: stream per-batch telemetry to stderr; -progress means text, -progress=json emits one JSON object per batch")
	bias := fs.Float64("bias", 0, "importance sampling: operational-failure hazard scale factor (0 or 1 = off)")
	biasLd := fs.Float64("bias-ld", 0, "importance sampling: latent-defect hazard scale factor (0 or 1 = off; rarely useful, see DESIGN.md)")
	vrFlag := fs.String("vr", "", "variance reduction: comma list of antithetic, stratify, cv, cond — or all (empty = off)")
	batchBlock := fs.Int("batch-block", 0, "block engine batch length / VR block size (0 = default)")
	cpuProfile := fs.String("cpuprofile", "", "write a CPU profile of the campaign to this file (go tool pprof)")
	memProfile := fs.String("memprofile", "", "write a heap profile (after GC) to this file on exit")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		if err != nil {
			return fmt.Errorf("-cpuprofile: %w", err)
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			return fmt.Errorf("-cpuprofile: %w", err)
		}
		defer pprof.StopCPUProfile()
	}
	if *memProfile != "" {
		defer func() {
			f, err := os.Create(*memProfile)
			if err != nil {
				fmt.Fprintln(os.Stderr, "raidsim: -memprofile:", err)
				return
			}
			defer f.Close()
			runtime.GC() // settle the heap so the profile shows retained allocations
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintln(os.Stderr, "raidsim: -memprofile:", err)
			}
		}()
	}
	if *ldRate < 0 {
		return fmt.Errorf("-ld-rate %v negative (use 0 to disable latent defects)", *ldRate)
	}
	if *scrubHours < 0 {
		return fmt.Errorf("-scrub %v negative (use 0 to disable scrubbing)", *scrubHours)
	}

	p := core.Params{
		GroupSize:    *drives,
		Redundancy:   *redundancy,
		MissionHours: *mission,
		TTOp:         core.WeibullSpec{Scale: *opEta, Shape: *opBeta},
		TTR:          core.WeibullSpec{Location: *ttrGamma, Scale: *ttrEta, Shape: *ttrBeta},
	}
	if *ldRate > 0 {
		p.LatentDefects = true
		p.TTLd = core.WeibullSpec{Scale: 1 / *ldRate, Shape: 1}
		// A zero period disables scrubbing, so one call covers both the
		// scrubbing and the -scrub 0 case.
		p = p.WithScrubPeriod(*scrubHours)
	}
	if *topoFile != "" {
		data, err := os.ReadFile(*topoFile)
		if err != nil {
			return fmt.Errorf("-topology: %w", err)
		}
		dec := json.NewDecoder(bytes.NewReader(data))
		dec.DisallowUnknownFields()
		var ts core.TopologySpec
		if err := dec.Decode(&ts); err != nil {
			return fmt.Errorf("-topology %s: %w", *topoFile, err)
		}
		p.Topology = &ts
	}
	p.Bias.Op = *bias
	p.Bias.Ld = *biasLd
	vr, err := parseVR(*vrFlag)
	if err != nil {
		return err
	}
	if *batchBlock < 0 {
		return fmt.Errorf("-batch-block %d negative", *batchBlock)
	}
	vr.BlockSize = *batchBlock
	p.VR = vr
	if *fleet > 0 {
		p.Fleet = &sim.FleetOptions{Groups: *fleet, MaxConcurrentRebuilds: *repairSlots}
	} else if *fleet < 0 {
		return fmt.Errorf("-fleet %d negative (use 0 for independent groups)", *fleet)
	} else if *repairSlots != 0 {
		return fmt.Errorf("-repair-slots needs -fleet (a repair cap is a fleet-wide property)")
	}
	if *trace {
		return renderTrace(out, p, *seed)
	}
	m, err := core.New(p)
	if err != nil {
		return err
	}

	// Any non-zero value routes through the campaign orchestrator, whose
	// validation rejects nonsense (negative targets, negative budgets)
	// instead of silently falling back to a fixed-size run.
	adaptive := *targetRelErr != 0 || *maxIterations != 0 || *maxDuration != 0 ||
		*checkpoint != "" || *resume != "" || progress != progressOff || *batch != 0
	var res *core.Result
	var camp *campaign.Result
	if adaptive {
		opts := core.AdaptiveOptions{
			TargetRelErr:  *targetRelErr,
			Confidence:    *confidence,
			BatchSize:     *batch,
			MaxIterations: *maxIterations,
			MaxDuration:   *maxDuration,
			Checkpoint:    *checkpoint,
			Resume:        *resume,
		}
		switch progress {
		case progressText:
			opts.Progress = campaign.StderrProgress()
		case progressJSON:
			opts.Progress = campaign.JSONProgress(os.Stderr)
		}
		if opts.TargetRelErr == 0 && opts.MaxIterations == 0 && opts.MaxDuration == 0 {
			// Checkpointing or telemetry on an otherwise fixed-size
			// campaign: bound it by the -iterations count.
			opts.MaxIterations = *iterations
		}
		ares, err := m.RunAdaptive(ctx, *seed, opts)
		if err != nil {
			return err
		}
		res, camp = ares.Result, ares.Campaign
	} else {
		if res, err = m.Run(*iterations, *seed); err != nil {
			return err
		}
	}

	times, values := res.Curve(21)
	if *csv {
		return report.CSV(out, "hours", times, []string{"ddfs_per_1000_groups"}, [][]float64{values})
	}
	plot := report.NewLinePlot(
		fmt.Sprintf("DDFs per 1000 groups, %d drives, redundancy %d", *drives, *redundancy), times)
	plot.XLabel = "hours"
	if err := plot.Add("model", values); err != nil {
		return err
	}
	if err := plot.Render(out); err != nil {
		return err
	}
	opop, ldop := res.CauseBreakdown()
	fmt.Fprintf(out, "\nmission total: %.4g DDFs per 1000 groups (%.4g op+op, %.4g ld+op)\n",
		values[len(values)-1], opop, ldop)
	if p.Topology != nil {
		fmt.Fprintf(out, "availability:  %.4g unavailability onsets per 1000 groups (%.3g of groups affected; not data loss)\n",
			res.UnavailPer1000Groups(), res.GroupUnavailProbability())
	}
	if f := res.Fleet(); f != nil {
		fmt.Fprintf(out, "fleet:         %d chronologies x %d groups: %d failures, %d rebuilds done (%d waited for a repair slot)\n",
			f.Chronologies, f.GroupsPer, f.Failures, f.Rebuilds, f.Waited)
		fmt.Fprintf(out, "               heal backlog: mean queue depth %.3g (peak %d), mean wait %.3g h (worst %.3g h), worst exposure %.4g h\n",
			f.MeanQueueDepth(), f.MaxQueueDepth, f.MeanWaitHours(), f.MaxWaitHours, f.MaxExposureHours)
	}
	if camp != nil {
		fmt.Fprintf(out, "campaign:      %d groups in %d batches, stopped: %s\n",
			camp.Iterations, camp.Batches, camp.Reason)
		fmt.Fprintf(out, "               p(DDF per group) CI%.0f [%.3g, %.3g], relative half-width %.3g\n",
			camp.CI.Level*100, camp.CI.Lo, camp.CI.Hi, camp.RelErr)
		if camp.ESS > 0 {
			fmt.Fprintf(out, "               importance sampling: effective sample size %.1f of %d event groups\n",
				camp.ESS, camp.GroupsWithDDF)
		}
		if camp.VRFactor > 0 {
			fmt.Fprintf(out, "               variance reduction: %.2fx fewer iterations to equal precision (%d antithetic pairs, control coeff %.3g)\n",
				camp.VRFactor, camp.VRPairs, camp.VRCoeff)
			if bd := camp.VRByVariate; bd != nil {
				fmt.Fprintf(out, "               per variate:")
				for _, v := range []struct {
					name string
					f    float64
				}{{"antithetic", bd.Antithetic}, {"stratified", bd.Stratified}, {"control", bd.Control}, {"cond", bd.Cond}} {
					if v.f > 0 {
						fmt.Fprintf(out, " %s %.2fx", v.name, v.f)
					}
				}
				fmt.Fprintln(out)
			}
		}
	}
	cmp, err := m.CompareWithMTTDL(res, *mission)
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "MTTDL view:    %.4g DDFs per 1000 groups (MTTDL %.0f years) -> model/MTTDL ratio %.1f\n",
		cmp.MTTDL, cmp.MTTDLYears, cmp.Ratio)
	return nil
}

// parseVR decodes the -vr flag: a comma-separated list of variance-
// reduction techniques, or "all" for the full stack.
func parseVR(s string) (sim.VR, error) {
	var v sim.VR
	for _, tok := range strings.Split(s, ",") {
		switch strings.TrimSpace(tok) {
		case "":
		case "antithetic":
			v.Antithetic = true
		case "stratify":
			v.Stratify = true
		case "cv", "control-variate":
			v.ControlVariate = true
		case "cond", "cond-variate":
			v.CondVariate = true
		case "all":
			v.Antithetic, v.Stratify, v.ControlVariate = true, true, true
		default:
			return sim.VR{}, fmt.Errorf("-vr: unknown technique %q (want antithetic, stratify, cv, cond, or all)", strings.TrimSpace(tok))
		}
	}
	return v, nil
}

// progressMode is the -progress flag: a boolean flag (bare -progress
// streams the human-readable text lines) that also accepts a format
// value, so -progress=json streams the machine-readable frames of
// campaign.JSONProgress — the same schema raidreld serves over SSE.
// Like any boolean flag, a value must be attached with '=': use
// -progress=json, not -progress json.
type progressMode string

const (
	progressOff  progressMode = ""
	progressText progressMode = "text"
	progressJSON progressMode = "json"
)

// String implements flag.Value.
func (m *progressMode) String() string { return string(*m) }

// Set implements flag.Value.
func (m *progressMode) Set(v string) error {
	switch v {
	case "true", "text":
		*m = progressText
	case "false", "":
		*m = progressOff
	case "json":
		*m = progressJSON
	default:
		return fmt.Errorf("want text or json, got %q", v)
	}
	return nil
}

// IsBoolFlag lets a bare -progress (no value) parse as -progress=true.
func (m *progressMode) IsBoolFlag() bool { return true }

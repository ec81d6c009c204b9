package main

import (
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"raidrel/internal/campaign"
	"raidrel/internal/core"
	"raidrel/internal/dist"
	"raidrel/internal/rng"
	"raidrel/internal/sim"
	"raidrel/internal/stats"
)

// frame is one per-batch progress frame as the campaign's Progress sink
// received it.
type frame struct {
	iterations int
	at         time.Time
	ckptBytes  int64
}

// campaignRun is one core.New + Model.RunAdaptive call, timed from outside.
type campaignRun struct {
	model              *core.Model
	res                *core.AdaptiveResult
	start, newEnd, end time.Time
	frames             []frame
	peakHeap           uint64
}

func (c campaignSpec) options() core.AdaptiveOptions {
	return core.AdaptiveOptions{TargetRelErr: c.target, BatchSize: c.batch, MaxIterations: c.maxIter, Workers: c.workers}
}

// runCampaign runs c as raidsim does, checkpointing to ckpt unless it is
// empty. It samples the live heap at every progress frame and, when
// statCkpt is set, the checkpoint file's size.
func runCampaign(ctx context.Context, c campaignSpec, seed uint64, ckpt string, statCkpt bool) (*campaignRun, error) {
	cr := &campaignRun{start: time.Now()}
	m, err := core.New(c.params)
	cr.newEnd = time.Now()
	if err != nil {
		return nil, err
	}
	cr.model = m
	opts := c.options()
	opts.Checkpoint = ckpt
	opts.Progress = campaign.ProgressFunc(func(s campaign.Snapshot) {
		cr.peakHeap = max(cr.peakHeap, liveHeapBytes())
		if s.Done {
			return
		}
		f := frame{iterations: s.Iterations, at: time.Now()}
		if statCkpt {
			if fi, err := os.Stat(ckpt); err == nil {
				f.ckptBytes = fi.Size()
			}
		}
		cr.frames = append(cr.frames, f)
	})
	cr.res, err = m.RunAdaptive(ctx, seed, opts)
	cr.end = time.Now()
	if err != nil {
		return nil, err
	}
	return cr, nil
}

// checkCampaign verifies a finished campaign's stopping rule and answer.
func checkCampaign(c campaignSpec, res *campaign.Result, t truth) error {
	want := campaign.StopMaxIterations
	if c.target > 0 {
		want = campaign.StopTarget
	}
	if res.Reason != want {
		return fmt.Errorf("campaign stopped for %v, want %v", res.Reason, want)
	}
	return t.check(res.CI)
}

// sameAnswer checks that got reports exactly want's iterations, interval
// and stopping reason.
func sameAnswer(got, want *campaign.Result) error {
	if got == nil {
		return errors.New("no result")
	}
	if got.Iterations != want.Iterations || got.CI != want.CI || got.Reason != want.Reason {
		return fmt.Errorf("answer %d iterations %+v (%v) differs from %d iterations %+v (%v)",
			got.Iterations, got.CI, got.Reason, want.Iterations, want.CI, want.Reason)
	}
	return nil
}

// sameSummary checks the statistics a replay must reproduce bit for bit.
func sameSummary(got, want *campaign.Result) error {
	if got == nil {
		return errors.New("no replayed result")
	}
	if got.CI != want.CI || got.RelErr != want.RelErr || got.VRFactor != want.VRFactor || got.ESS != want.ESS {
		return fmt.Errorf("replay CI %+v relerr %v vr %v ess %v differs from the campaign's CI %+v relerr %v vr %v ess %v",
			got.CI, got.RelErr, got.VRFactor, got.ESS, want.CI, want.RelErr, want.VRFactor, want.ESS)
	}
	return nil
}

// campaignRep is one rep of a campaign workload: the campaign, in a traced
// rep the layer ledger, then the service probe.
func campaignRep(ctx context.Context, rr *repResult, w workload, seed uint64, tr *tracer, env repEnv) error {
	c := w.camp.sized(env.sz)
	ckpt := filepath.Join(env.scratch, "campaign.ckpt.json")
	root := tr.begin(0, "rep")
	defer tr.finish(root, nil)
	cr, err := runCampaign(ctx, c, seed, ckpt, tr != nil)
	if err != nil {
		return err
	}
	res := cr.res.Campaign
	rr.outcome("campaign", checkCampaign(c, res, w.truth()))
	rr.Estimates = append(rr.Estimates, estimateOf(res.CI))
	loopStart := cr.end.Add(-res.Elapsed)
	rr.Metrics["time_to_ci_s"] = cr.end.Sub(cr.start).Seconds()
	rr.Metrics["iters_per_s"] = float64(res.Iterations) / res.Elapsed.Seconds()
	rr.Metrics["setup_s"] = loopStart.Sub(env.spawned).Seconds()
	rr.Metrics["peak_heap_mb"] = float64(cr.peakHeap) / (1 << 20)
	if tr != nil {
		if err := traceCampaign(ctx, rr, c, seed, cr, tr, root, env); err != nil {
			return err
		}
	}
	// The service probe: raidreld runs this workload's spec as one-batch
	// jobs, then answers resubmissions of them from its cache. Its hits are
	// the workload's hit_p50_ms, and in a traced rep its service layers.
	out, err := serveJobs(ctx, rr, c.jobTemplate(c.batch), env.sz.probeJobs, env.sz.probeHits, seed, env.scratch, w.truth(), tr, root)
	if err != nil {
		return err
	}
	rr.recordHits(out)
	if tr != nil {
		serviceLayers(rr.Layers, out)
	}
	return nil
}

// traceCampaign records cr as spans and measures the layers under it: the
// result view, a batch-by-batch replay, the checkpoint cost, and the
// kernel, engine and runner on the campaign's config.
func traceCampaign(ctx context.Context, rr *repResult, c campaignSpec, seed uint64, cr *campaignRun, tr *tracer, root int, env repEnv) error {
	res := cr.res.Campaign
	camp := tr.add(root, "campaign", cr.start, cr.end, attrs{"iterations": float64(res.Iterations), "batches": float64(res.Batches)})
	tr.add(camp, "core.new", cr.start, cr.newEnd, nil)
	run := tr.add(camp, "core.run_adaptive", cr.newEnd, cr.end, nil)
	prev := cr.end.Add(-res.Elapsed)
	bounds := make([]int, len(cr.frames))
	for i, f := range cr.frames {
		tr.add(run, "campaign.batch", prev, f.at, attrs{"iterations": float64(f.iterations), "checkpoint_bytes": float64(f.ckptBytes)})
		prev = f.at
		bounds[i] = f.iterations
	}

	var err error
	times, weights := res.Run.TimesAndWeights()
	tr.timed(root, "core.result", func() { _, err = stats.MCFFromWeightedTimes(times, weights, res.Iterations) })
	if err != nil {
		return err
	}

	got, err := replay(tr, root, cr.model, seed, c, bounds)
	rr.outcome("replay", err, sameSummary(got, res))

	// The checkpoint cost is the difference of warm runs with and without
	// checkpoints; the cold traced run also pays process warm-up. Each side
	// is the faster of two runs made in ABBA order, so that machine drift
	// and a one-off stall during a single run do not land in the difference.
	warm := filepath.Join(env.scratch, "warm.ckpt.json")
	for _, name := range []string{"campaign.nockpt", "campaign.warm", "campaign.warm", "campaign.nockpt"} {
		ckpt := ""
		if name == "campaign.warm" {
			ckpt = warm
		}
		again, err := runCampaign(ctx, c, seed, ckpt, false)
		if err != nil {
			return err
		}
		tr.add(root, name, again.start, again.end, nil)
		rr.outcome(name, sameAnswer(again.res.Campaign, res))
	}

	L := rr.Layers
	if err := simLayers(L, tr, root, cr.model.SimConfig(), seed, env.sz); err != nil {
		return err
	}

	batches := tr.seconds("campaign.batch")
	L["campaign.iterations"] = float64(res.Iterations)
	L["campaign.batches"] = float64(res.Batches)
	L["campaign.batch_ms_p50"] = percentile(batches, 50) * 1e3
	L["campaign.batch_ms_max"] = percentile(batches, 100) * 1e3
	L["campaign.batch_growth"] = growth(batches)
	L["campaign.summarize_ms_total"] = tr.total("campaign.summarize") * 1e3
	L["campaign.checkpoint_bytes_total"] = tr.attrSum("campaign.batch", "checkpoint_bytes")
	L["campaign.checkpoint_s"] = percentile(tr.seconds("campaign.warm"), 0) - percentile(tr.seconds("campaign.nockpt"), 0)
	L["core.new_ms"] = tr.total("core.new") * 1e3
	L["core.result_ms"] = tr.total("core.result") * 1e3
	L["sim.collector.merge_ms_total"] = tr.total("sim.collector.merge") * 1e3
	observeNs := tr.attrSum("sim.run_collect", "observe_ns")
	L["sim.collector.observe_ns"] = observeNs / tr.attrSum("sim.run_collect", "observes")
	L["sim.collector.observe_frac"] = observeNs / 1e9 / tr.total("sim.run_collect")
	L["sim.collector.event_groups"] = tr.attrSum("replay", "event_groups")
	attributed := tr.total("core.new") + tr.total("replay.batch") + L["campaign.checkpoint_s"] + tr.total("core.result")
	L["trace.unattributed_frac"] = 1 - attributed/tr.total("campaign")
	return nil
}

// engineFor is the engine core.Model runs cfg on: the block engine when
// variance reduction or a block size is configured, else the runner's
// default. It must match the unexported core.Model.engine, which picks the
// engine for RunAdaptive; the replay's bit-identity check cannot catch a
// mismatch, because the engines give bit-identical results.
func engineFor(cfg sim.Config) sim.Engine {
	if cfg.VR.Enabled() || cfg.VR.BlockSize > 0 {
		return sim.BlockEngine{}
	}
	return nil
}

// replay re-runs a campaign's batches — iteration ranges ending at bounds
// — in the order of the campaign loop: RunCollect into a timed collector,
// Merge into the accumulated run, Summarize. It returns the last summary,
// which must equal the campaign's own result.
func replay(tr *tracer, parent int, m *core.Model, seed uint64, c campaignSpec, bounds []int) (*campaign.Result, error) {
	cfg := m.SimConfig()
	spec := campaign.Spec{Config: cfg, Seed: seed, BatchSize: c.batch, TargetRelErr: c.target, MaxIterations: c.maxIter}
	rp := tr.begin(parent, "replay")
	run := &sim.SparseResult{}
	var last *campaign.Result
	done := 0
	for _, hi := range bounds {
		b := tr.begin(rp, "replay.batch")
		tc := &timedCollector{res: &sim.SparseResult{}}
		s := tr.begin(b, "sim.run_collect")
		err := sim.RunCollect(sim.RunSpec{
			Config:     cfg,
			Iterations: hi - done,
			Seed:       seed,
			Workers:    c.workers,
			Engine:     engineFor(cfg),
			Offset:     done,
			Fleet:      m.Params().Fleet,
		}, tc)
		tr.finish(s, attrs{"iterations": float64(hi - done), "observes": float64(tc.n), "observe_ns": float64(tc.ns)})
		if err != nil {
			return nil, err
		}
		tr.timed(b, "sim.collector.merge", func() { run.Merge(tc.res) })
		tr.timed(b, "campaign.summarize", func() { last = campaign.Summarize(spec, run) })
		tr.finish(b, nil)
		done = hi
	}
	if last == nil {
		return nil, errors.New("replay: campaign reported no batches")
	}
	tr.finish(rp, attrs{"event_groups": float64(last.GroupsWithDDF)})
	return last, nil
}

// timedCollector times every SparseResult.Observe call (the time includes
// one pair of clock reads) and forwards the block and fleet tallies, so the
// replay accumulates exactly what the campaign's collector does.
type timedCollector struct {
	res *sim.SparseResult
	n   int
	ns  int64
}

func (c *timedCollector) Observe(iteration int, ddfs []sim.DDF, logW float64) {
	start := time.Now()
	c.res.Observe(iteration, ddfs, logW)
	c.ns += int64(time.Since(start))
	c.n++
}

func (c *timedCollector) ObserveVRBlock(blockSize int, ez float64, b sim.VRBlock) {
	c.res.ObserveVRBlock(blockSize, ez, b)
}

func (c *timedCollector) ObserveFleetChronology(groups int, st sim.FleetStats) {
	c.res.ObserveFleetChronology(groups, st)
}

var (
	_ sim.VRBlockObserver = (*timedCollector)(nil)
	_ sim.FleetObserver   = (*timedCollector)(nil)
)

// drawSink keeps the measured draws from being optimized away.
var drawSink float64

// simLayers measures the kernel, engine and runner layers on cfg into L.
func simLayers(L map[string]float64, tr *tracer, root int, cfg sim.Config, seed uint64, sz sizes) error {
	r := rng.New(seed)
	k := dist.Compile(cfg.Trans.TTOp)
	s := tr.begin(root, "dist.draw")
	for i := 0; i < sz.draws; i++ {
		drawSink += k.Draw(r)
	}
	tr.finish(s, attrs{"draws": float64(sz.draws)})
	tk := dist.CompileTilted(cfg.Trans.TTOp, 8)
	s = tr.begin(root, "dist.tilted_draw")
	for i := 0; i < sz.draws; i++ {
		x, lr := tk.DrawLR(cfg.Mission, r)
		drawSink += x + lr
	}
	tr.finish(s, attrs{"draws": float64(sz.draws)})

	nproc := runtime.GOMAXPROCS(0)
	ddfs := 0
	count := sim.CollectorFunc(func(_ int, d []sim.DDF, _ float64) { ddfs += len(d) })
	collect := func(name string, iterations, workers int) error {
		s := tr.begin(root, name)
		err := sim.RunCollect(sim.RunSpec{Config: cfg, Iterations: iterations, Seed: seed, Workers: workers, Engine: engineFor(cfg)}, count)
		tr.finish(s, attrs{"iterations": float64(iterations), "workers": float64(workers)})
		return err
	}
	if err := collect("sim.engine", sz.streams, 1); err != nil {
		return err
	}
	engineDDFs := ddfs
	if err := collect("sim.runner", sz.streams, nproc); err != nil {
		return err
	}
	for i := 0; i < sz.calls; i++ {
		if err := collect("sim.runner.call", nproc*256, nproc); err != nil {
			return err
		}
	}
	L["dist.draw_ns"] = tr.total("dist.draw") * 1e9 / float64(sz.draws)
	L["dist.tilted_draw_ns"] = tr.total("dist.tilted_draw") * 1e9 / float64(sz.draws)
	engineUs := tr.total("sim.engine") * 1e6 / float64(sz.streams)
	runnerUs := tr.total("sim.runner") * 1e6 / float64(sz.streams)
	L["sim.engine.iter_us"] = engineUs
	L["sim.engine.ddfs_per_iter"] = float64(engineDDFs) / float64(sz.streams)
	L["sim.runner.iter_us"] = runnerUs
	L["sim.runner.parallel_eff"] = engineUs / (float64(nproc) * runnerUs)
	L["sim.runner.call_ms"] = percentile(tr.seconds("sim.runner.call"), 50) * 1e3
	return nil
}

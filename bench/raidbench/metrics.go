package main

// metricDecl declares one reported metric. Every rep of every workload
// emits every declared metric: end-to-end metrics from untraced reps,
// per-layer metrics from the traced rep.
type metricDecl struct {
	Name, Unit, Better string
	// Elasticity is how strongly the metric follows the machine-speed
	// calibration (log-log slope, measured across 20 runs per workload on
	// the shared build VM); normalize divides it out. End-to-end only.
	Elasticity float64
	// Moves lists the end-to-end metrics this layer metric should move, as
	// "metric@workload"; Little lists workloads where the layer does little
	// work, so the prediction there is no change. Per-layer only.
	Moves, Little []string
}

// endToEnd are the gated metrics a user of raidsim or raidreld sees.
var endToEnd = []metricDecl{
	{Name: "time_to_ci_s", Unit: "s", Better: "lower", Elasticity: 0.75},
	{Name: "iters_per_s", Unit: "groups/s", Better: "higher", Elasticity: 0.75},
	{Name: "setup_s", Unit: "s", Better: "lower", Elasticity: 0.75},
	{Name: "peak_heap_mb", Unit: "MiB", Better: "lower"},
	{Name: "hit_p50_ms", Unit: "ms", Better: "lower", Elasticity: 1},
}

const (
	campaigns3 = "plain-scrub,cond-scrub,rare-bias"
	all4       = campaigns3 + ",daemon-jobs"
)

// perLayer are the traced rep's metrics, one module boundary each.
var perLayer = []metricDecl{
	{Name: "dist.draw_ns", Unit: "ns", Better: "lower", Moves: []string{"iters_per_s@plain-scrub"}, Little: []string{"daemon-jobs"}},
	{Name: "dist.tilted_draw_ns", Unit: "ns", Better: "lower", Moves: []string{"iters_per_s@rare-bias"}, Little: []string{"cond-scrub"}},
	{Name: "sim.engine.iter_us", Unit: "us", Better: "lower", Moves: []string{"time_to_ci_s@plain-scrub", "time_to_ci_s@rare-bias"}, Little: []string{"daemon-jobs"}},
	{Name: "sim.engine.ddfs_per_iter", Unit: "ddfs/iter", Better: "lower"},
	{Name: "sim.runner.iter_us", Unit: "us", Better: "lower", Moves: []string{"iters_per_s@plain-scrub"}, Little: []string{"daemon-jobs"}},
	{Name: "sim.runner.parallel_eff", Unit: "fraction", Better: "higher", Moves: []string{"iters_per_s@cond-scrub"}, Little: []string{"rare-bias"}},
	{Name: "sim.runner.call_ms", Unit: "ms", Better: "lower", Moves: []string{"time_to_ci_s@cond-scrub", "time_to_ci_s@daemon-jobs"}, Little: []string{"plain-scrub"}},
	{Name: "sim.collector.observe_ns", Unit: "ns", Better: "lower", Moves: []string{"iters_per_s@cond-scrub"}, Little: []string{"rare-bias"}},
	{Name: "sim.collector.observe_frac", Unit: "fraction", Better: "lower", Moves: []string{"iters_per_s@cond-scrub"}, Little: []string{"rare-bias"}},
	{Name: "sim.collector.event_groups", Unit: "count", Better: "lower", Moves: []string{"peak_heap_mb@plain-scrub"}, Little: []string{"rare-bias"}},
	{Name: "sim.collector.merge_ms_total", Unit: "ms", Better: "lower", Moves: []string{"time_to_ci_s@plain-scrub"}, Little: []string{"daemon-jobs"}},
	{Name: "campaign.iterations", Unit: "count", Better: "lower", Moves: []string{"time_to_ci_s@cond-scrub", "time_to_ci_s@rare-bias"}},
	{Name: "campaign.batches", Unit: "count", Better: "lower", Moves: []string{"time_to_ci_s@cond-scrub", "time_to_ci_s@rare-bias"}},
	{Name: "campaign.batch_ms_p50", Unit: "ms", Better: "lower", Moves: []string{"time_to_ci_s@" + campaigns3}, Little: []string{"daemon-jobs"}},
	{Name: "campaign.batch_ms_max", Unit: "ms", Better: "lower", Moves: []string{"time_to_ci_s@" + campaigns3}, Little: []string{"daemon-jobs"}},
	{Name: "campaign.batch_growth", Unit: "ratio", Better: "lower", Moves: []string{"time_to_ci_s@plain-scrub"}, Little: []string{"cond-scrub"}},
	{Name: "campaign.summarize_ms_total", Unit: "ms", Better: "lower", Moves: []string{"time_to_ci_s@rare-bias"}, Little: []string{"cond-scrub"}},
	{Name: "campaign.checkpoint_bytes_total", Unit: "bytes", Better: "lower", Moves: []string{"time_to_ci_s@plain-scrub"}, Little: []string{"daemon-jobs"}},
	{Name: "campaign.checkpoint_s", Unit: "s", Better: "lower", Moves: []string{"time_to_ci_s@plain-scrub"}, Little: []string{"rare-bias"}},
	{Name: "core.new_ms", Unit: "ms", Better: "lower", Moves: []string{"setup_s@" + campaigns3}},
	{Name: "core.result_ms", Unit: "ms", Better: "lower", Moves: []string{"time_to_ci_s@plain-scrub"}, Little: []string{"rare-bias"}},
	{Name: "service.queue_wait_ms_p50", Unit: "ms", Better: "lower", Moves: []string{"time_to_ci_s@daemon-jobs"}, Little: []string{campaigns3}},
	{Name: "service.run_ms_p50", Unit: "ms", Better: "lower", Moves: []string{"time_to_ci_s@daemon-jobs"}, Little: []string{campaigns3}},
	{Name: "service.overhead_ms_p50", Unit: "ms", Better: "lower", Moves: []string{"time_to_ci_s@daemon-jobs", "hit_p50_ms@" + all4}},
	{Name: "service.submit_ms_p50", Unit: "ms", Better: "lower", Moves: []string{"hit_p50_ms@" + all4}},
	{Name: "service.result_ms_p50", Unit: "ms", Better: "lower", Moves: []string{"hit_p50_ms@" + all4}},
	{Name: "service.result_bytes", Unit: "bytes", Better: "lower", Moves: []string{"hit_p50_ms@" + all4}},
	{Name: "service.sse_frames_per_job", Unit: "count", Better: "lower", Moves: []string{"time_to_ci_s@daemon-jobs"}, Little: []string{campaigns3}},
	{Name: "service.cache_hit_ratio", Unit: "fraction", Better: "higher", Moves: []string{"hit_p50_ms@" + all4}},
	{Name: "service.iterations_simulated", Unit: "count", Better: "lower", Moves: []string{"iters_per_s@daemon-jobs"}, Little: []string{campaigns3}},
	{Name: "trace.unattributed_frac", Unit: "fraction", Better: "lower"},
	{Name: "trace.overhead_frac", Unit: "fraction", Better: "lower"},
}

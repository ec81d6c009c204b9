// Benchmarks that regenerate every table and figure of the paper (one
// benchmark per exhibit) plus the ablations called out in DESIGN.md. Each
// benchmark reports the exhibit's headline quantity as a custom metric so
// `go test -bench=. -benchmem` doubles as a miniature reproduction run;
// cmd/experiments produces the full paper-scale versions.
package raidrel_test

import (
	"context"
	"math"
	"testing"

	"raidrel/internal/campaign"
	"raidrel/internal/core"
	"raidrel/internal/dist"
	"raidrel/internal/experiments"
	"raidrel/internal/markov"
	"raidrel/internal/raid"
	"raidrel/internal/rng"
	"raidrel/internal/sim"
	"raidrel/internal/workload"
)

// benchOpt is the per-op Monte Carlo scale used by the figure benchmarks.
var benchOpt = experiments.Options{Iterations: 400, Seed: 20070625, CurvePoints: 6}

func BenchmarkTable1ReadErrorRates(b *testing.B) {
	var sink float64
	for i := 0; i < b.N; i++ {
		for _, cell := range workload.Table1() {
			sink += cell.ErrorsPerHour
		}
	}
	b.ReportMetric(sink/float64(b.N), "sum_err_per_hour")
}

func BenchmarkTable3DDFRatios(b *testing.B) {
	var last []experiments.Table3Row
	for i := 0; i < b.N; i++ {
		rows, err := experiments.Table3(benchOpt)
		if err != nil {
			b.Fatal(err)
		}
		last = rows
	}
	b.ReportMetric(last[1].Ratio, "noscrub_ratio")
	b.ReportMetric(last[3].Ratio, "scrub168_ratio")
}

func BenchmarkFigure1FieldPlots(b *testing.B) {
	var plots []experiments.FieldPlot
	for i := 0; i < b.N; i++ {
		var err error
		plots, err = experiments.Figure1(benchOpt)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(plots[0].MRR.R2, "hdd1_r2")
}

func BenchmarkFigure2Vintages(b *testing.B) {
	var plots []experiments.FieldPlot
	for i := 0; i < b.N; i++ {
		var err error
		plots, err = experiments.Figure2(benchOpt)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(plots[2].MLE.Shape, "vintage3_beta")
}

func BenchmarkFigure6ModelVsMTTDL(b *testing.B) {
	// Fig. 6 counts extremely rare defect-free DDFs; give it more groups.
	opt := benchOpt
	opt.Iterations = 20000
	var series []experiments.Series
	for i := 0; i < b.N; i++ {
		var err error
		series, err = experiments.Figure6(opt)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(series[0].Final(), "mttdl_final")
	b.ReportMetric(series[1].Final(), "cc_final")
}

func BenchmarkFigure7LatentDefects(b *testing.B) {
	var series []experiments.Series
	for i := 0; i < b.N; i++ {
		var err error
		series, err = experiments.Figure7(benchOpt)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(series[0].Final(), "noscrub_ddfs_per_1000")
	b.ReportMetric(series[1].Final(), "scrub168_ddfs_per_1000")
}

func BenchmarkFigure8ROCOF(b *testing.B) {
	var series []experiments.ROCOFSeries
	for i := 0; i < b.N; i++ {
		var err error
		series, err = experiments.Figure8(benchOpt)
		if err != nil {
			b.Fatal(err)
		}
	}
	last := series[0].Points
	b.ReportMetric(last[len(last)-1].Count, "noscrub_last_window")
}

func BenchmarkFigure9ScrubSweep(b *testing.B) {
	var series []experiments.Series
	for i := 0; i < b.N; i++ {
		var err error
		series, err = experiments.Figure9(benchOpt)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(series[0].Final(), "scrub336_final")
	b.ReportMetric(series[len(series)-1].Final(), "scrub12_final")
}

func BenchmarkFigure10ShapeSweep(b *testing.B) {
	var series []experiments.Series
	for i := 0; i < b.N; i++ {
		var err error
		series, err = experiments.Figure10(benchOpt)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(series[0].Final(), "beta08_final")
	b.ReportMetric(series[len(series)-1].Final(), "beta15_final")
}

// --- ablations (DESIGN.md §6) ---

func baseSimConfig() sim.Config {
	return sim.Config{
		Drives:     8,
		Redundancy: 1,
		Mission:    core.BaseMissionHours,
		Trans: sim.Transitions{
			TTOp:    dist.MustWeibull(1.12, core.BaseMTBFHours, 0),
			TTR:     dist.MustWeibull(2, 12, 6),
			TTLd:    dist.MustWeibull(1, core.BaseTTLdScaleHours, 0),
			TTScrub: dist.MustWeibull(3, 168, 6),
		},
	}
}

// BenchmarkEngineTimelineInto measures the event-queue engine per group
// chronology on the zero-allocation hot path the Monte Carlo workers
// actually run: one reseeded RNG and one reused DDF buffer per worker,
// stream i driving iteration i.
func BenchmarkEngineTimelineInto(b *testing.B) {
	cfg := baseSimConfig()
	engine := sim.EventEngine{}
	var (
		r   rng.RNG
		buf []sim.DDF
		err error
	)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		r.SeedStream(1, uint64(i))
		if buf, _, err = engine.SimulateInto(cfg, &r, buf[:0]); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkEngineTimelineFlatTopoInto pins the price of the topology
// layer's flat fast path: an explicitly flat (component-free) topology
// must compile down to the plain per-drive event engine, costing one nil
// scratch check per availability-relevant event. Gate-compared against
// BenchmarkEngineTimelineInto's median — the two must stay within noise
// of each other.
func BenchmarkEngineTimelineFlatTopoInto(b *testing.B) {
	cfg := baseSimConfig()
	cfg.Topology = &sim.Topology{}
	engine := sim.EventEngine{}
	var (
		r   rng.RNG
		buf []sim.DDF
		err error
	)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		r.SeedStream(1, uint64(i))
		if buf, _, err = engine.SimulateInto(cfg, &r, buf[:0]); err != nil {
			b.Fatal(err)
		}
	}
}

// benchRunBlock drives the batched block path the way the runner does in
// production — one worker, whole blocks per scratch acquisition — so ns/op
// is the amortized per-iteration cost the Monte Carlo campaign actually
// pays (BlockEngine.SimulateInto alone would re-prep the kernels per call).
func benchRunBlock(b *testing.B, cfg sim.Config) {
	b.ReportAllocs()
	res := &sim.SparseResult{}
	if err := sim.RunCollect(sim.RunSpec{
		Config:     cfg,
		Iterations: b.N,
		Seed:       1,
		Workers:    1,
		Engine:     sim.BlockEngine{},
	}, res); err != nil {
		b.Fatal(err)
	}
	b.ReportMetric(float64(res.TotalDDFs), "ddfs")
}

// BenchmarkEngineBlockInto measures the batched structure-of-arrays engine
// on the base case, against BenchmarkEngineTimelineInto's event engine.
func BenchmarkEngineBlockInto(b *testing.B) {
	benchRunBlock(b, baseSimConfig())
}

// BenchmarkEngineBlockBiasedInto measures the block engine under the θ = 8
// importance-sampling tilt, against BenchmarkEngineTimelineBiasedInto. At
// 5.7 expected first-generation failures per group it is the only pinned
// row on the eager side of the block engine's defect-layout choice
// (ldLazyMaxFailures = 1.75), so it is the one that measures that choice.
func BenchmarkEngineBlockBiasedInto(b *testing.B) {
	cfg := baseSimConfig()
	cfg.Bias.Op = 8
	benchRunBlock(b, cfg)
}

// BenchmarkEngineBlockVRInto measures the block engine with the full
// variance-reduction stack armed (antithetic pairing, stratified first
// draw, control-variate tallies) — the per-iteration overhead the
// statistical speedup costs.
func BenchmarkEngineBlockVRInto(b *testing.B) {
	cfg := baseSimConfig()
	cfg.VR = sim.VR{Antithetic: true, Stratify: true, ControlVariate: true}
	benchRunBlock(b, cfg)
}

// BenchmarkFleetInto measures one warm fleet chronology — 10,000 coupled
// base-case groups contending for 64 fleet-wide repair slots — through the
// pooled zero-steady-state-allocation entry point, reporting per-group
// cost. The hard 0-alloc guard is TestFleetIntoZeroAlloc; here allocs/op
// records the amortized scratch growth across chronologies.
func BenchmarkFleetInto(b *testing.B) {
	cfg := baseSimConfig()
	fo := sim.FleetOptions{Groups: 10_000, MaxConcurrentRebuilds: 64}
	var st sim.FleetStats
	visit := func(int, []sim.DDF) {}
	if err := sim.SimulateFleetInto(cfg, fo, 1, 0, visit, &st); err != nil {
		b.Fatal(err) // warm the pooled scratch to the fleet's size
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := sim.SimulateFleetInto(cfg, fo, 1, uint64(i)*uint64(fo.Groups), visit, &st); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(st.Failures), "failures_per_chron")
}

// biasedSimConfig is the base case under the standard rare-event tilt:
// the operational-failure hazard scaled by θ = 8.
func biasedSimConfig() sim.Config {
	cfg := baseSimConfig()
	cfg.Bias.Op = 8
	return cfg
}

// BenchmarkEngineTimelineBiasedInto measures the event engine with
// importance sampling active: every TTOp draw goes through the fused
// tilted kernel (hazard-scaled draw + likelihood-ratio bookkeeping).
func BenchmarkEngineTimelineBiasedInto(b *testing.B) {
	cfg := biasedSimConfig()
	engine := sim.EventEngine{}
	var (
		r   rng.RNG
		buf []sim.DDF
		err error
	)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		r.SeedStream(1, uint64(i))
		if buf, _, err = engine.SimulateInto(cfg, &r, buf[:0]); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkRunSparse measures the full streaming pipeline — workers,
// in-order merge, sparse accumulation — in iterations per second, on the
// default engine (the block engine here) and on the event engine, whose
// per-iteration SimulateInto step is the runner's scalar path.
func BenchmarkRunSparse(b *testing.B) {
	for _, bc := range []struct {
		name   string
		engine sim.Engine
	}{
		{"default", nil},
		{"engine=event", sim.EventEngine{}},
	} {
		b.Run(bc.name, func(b *testing.B) {
			cfg := baseSimConfig()
			const iters = 2000
			b.ReportAllocs()
			var total int
			for i := 0; i < b.N; i++ {
				res, err := sim.RunSparse(sim.RunSpec{Config: cfg, Iterations: iters, Seed: benchOpt.Seed, Engine: bc.engine})
				if err != nil {
					b.Fatal(err)
				}
				total = res.TotalDDFs
			}
			b.ReportMetric(float64(iters)*float64(b.N)/b.Elapsed().Seconds(), "iters/s")
			b.ReportMetric(float64(total), "ddfs")
		})
	}
}

// BenchmarkRAID6Extension measures the redundancy-2 model and reports its
// residual loss rate next to RAID 5's.
func BenchmarkRAID6Extension(b *testing.B) {
	var r5, r6 float64
	for i := 0; i < b.N; i++ {
		for _, redundancy := range []int{1, 2} {
			p := core.BaseCase()
			p.Redundancy = redundancy
			m, err := core.New(p)
			if err != nil {
				b.Fatal(err)
			}
			res, err := m.Run(benchOpt.Iterations, benchOpt.Seed)
			if err != nil {
				b.Fatal(err)
			}
			if redundancy == 1 {
				r5 = res.DDFsPer1000GroupsAt(p.MissionHours)
			} else {
				r6 = res.DDFsPer1000GroupsAt(p.MissionHours)
			}
		}
	}
	b.ReportMetric(r5, "raid5_losses_per_1000")
	b.ReportMetric(r6, "raid6_losses_per_1000")
}

// BenchmarkGroupSizeSweep measures the "best RAID group size" design
// query the paper's conclusion proposes, reporting the per-data-drive
// risk at the extremes.
func BenchmarkGroupSizeSweep(b *testing.B) {
	var rows []experiments.GroupSizeRow
	for i := 0; i < b.N; i++ {
		var err error
		rows, err = experiments.GroupSizeSweep([]int{4, 8, 14}, benchOpt)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(rows[0].PerDataDrive, "n4_per_drive")
	b.ReportMetric(rows[len(rows)-1].PerDataDrive, "n14_per_drive")
}

// BenchmarkMixedVintages measures a group built half from the paper's
// best vintage and half from its worst, versus the homogeneous base case.
func BenchmarkMixedVintages(b *testing.B) {
	mixed := core.BaseCase().WithMixedVintages([]core.WeibullSpec{
		{Scale: 4.5444e5, Shape: 1.0987},
		{Scale: 7.5012e4, Shape: 1.4873},
	})
	m, err := core.New(mixed)
	if err != nil {
		b.Fatal(err)
	}
	var v float64
	for i := 0; i < b.N; i++ {
		res, err := m.Run(benchOpt.Iterations, benchOpt.Seed)
		if err != nil {
			b.Fatal(err)
		}
		v = res.DDFsPer1000GroupsAt(core.BaseMissionHours)
	}
	b.ReportMetric(v, "mixed_ddfs_per_1000")
}

// BenchmarkBathtubTTOp swaps the base TTOp for a bathtub lifetime (infant
// mortality competing with wear-out) — the hazard structure the paper's
// Fig. 1 populations actually exhibit — and reports the DDF shift.
func BenchmarkBathtubTTOp(b *testing.B) {
	bathtub := dist.MustCompetingRisks([]dist.Distribution{
		dist.MustWeibull(0.6, 3e6, 0), // infant mortality burning off
		dist.MustWeibull(3.0, 2e5, 0), // wear-out
	})
	cfg := baseSimConfig()
	cfg.Trans.TTOp = bathtub
	var total int
	for i := 0; i < b.N; i++ {
		total = 0
		res, err := sim.RunSparse(sim.RunSpec{Config: cfg, Iterations: benchOpt.Iterations, Seed: benchOpt.Seed})
		if err != nil {
			b.Fatal(err)
		}
		total = res.TotalDDFs
	}
	b.ReportMetric(float64(total)*1000/float64(benchOpt.Iterations), "bathtub_ddfs_per_1000")
}

// BenchmarkScrubShapeAblation tests the paper's §6.4 modeling choice: a
// β = 3 Weibull scrub-time "produces a Normal shaped distribution". The
// ablation swaps in an actual truncated normal with matched moments and
// reports both DDF counts — they should be nearly identical, validating
// the paper's parameterization.
func BenchmarkScrubShapeAblation(b *testing.B) {
	weibullScrub := dist.MustWeibull(3, 168, 6)
	normalScrub := dist.MustTruncated(
		dist.MustNormal(weibullScrub.Mean(), math.Sqrt(weibullScrub.Variance())),
		6, 1000)
	var wCount, nCount int
	for i := 0; i < b.N; i++ {
		for _, scrub := range []dist.Distribution{weibullScrub, normalScrub} {
			cfg := baseSimConfig()
			cfg.Trans.TTScrub = scrub
			res, err := sim.RunSparse(sim.RunSpec{Config: cfg, Iterations: benchOpt.Iterations, Seed: benchOpt.Seed})
			if err != nil {
				b.Fatal(err)
			}
			if scrub == dist.Distribution(weibullScrub) {
				wCount = res.TotalDDFs
			} else {
				nCount = res.TotalDDFs
			}
		}
	}
	b.ReportMetric(float64(wCount)*1000/float64(benchOpt.Iterations), "weibull3_ddfs_per_1000")
	b.ReportMetric(float64(nCount)*1000/float64(benchOpt.Iterations), "truncnormal_ddfs_per_1000")
}

// BenchmarkRDPEncodeRebuild measures the row-diagonal-parity codec on a
// full write + double-failure rebuild cycle.
func BenchmarkRDPEncodeRebuild(b *testing.B) {
	const (
		disks      = 8
		stripeSets = 16
		blockSize  = 4096
	)
	probe, err := raid.New(raid.RAID6, disks, stripeSets, blockSize)
	if err != nil {
		b.Fatal(err)
	}
	r := rng.New(1)
	data := make([][][]byte, stripeSets)
	for set := range data {
		blocks := make([][]byte, probe.DataBlocksPerSet())
		for i := range blocks {
			blk := make([]byte, blockSize)
			for j := range blk {
				blk[j] = byte(r.Uint64())
			}
			blocks[i] = blk
		}
		data[set] = blocks
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		a, err := raid.New(raid.RAID6, disks, stripeSets, blockSize)
		if err != nil {
			b.Fatal(err)
		}
		for set := range data {
			if err := a.WriteStripe(set, data[set]); err != nil {
				b.Fatal(err)
			}
		}
		if err := a.FailDisk(1); err != nil {
			b.Fatal(err)
		}
		if err := a.FailDisk(5); err != nil {
			b.Fatal(err)
		}
		if _, err := a.ReplaceDisk(1); err != nil {
			b.Fatal(err)
		}
		if _, err := a.ReplaceDisk(5); err != nil {
			b.Fatal(err)
		}
	}
	b.SetBytes(int64(stripeSets * probe.DataBlocksPerSet() * blockSize))
}

// ddfsBeforeResult builds one shared heavy-tail run for the DDFsBefore
// benchmarks: a no-scrub configuration so tens of thousands of groups
// carry events.
func ddfsBeforeResult(b *testing.B) *sim.SparseResult {
	cfg := baseSimConfig()
	cfg.Trans.TTScrub = nil // no scrub: ~100× more DDFs to index
	res, err := sim.RunSparse(sim.RunSpec{Config: cfg, Iterations: 20000, Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	if res.TotalDDFs == 0 {
		b.Fatal("no events to query")
	}
	return res
}

// ddfsBeforeGrid is the query grid of a typical cumulative-curve render.
func ddfsBeforeGrid(mission float64) []float64 {
	grid := make([]float64, 256)
	for i := range grid {
		grid[i] = mission * float64(i) / float64(len(grid)-1)
	}
	return grid
}

// BenchmarkDDFsBeforeIndexed measures the binary-search path: the flat
// sorted event-time slice is built once, each query is O(log E).
func BenchmarkDDFsBeforeIndexed(b *testing.B) {
	res := ddfsBeforeResult(b)
	grid := ddfsBeforeGrid(core.BaseMissionHours)
	res.DDFsBefore(0) // build the index outside the timed loop
	b.ResetTimer()
	var sink int
	for i := 0; i < b.N; i++ {
		for _, t := range grid {
			sink += res.DDFsBefore(t)
		}
	}
	b.ReportMetric(float64(sink/b.N), "counts_per_op")
}

// BenchmarkDDFsBeforeScan measures the pre-optimization behaviour — a
// full scan of the event index at every query point — as the comparison
// baseline.
func BenchmarkDDFsBeforeScan(b *testing.B) {
	res := ddfsBeforeResult(b)
	grid := ddfsBeforeGrid(core.BaseMissionHours)
	scan := func(t float64) int {
		n := 0
		for _, e := range res.Events {
			if e.Time <= t {
				n++
			}
		}
		return n
	}
	b.ResetTimer()
	var sink int
	for i := 0; i < b.N; i++ {
		for _, t := range grid {
			sink += scan(t)
		}
	}
	b.ReportMetric(float64(sink/b.N), "counts_per_op")
}

// BenchmarkAdaptiveCampaign measures the orchestrator end-to-end: batches
// until the 95% Wilson CI on the per-group DDF probability reaches a 20%
// relative half-width on the no-scrub base case.
func BenchmarkAdaptiveCampaign(b *testing.B) {
	cfg := baseSimConfig()
	cfg.Trans.TTScrub = nil
	var iters int
	for i := 0; i < b.N; i++ {
		res, err := campaign.Run(context.Background(), campaign.Spec{
			Config:       cfg,
			Seed:         benchOpt.Seed,
			BatchSize:    500,
			TargetRelErr: 0.2,
		})
		if err != nil {
			b.Fatal(err)
		}
		iters = res.Iterations
	}
	b.ReportMetric(float64(iters), "iterations_to_target")
}

// BenchmarkAdaptiveCampaignBiased measures the orchestrator on the
// importance-sampled rare-event path: 8 drives, R=1, a one-year mission,
// exponential TTOp (mean 500,000 h) and TTR (mean 100 h), TTOp hazard
// tilted by θ=8, stopped at a ±3% weighted-normal CI in 8192-iteration
// batches. Every batch extends the weighted CI over all event groups so
// far, so the per-batch bookkeeping shows up here.
func BenchmarkAdaptiveCampaignBiased(b *testing.B) {
	cfg := sim.Config{
		Drives:     8,
		Redundancy: 1,
		Mission:    8760,
		Trans: sim.Transitions{
			TTOp: dist.MustExponential(1 / 500000.0),
			TTR:  dist.MustExponential(1 / 100.0),
		},
		Bias: sim.Bias{Op: 8},
	}
	var iters int
	for i := 0; i < b.N; i++ {
		res, err := campaign.Run(context.Background(), campaign.Spec{
			Config:       cfg,
			Seed:         benchOpt.Seed,
			BatchSize:    8192,
			TargetRelErr: 0.03,
		})
		if err != nil {
			b.Fatal(err)
		}
		iters = res.Iterations
	}
	b.ReportMetric(float64(iters), "iterations_to_target")
}

// BenchmarkMarkovComparator measures the uniformization transient solve of
// the Fig. 4 constant-rate chain — the analysis the Monte Carlo engine
// replaces.
func BenchmarkMarkovComparator(b *testing.B) {
	chain, err := markov.NewFigureFourChain(markov.FigureFourRates{
		N: 7, LambdaOp: 1 / 461386.0, LambdaLd: 1.08e-4,
		MuRestore: 1 / 12.0, MuScrub: 1 / 156.0,
	})
	if err != nil {
		b.Fatal(err)
	}
	var p float64
	for i := 0; i < b.N; i++ {
		p, err = chain.AbsorptionProbability(markov.LDFullyFunctional, core.BaseMissionHours)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(p, "absorption_prob_10y")
}

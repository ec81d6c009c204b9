package campaign

import (
	"context"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"raidrel/internal/dist"
	"raidrel/internal/sim"
	"raidrel/internal/stats"
)

// fastConfig puts the per-group DDF probability near 3% — rare enough
// that the Wilson interval takes thousands of iterations to tighten
// (exercising the adaptive loop), frequent enough that tests stay fast.
func fastConfig() sim.Config {
	return sim.Config{
		Drives:     8,
		Redundancy: 1,
		Mission:    87600,
		Trans: sim.Transitions{
			TTOp: dist.MustExponential(2.5e-5), // MTBF 40,000 h
			TTR:  dist.MustExponential(1e-1),   // MTTR 10 h
		},
	}
}

func TestRunStopsOnTarget(t *testing.T) {
	res, err := Run(context.Background(), Spec{
		Config:       fastConfig(),
		Seed:         1,
		BatchSize:    200,
		TargetRelErr: 0.3,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Reason != StopTarget {
		t.Fatalf("stop reason %v, want %v", res.Reason, StopTarget)
	}
	if res.RelErr > 0.3 {
		t.Errorf("stopped at relative error %v > target 0.3", res.RelErr)
	}
	if res.Iterations%200 != 0 || res.Iterations == 0 {
		t.Errorf("iterations %d not a positive batch multiple", res.Iterations)
	}
	if res.Iterations != res.Run.Groups {
		t.Errorf("iterations %d != group count %d", res.Iterations, res.Run.Groups)
	}
	if res.CI.Lo >= res.CI.Hi || res.CI.Level != DefaultConfidence {
		t.Errorf("suspicious CI %+v", res.CI)
	}
}

func TestRunStopsOnIterationBudget(t *testing.T) {
	res, err := Run(context.Background(), Spec{
		Config:        fastConfig(),
		Seed:          2,
		BatchSize:     200,
		TargetRelErr:  0.001, // unreachable in-budget
		MaxIterations: 500,   // not a batch multiple: final batch must shrink
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Reason != StopMaxIterations {
		t.Fatalf("stop reason %v, want %v", res.Reason, StopMaxIterations)
	}
	if res.Iterations != 500 {
		t.Errorf("iterations %d, want exactly 500", res.Iterations)
	}
}

func TestRunBudgetEqualsPlainRun(t *testing.T) {
	// A budget-only campaign must reproduce sim.RunSparse exactly,
	// whatever the batch size.
	const n = 600
	want, err := sim.RunSparse(sim.RunSpec{Config: fastConfig(), Iterations: n, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	res, err := Run(context.Background(), Spec{
		Config:        fastConfig(),
		Seed:          5,
		BatchSize:     170,
		MaxIterations: n,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Run.Groups != want.Groups || !reflect.DeepEqual(res.Run.Events, want.Events) {
		t.Fatal("batched campaign differs from single sim.RunSparse")
	}
	if res.Run.TotalDDFs != want.TotalDDFs {
		t.Fatalf("total DDFs %d != %d", res.Run.TotalDDFs, want.TotalDDFs)
	}
}

func TestRunStopsOnWallClock(t *testing.T) {
	res, err := Run(context.Background(), Spec{
		Config:      fastConfig(),
		Seed:        3,
		BatchSize:   100,
		MaxDuration: time.Nanosecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Reason != StopMaxDuration {
		t.Fatalf("stop reason %v, want %v", res.Reason, StopMaxDuration)
	}
	if res.Iterations < 100 {
		t.Errorf("campaign stopped before completing a single batch (%d iterations)", res.Iterations)
	}
}

func TestRunCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	var batches int
	res, err := Run(ctx, Spec{
		Config:        fastConfig(),
		Seed:          4,
		BatchSize:     100,
		MaxIterations: 1 << 30,
		Progress: ProgressFunc(func(s Snapshot) {
			if !s.Done {
				batches++
				if batches == 3 {
					cancel()
				}
			}
		}),
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Reason != StopCancelled {
		t.Fatalf("stop reason %v, want %v", res.Reason, StopCancelled)
	}
	if res.Iterations != 300 {
		t.Errorf("cancelled after batch 3 but completed %d iterations, want 300", res.Iterations)
	}
}

// TestRunCancelKeepsCheckpointCurrent is the graceful-drain contract:
// cancelling mid-campaign must (a) return the partial result with the
// distinct StopCancelled reason, (b) leave the checkpoint reflecting every
// completed batch, and (c) allow a resume that finishes bit-identically to
// an uninterrupted campaign. raidreld's SIGTERM drain relies on all three.
func TestRunCancelKeepsCheckpointCurrent(t *testing.T) {
	path := filepath.Join(t.TempDir(), "c.json")
	spec := Spec{
		Config:        fastConfig(),
		Seed:          11,
		BatchSize:     100,
		MaxIterations: 500,
		Checkpoint:    path,
	}

	ctx, cancel := context.WithCancel(context.Background())
	cspec := spec
	var batches int
	cspec.Progress = ProgressFunc(func(s Snapshot) {
		if !s.Done {
			if batches++; batches == 2 {
				cancel()
			}
		}
	})
	part, err := Run(ctx, cspec)
	if err != nil {
		t.Fatal(err)
	}
	if part.Reason != StopCancelled {
		t.Fatalf("stop reason %v, want %v", part.Reason, StopCancelled)
	}
	if part.Iterations != 200 {
		t.Fatalf("cancelled after batch 2 but completed %d iterations, want 200", part.Iterations)
	}

	// The checkpoint must be current: exactly the completed batches, not a
	// stale earlier write.
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("checkpoint not written: %v", err)
	}
	ck, err := decodeCheckpoint(data, spec.withDefaults())
	if err != nil {
		t.Fatalf("checkpoint after cancel not loadable: %v", err)
	}
	restored, restoredBatches := ck.run, ck.batches
	if restored.Groups != part.Iterations || restoredBatches != part.Batches {
		t.Fatalf("checkpoint holds %d iterations in %d batches, campaign stopped at %d in %d",
			restored.Groups, restoredBatches, part.Iterations, part.Batches)
	}

	// Resume to completion and compare with an uninterrupted campaign.
	rspec := spec
	rspec.Resume = path
	resumed, err := Run(context.Background(), rspec)
	if err != nil {
		t.Fatal(err)
	}
	full, err := Run(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	if resumed.Iterations != full.Iterations || !reflect.DeepEqual(resumed.Run.Events, full.Run.Events) {
		t.Error("resumed-after-cancel campaign differs from uninterrupted campaign")
	}
}

// TestShardComposition lifts the sim-level offset-composition guarantee to
// the campaign level: k shard campaigns over disjoint Offset ranges, merged
// in offset order, must be bit-identical to one unsharded campaign, and
// Summarize must report the same statistics the unsharded run computed.
func TestShardComposition(t *testing.T) {
	const n, shards = 900, 3
	spec := Spec{Config: fastConfig(), Seed: 13, BatchSize: 150, MaxIterations: n}
	full, err := Run(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}

	merged := &sim.SparseResult{}
	for i := 0; i < shards; i++ {
		start, end := i*n/shards, (i+1)*n/shards
		sspec := spec
		sspec.Offset = start
		sspec.MaxIterations = end - start
		sres, err := Run(context.Background(), sspec)
		if err != nil {
			t.Fatal(err)
		}
		if sres.Iterations != end-start {
			t.Fatalf("shard %d ran %d iterations, want %d", i, sres.Iterations, end-start)
		}
		merged.Merge(sres.Run)
	}

	if merged.Groups != full.Run.Groups || !reflect.DeepEqual(merged.Events, full.Run.Events) {
		t.Fatal("merged shard campaigns differ from the unsharded campaign")
	}
	sum := Summarize(spec, merged)
	if sum.Iterations != full.Iterations || sum.GroupsWithDDF != full.GroupsWithDDF ||
		sum.CI != full.CI || sum.RelErr != full.RelErr {
		t.Errorf("Summarize of merged shards %+v differs from unsharded campaign %+v", sum, full)
	}
}

func TestRunMinIterationsGuard(t *testing.T) {
	// With a very loose target the first batch would already satisfy the
	// precision rule; MinIterations must hold the campaign open.
	res, err := Run(context.Background(), Spec{
		Config:        fastConfig(),
		Seed:          6,
		BatchSize:     100,
		MinIterations: 700,
		TargetRelErr:  0.9,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Iterations < 700 {
		t.Errorf("stopped at %d iterations, below MinIterations 700", res.Iterations)
	}
}

func TestRunValidation(t *testing.T) {
	if _, err := Run(context.Background(), Spec{Config: fastConfig()}); err == nil {
		t.Error("spec without any stopping rule accepted")
	}
	if _, err := Run(context.Background(), Spec{Config: sim.Config{}, MaxIterations: 10}); err == nil {
		t.Error("invalid sim config accepted")
	}
	if _, err := Run(context.Background(), Spec{
		Config: fastConfig(), MaxIterations: 10, TargetRelErr: -1,
	}); err == nil {
		t.Error("negative target accepted")
	}
	if _, err := Run(context.Background(), Spec{
		Config: fastConfig(), MaxIterations: 10, Confidence: 1.5,
	}); err == nil {
		t.Error("confidence outside (0,1) accepted")
	}
	if _, err := Run(context.Background(), Spec{
		Config: fastConfig(), MaxIterations: 10, BatchSize: -5,
	}); err == nil {
		t.Error("negative batch size accepted")
	}
	// Rounding to whole VR blocks or fleet chronologies must not turn a
	// negative batch size into a valid one-unit batch.
	for name, spec := range map[string]Spec{"vr": vrSpec(), "fleet": fleetSpec()} {
		spec.MaxIterations, spec.BatchSize = 128, -5
		if _, err := Run(context.Background(), spec); err == nil {
			t.Errorf("%s: negative batch size accepted", name)
		}
	}
	if _, err := Run(context.Background(), Spec{
		Config: fastConfig(), MaxIterations: 10, MaxDuration: -time.Second,
	}); err == nil {
		t.Error("negative duration accepted")
	}
}

func TestProgressTelemetry(t *testing.T) {
	var snaps []Snapshot
	res, err := Run(context.Background(), Spec{
		Config:        fastConfig(),
		Seed:          7,
		BatchSize:     150,
		MaxIterations: 450,
		Progress:      ProgressFunc(func(s Snapshot) { snaps = append(snaps, s) }),
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(snaps) != 4 { // 3 batches + final
		t.Fatalf("got %d snapshots, want 4", len(snaps))
	}
	for i, s := range snaps[:3] {
		if s.Done {
			t.Errorf("snapshot %d marked done", i)
		}
		if s.Iterations != 150*(i+1) {
			t.Errorf("snapshot %d at %d iterations, want %d", i, s.Iterations, 150*(i+1))
		}
		if s.Batches != i+1 {
			t.Errorf("snapshot %d batches = %d", i, s.Batches)
		}
		if s.TotalDDFs != s.OpOpDDFs+s.LdOpDDFs {
			t.Errorf("snapshot %d cause split %d+%d != total %d", i, s.OpOpDDFs, s.LdOpDDFs, s.TotalDDFs)
		}
		if s.GroupsWithDDF > 0 && (s.CI.Lo >= s.CI.Hi || math.IsInf(s.RelErr, 1)) {
			t.Errorf("snapshot %d has events but no usable CI: %+v", i, s)
		}
	}
	final := snaps[3]
	if !final.Done || final.Reason != StopMaxIterations {
		t.Errorf("final snapshot %+v not a proper completion frame", final)
	}
	if final.Iterations != 450 {
		t.Errorf("final snapshot at %d iterations, want 450", final.Iterations)
	}
	// The progress frame's p and the result's p̂ are one rule.
	if got, want := phat(final), res.PointEstimate(); math.Float64bits(got) != math.Float64bits(want) {
		t.Errorf("final snapshot p = %v, result PointEstimate = %v", got, want)
	}
}

// TestJSONProgressFormat pins the machine-readable snapshot schema: one
// JSON object per line, JSON-hostile values (infinite RelErr, unknown ETA)
// omitted rather than encoded, and the final frame carrying done+reason.
func TestJSONProgressFormat(t *testing.T) {
	var sb strings.Builder
	p := JSONProgress(&sb)
	p.Report(Snapshot{Iterations: 1000, Batches: 1, Rate: 500, TotalDDFs: 3, OpOpDDFs: 2, LdOpDDFs: 1,
		GroupsWithDDF: 3, CI: stats.Interval{Lo: 0.001, Hi: 0.005, Level: 0.95},
		RelErr: 0.5, Elapsed: 2 * time.Second, ETA: 2 * time.Minute})
	p.Report(Snapshot{Done: true, Reason: StopTarget, Iterations: 1000, Batches: 1,
		RelErr: math.Inf(1), ETA: -1})

	lines := strings.Split(strings.TrimSuffix(sb.String(), "\n"), "\n")
	if len(lines) != 2 {
		t.Fatalf("got %d JSON lines, want 2:\n%s", len(lines), sb.String())
	}
	var frame map[string]any
	if err := json.Unmarshal([]byte(lines[0]), &frame); err != nil {
		t.Fatalf("line 1 not valid JSON: %v", err)
	}
	for key, want := range map[string]float64{
		"iterations": 1000, "batches": 1, "ddfs": 3, "ddfs_op_op": 2, "ddfs_ld_op": 1,
		"groups_with_ddf": 3, "ci_lo": 0.001, "ci_hi": 0.005, "confidence": 0.95,
		"rel_err": 0.5, "rate": 500, "elapsed_s": 2, "eta_s": 120, "p": 0.003,
	} {
		if got, ok := frame[key].(float64); !ok || got != want {
			t.Errorf("frame[%q] = %v, want %v", key, frame[key], want)
		}
	}
	if _, present := frame["done"]; present {
		t.Error("in-flight frame carries done")
	}

	var final map[string]any
	if err := json.Unmarshal([]byte(lines[1]), &final); err != nil {
		t.Fatalf("line 2 not valid JSON: %v", err)
	}
	if final["done"] != true || final["reason"] != StopTarget.String() {
		t.Errorf("final frame %v missing done/reason", final)
	}
	for _, absent := range []string{"rel_err", "eta_s"} {
		if _, present := final[absent]; present {
			t.Errorf("final frame encodes %q despite unknown value", absent)
		}
	}
}

func TestWriterProgressFormat(t *testing.T) {
	var sb strings.Builder
	p := WriterProgress(&sb)
	p.Report(Snapshot{Iterations: 1000, Rate: 500, TotalDDFs: 3, OpOpDDFs: 2, LdOpDDFs: 1,
		GroupsWithDDF: 3, RelErr: 0.5, ETA: 2 * time.Minute})
	p.Report(Snapshot{Done: true, Reason: StopTarget, Iterations: 1000, Batches: 1})
	out := sb.String()
	for _, want := range []string{"1000 iters", "500/s", "2 op+op", "1 ld+op", "eta=2m0s", "target precision reached"} {
		if !strings.Contains(out, want) {
			t.Errorf("progress output missing %q:\n%s", want, out)
		}
	}
}

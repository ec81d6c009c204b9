package campaign

import (
	"context"
	"encoding/json"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"raidrel/internal/dist"
	"raidrel/internal/sim"
	"raidrel/internal/stats"
)

// rareConfig puts the per-group DDF probability near 2e-4 — rare enough
// that reaching ±10% costs plain Monte Carlo ~2M iterations, so importance
// sampling has something real to accelerate, while the unbiased reference
// stays affordable in a test (~1s).
func rareConfig() sim.Config {
	return sim.Config{
		Drives:     8,
		Redundancy: 1,
		Mission:    8760,
		Trans: sim.Transitions{
			TTOp: dist.MustExponential(2e-6), // MTBF 500,000 h
			TTR:  dist.MustExponential(1e-2), // MTTR 100 h
		},
	}
}

// TestCrossValidationBiasedVsUnbiased is the tentpole's correctness
// harness: the same rare-event campaign run plain and importance-sampled
// must (a) agree — overlapping confidence intervals at the same level —
// and (b) the biased run must reach the ±10% target with at least 10×
// fewer iterations. The measured counts back the BENCH_sim.json entry.
func TestCrossValidationBiasedVsUnbiased(t *testing.T) {
	const target = 0.1

	unbiased, err := Run(context.Background(), Spec{
		Config:       rareConfig(),
		Seed:         42,
		BatchSize:    50000,
		TargetRelErr: target,
	})
	if err != nil {
		t.Fatal(err)
	}
	if unbiased.Reason != StopTarget {
		t.Fatalf("unbiased campaign stopped for %v, want target", unbiased.Reason)
	}

	biasedCfg := rareConfig()
	biasedCfg.Bias.Op = 8
	biased, err := Run(context.Background(), Spec{
		Config:       biasedCfg,
		Seed:         42,
		BatchSize:    2000,
		TargetRelErr: target,
	})
	if err != nil {
		t.Fatal(err)
	}
	if biased.Reason != StopTarget {
		t.Fatalf("biased campaign stopped for %v, want target", biased.Reason)
	}
	if biased.ESS <= 0 {
		t.Error("biased campaign reports no effective sample size")
	}

	// Agreement: the two 95% intervals on the same quantity must overlap.
	// With both at ±10% a miss would be a > 3σ event, i.e. a weight bug.
	if biased.CI.Lo > unbiased.CI.Hi || unbiased.CI.Lo > biased.CI.Hi {
		t.Errorf("estimates disagree: biased CI [%g, %g] vs unbiased [%g, %g]",
			biased.CI.Lo, biased.CI.Hi, unbiased.CI.Lo, unbiased.CI.Hi)
	}

	// Acceleration: the headline claim of the feature.
	speedup := float64(unbiased.Iterations) / float64(biased.Iterations)
	t.Logf("±10%%: unbiased %d iterations, biased %d (%.0f×); unbiased CI [%g, %g], biased [%g, %g] ess=%.0f",
		unbiased.Iterations, biased.Iterations, speedup,
		unbiased.CI.Lo, unbiased.CI.Hi, biased.CI.Lo, biased.CI.Hi, biased.ESS)
	if speedup < 10 {
		t.Errorf("biased campaign took %d iterations vs %d unbiased — %.1f×, want >= 10×",
			biased.Iterations, unbiased.Iterations, speedup)
	}
}

// TestKillResumeBiasedCampaign kills importance-sampled campaigns partway
// and resumes them from the checkpoint: the resumed run rebuilds its
// incremental summary from the restored events in one step, extends it
// batch by batch, and must end bit-identical to the uninterrupted run —
// events, log weights, interval, ESS and group counts. The topology case
// interleaves unavailability onsets with the weighted loss events.
func TestKillResumeBiasedCampaign(t *testing.T) {
	cfg := rareConfig()
	cfg.Bias.Op = 8
	for _, c := range []struct {
		name string
		spec Spec
	}{
		{"rare", Spec{Config: cfg, Seed: 42, BatchSize: 2000, TargetRelErr: 0.15}},
		{"topology", Spec{Config: biasedTopologyConfig(), Seed: 17, BatchSize: 200, MaxIterations: 1600}},
	} {
		t.Run(c.name, func(t *testing.T) {
			spec := c.spec
			want, err := Run(context.Background(), spec)
			if err != nil {
				t.Fatal(err)
			}
			wantReason := StopTarget
			if spec.TargetRelErr == 0 {
				wantReason = StopMaxIterations
			}
			if want.Reason != wantReason {
				t.Fatalf("reference campaign stopped for %v, want %v", want.Reason, wantReason)
			}

			path := filepath.Join(t.TempDir(), "c.json")
			ctx, cancel := context.WithCancel(context.Background())
			killed := spec
			killed.Checkpoint = path
			batches := 0
			killed.Progress = ProgressFunc(func(s Snapshot) {
				if !s.Done {
					if batches++; batches == 2 {
						cancel()
					}
				}
			})
			part, err := Run(ctx, killed)
			if err != nil {
				t.Fatal(err)
			}
			if part.Reason != StopCancelled {
				t.Fatalf("killed campaign stopped for %v, want cancelled", part.Reason)
			}
			if part.Iterations >= want.Iterations {
				t.Fatalf("kill point %d not partway through reference %d; test is vacuous",
					part.Iterations, want.Iterations)
			}

			resumed := spec
			resumed.Resume = path
			got, err := Run(context.Background(), resumed)
			if err != nil {
				t.Fatal(err)
			}
			if got.Reason != want.Reason || got.Iterations != want.Iterations {
				t.Fatalf("resumed campaign (%v after %d) differs from uninterrupted (%v after %d)",
					got.Reason, got.Iterations, want.Reason, want.Iterations)
			}
			sameStats(t, "resumed", got, want)
			if got.Run.Groups != want.Run.Groups || !reflect.DeepEqual(got.Run.Events, want.Run.Events) {
				t.Error("events (incl. log weights) differ bit-for-bit after resume")
			}
		})
	}
}

// An unbiased checkpoint must not resume into a biased campaign (or vice
// versa): the stored events lack (or carry) weights the estimator needs.
func TestResumeRejectsBiasMismatch(t *testing.T) {
	path := filepath.Join(t.TempDir(), "c.json")
	spec := Spec{Config: fastConfig(), Seed: 1, BatchSize: 100, MaxIterations: 100, Checkpoint: path}
	if _, err := Run(context.Background(), spec); err != nil {
		t.Fatal(err)
	}

	biased := spec
	biased.Checkpoint = ""
	biased.Resume = path
	biased.Config.Bias.Op = 3
	if _, err := Run(context.Background(), biased); err == nil {
		t.Error("biased campaign resumed an unbiased checkpoint")
	}

	biasedPath := filepath.Join(t.TempDir(), "b.json")
	biasedSpec := spec
	biasedSpec.Config.Bias.Op = 3
	biasedSpec.Checkpoint = biasedPath
	if _, err := Run(context.Background(), biasedSpec); err != nil {
		t.Fatal(err)
	}
	otherTheta := biasedSpec
	otherTheta.Checkpoint = ""
	otherTheta.Resume = biasedPath
	otherTheta.Config.Bias.Op = 5
	if _, err := Run(context.Background(), otherTheta); err == nil {
		t.Error("campaign resumed a checkpoint written under a different bias factor")
	}
}

// The decoder must reject weight corruption: within a group the log weight
// is a single per-iteration quantity repeated on each event.
func TestDecodeCheckpointRejectsWeightMismatch(t *testing.T) {
	cfg := fastConfig()
	cfg.Bias.Op = 2
	spec := Spec{Config: cfg, Seed: 1, MaxIterations: 10}.withDefaults()
	doc := checkpointFile{
		Version:     CheckpointVersion,
		Fingerprint: spec.Fingerprint(),
		Seed:        1,
		NextStream:  10,
		Batches:     1,
		Events: []checkpointEvent{
			{Group: 3, Time: 100, Cause: int(sim.CauseOpOp), LogW: -0.5},
			{Group: 3, Time: 200, Cause: int(sim.CauseLdOp), LogW: -0.7},
		},
	}
	data, err := json.Marshal(doc)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := decodeCheckpoint(data, spec); err == nil {
		t.Error("same-group events with different log weights accepted")
	}

	// The consistent version of the same document decodes fine and
	// restores the weights.
	doc.Events[1].LogW = -0.5
	data, err = json.Marshal(doc)
	if err != nil {
		t.Fatal(err)
	}
	ck, err := decodeCheckpoint(data, spec)
	if err != nil {
		t.Fatal(err)
	}
	run := ck.run
	if !run.Weighted() {
		t.Error("restored weighted checkpoint reports no weights")
	}
	for _, e := range run.Events {
		if e.LogW != -0.5 {
			t.Errorf("restored log weight %v, want -0.5", e.LogW)
		}
	}
}

// Satellite fix: an exhausted wall-clock budget used to produce a negative
// remaining duration that eta discarded as "unknown"; it must clamp to 0.
func TestEtaClampsExhaustedWallClock(t *testing.T) {
	spec := Spec{MaxDuration: time.Second}
	if got := eta(spec, Snapshot{Elapsed: 2 * time.Second}); got != 0 {
		t.Errorf("eta with exhausted budget = %v, want 0", got)
	}
	if got := eta(spec, Snapshot{Elapsed: 400 * time.Millisecond}); got != 600*time.Millisecond {
		t.Errorf("eta with 600ms remaining = %v", got)
	}
	// No budget, no rate: still unknown.
	if got := eta(Spec{}, Snapshot{}); got != -1 {
		t.Errorf("eta with no rule = %v, want -1", got)
	}
}

// Satellite fix: the final progress line used to omit the estimate the
// whole campaign existed to produce. Pin the exact format, plain and
// weighted.
func TestWriterProgressDoneLine(t *testing.T) {
	s := Snapshot{
		Done: true, Reason: StopTarget,
		Iterations: 5000, Batches: 5, Elapsed: 1500 * time.Millisecond,
		TotalDDFs: 12, OpOpDDFs: 8, LdOpDDFs: 4, GroupsWithDDF: 11,
		CI:     stats.Interval{Lo: 0.001, Hi: 0.003, Level: 0.95},
		RelErr: 0.5,
	}

	var sb strings.Builder
	WriterProgress(&sb).Report(s)
	want := "campaign: done (target precision reached): 5000 iterations in 5 batches, 1.5s: " +
		"12 DDFs (8 op+op, 4 ld+op) p=0.0022 ci95=[0.001, 0.003] relerr=0.500\n"
	if sb.String() != want {
		t.Errorf("done line:\n got %q\nwant %q", sb.String(), want)
	}

	// Weighted campaign: p̂ is the CI midpoint and the ESS is appended.
	s.ESS = 7.5
	sb.Reset()
	WriterProgress(&sb).Report(s)
	want = "campaign: done (target precision reached): 5000 iterations in 5 batches, 1.5s: " +
		"12 DDFs (8 op+op, 4 ld+op) p=0.002 ci95=[0.001, 0.003] relerr=0.500 ess=7.5\n"
	if sb.String() != want {
		t.Errorf("weighted done line:\n got %q\nwant %q", sb.String(), want)
	}
}

package campaign

import (
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"raidrel/internal/dist"
	"raidrel/internal/sim"
)

// TestKillResumeEqualsUninterrupted is the subsystem's core guarantee:
// a campaign killed partway and resumed from its checkpoint produces the
// identical DDF counts and CI as the same campaign run uninterrupted.
func TestKillResumeEqualsUninterrupted(t *testing.T) {
	// A 15% target needs a few thousand iterations at fastConfig's DDF
	// probability, so the kill after batch 2 lands genuinely mid-campaign.
	spec := Spec{
		Config:       fastConfig(),
		Seed:         42,
		BatchSize:    200,
		TargetRelErr: 0.15,
	}

	// Reference: the campaign run to completion, no interruption.
	want, err := Run(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	if want.Reason != StopTarget {
		t.Fatalf("reference campaign stopped for %v, want target", want.Reason)
	}

	// "Kill" the same campaign after its second batch: cancel the context
	// from the progress sink, exactly as a SIGINT would between batches.
	path := filepath.Join(t.TempDir(), "c.json")
	ctx, cancel := context.WithCancel(context.Background())
	killed := spec
	killed.Checkpoint = path
	batches := 0
	killed.Progress = ProgressFunc(func(s Snapshot) {
		if !s.Done {
			batches++
			if batches == 2 {
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

	// Resume from the checkpoint file and run to completion.
	resumed := spec
	resumed.Resume = path
	got, err := Run(context.Background(), resumed)
	if err != nil {
		t.Fatal(err)
	}
	if got.ResumedFrom != part.Iterations {
		t.Errorf("resumed from %d iterations, checkpoint held %d", got.ResumedFrom, part.Iterations)
	}
	if got.Reason != want.Reason || got.Iterations != want.Iterations {
		t.Fatalf("resumed campaign (%v after %d) differs from uninterrupted (%v after %d)",
			got.Reason, got.Iterations, want.Reason, want.Iterations)
	}
	if got.Run.TotalDDFs != want.Run.TotalDDFs ||
		got.Run.OpOpDDFs != want.Run.OpOpDDFs ||
		got.Run.LdOpDDFs != want.Run.LdOpDDFs {
		t.Errorf("DDF counts differ: resumed (%d,%d,%d) vs uninterrupted (%d,%d,%d)",
			got.Run.TotalDDFs, got.Run.OpOpDDFs, got.Run.LdOpDDFs,
			want.Run.TotalDDFs, want.Run.OpOpDDFs, want.Run.LdOpDDFs)
	}
	if got.CI != want.CI || got.GroupsWithDDF != want.GroupsWithDDF {
		t.Errorf("CI differs: resumed %+v (k=%d) vs uninterrupted %+v (k=%d)",
			got.CI, got.GroupsWithDDF, want.CI, want.GroupsWithDDF)
	}
	if got.Run.Groups != want.Run.Groups || !reflect.DeepEqual(got.Run.Events, want.Run.Events) {
		t.Error("per-group chronologies differ bit-for-bit")
	}
}

func TestCheckpointRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "c.json")
	spec := Spec{
		Config:        fastConfig(),
		Seed:          9,
		BatchSize:     150,
		MaxIterations: 450,
		Checkpoint:    path,
	}
	res, err := Run(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}

	ck, err := loadCheckpoint(path, spec.withDefaults())
	if err != nil {
		t.Fatal(err)
	}
	restored, batches := ck.run, ck.batches
	if batches != res.Batches {
		t.Errorf("restored %d batches, want %d", batches, res.Batches)
	}
	if restored.Groups != res.Run.Groups || !reflect.DeepEqual(restored.Events, res.Run.Events) {
		t.Error("restored results differ from the live campaign's")
	}
	if restored.TotalDDFs != res.Run.TotalDDFs ||
		restored.OpOpDDFs != res.Run.OpOpDDFs ||
		restored.LdOpDDFs != res.Run.LdOpDDFs {
		t.Error("restored tallies differ")
	}

	// Resuming a finished campaign must stop immediately with the same
	// result and run zero extra batches.
	again := spec
	again.Checkpoint = ""
	again.Resume = path
	rerun, err := Run(context.Background(), again)
	if err != nil {
		t.Fatal(err)
	}
	if rerun.Batches != res.Batches || rerun.Iterations != res.Iterations {
		t.Errorf("resume of finished campaign reran work: %d batches / %d iters, want %d / %d",
			rerun.Batches, rerun.Iterations, res.Batches, res.Iterations)
	}
	if rerun.Reason != StopMaxIterations {
		t.Errorf("resume of finished campaign stopped for %v", rerun.Reason)
	}
}

// A coupled-topology campaign's checkpoints carry unavailability onsets
// (cause 3) next to the loss events; the round trip must restore them into
// the unavailability tallies, and resuming must reproduce the
// uninterrupted campaign bit-for-bit.
func TestCheckpointRoundTripWithTopology(t *testing.T) {
	path := filepath.Join(t.TempDir(), "c.json")
	cfg := fastConfig()
	cfg.Topology = &sim.Topology{Components: []sim.Component{{
		Name:   "enclosure",
		Drives: []int{0, 1, 2, 3, 4, 5, 6, 7},
		TTOp:   dist.MustExponential(5e-4),
		TTR:    dist.MustExponential(1e-3),
	}}}
	spec := Spec{
		Config:        cfg,
		Seed:          17,
		BatchSize:     200,
		MaxIterations: 600,
		Checkpoint:    path,
	}
	res, err := Run(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	if res.Run.UnavailEvents == 0 {
		t.Fatal("no unavailability onsets at these component rates; the round trip tests nothing")
	}
	if res.GroupsWithUnavail == 0 {
		t.Error("campaign result did not surface unavailable groups")
	}

	ck, err := loadCheckpoint(path, spec.withDefaults())
	if err != nil {
		t.Fatal(err)
	}
	restored := ck.run
	if restored.UnavailEvents != res.Run.UnavailEvents {
		t.Errorf("restored %d unavailability onsets, want %d", restored.UnavailEvents, res.Run.UnavailEvents)
	}
	if restored.TotalDDFs != res.Run.TotalDDFs || !reflect.DeepEqual(restored.Events, res.Run.Events) {
		t.Error("restored events differ from the live campaign's")
	}

	// A flat campaign must reject the coupled checkpoint: the topology is
	// part of the fingerprint when (and only when) it is coupled.
	flat := spec
	flat.Checkpoint = ""
	flat.Resume = path
	flat.Config.Topology = nil
	if _, err := Run(context.Background(), flat); err == nil {
		t.Error("flat campaign resumed a coupled-topology checkpoint")
	}
}

func TestResumeRejectsMismatchedCampaign(t *testing.T) {
	path := filepath.Join(t.TempDir(), "c.json")
	spec := Spec{Config: fastConfig(), Seed: 1, BatchSize: 100, MaxIterations: 100, Checkpoint: path}
	if _, err := Run(context.Background(), spec); err != nil {
		t.Fatal(err)
	}

	wrongSeed := spec
	wrongSeed.Checkpoint = ""
	wrongSeed.Resume = path
	wrongSeed.Seed = 2
	if _, err := Run(context.Background(), wrongSeed); err == nil {
		t.Error("resume with a different seed accepted")
	}

	wrongConfig := spec
	wrongConfig.Checkpoint = ""
	wrongConfig.Resume = path
	wrongConfig.Config.Drives = 9
	if _, err := Run(context.Background(), wrongConfig); err == nil {
		t.Error("resume with a different config accepted")
	}
}

func TestResumeRejectsBadFiles(t *testing.T) {
	dir := t.TempDir()
	spec := Spec{Config: fastConfig(), Seed: 1, MaxIterations: 100}

	missing := spec
	missing.Resume = filepath.Join(dir, "nope.json")
	if _, err := Run(context.Background(), missing); err == nil {
		t.Error("missing checkpoint accepted")
	}

	corrupt := filepath.Join(dir, "corrupt.json")
	if err := os.WriteFile(corrupt, []byte("{not json"), 0o644); err != nil {
		t.Fatal(err)
	}
	bad := spec
	bad.Resume = corrupt
	if _, err := Run(context.Background(), bad); err == nil {
		t.Error("corrupt checkpoint accepted")
	}

	// Future version: loader must refuse rather than guess.
	futurePath := filepath.Join(dir, "future.json")
	doc := checkpointFile{Version: CheckpointVersion + 1, Fingerprint: spec.withDefaults().Fingerprint(), Seed: 1}
	data, err := json.Marshal(doc)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(futurePath, data, 0o644); err != nil {
		t.Fatal(err)
	}
	future := spec
	future.Resume = futurePath
	if _, err := Run(context.Background(), future); err == nil {
		t.Error("future-version checkpoint accepted")
	}
}

func TestCheckpointWritesAreAtomic(t *testing.T) {
	// After every batch the file on disk must decode as a complete
	// checkpoint of exactly the batches run so far: the header's tmp+rename
	// and each appended frame's trailing newline never expose partial state.
	path := filepath.Join(t.TempDir(), "c.json")
	spec := Spec{
		Config:        fastConfig(),
		Seed:          11,
		BatchSize:     100,
		MaxIterations: 300,
		Checkpoint:    path,
	}
	seen := 0
	spec.Progress = ProgressFunc(func(s Snapshot) {
		if s.Done {
			return
		}
		data, err := os.ReadFile(path)
		if err != nil {
			t.Errorf("after batch %d: %v", s.Batches, err)
			return
		}
		ck, err := decodeCheckpoint(data, spec.withDefaults())
		if err != nil {
			t.Errorf("after batch %d: undecodable checkpoint: %v", s.Batches, err)
			return
		}
		if ck.run.Groups != s.Iterations || ck.batches != s.Batches {
			t.Errorf("after batch %d: checkpoint holds %d iterations in %d batches, want %d in %d",
				s.Batches, ck.run.Groups, ck.batches, s.Iterations, s.Batches)
		}
		seen++
	})
	if _, err := Run(context.Background(), spec); err != nil {
		t.Fatal(err)
	}
	if seen != 3 {
		t.Errorf("verified %d checkpoints, want 3", seen)
	}
}

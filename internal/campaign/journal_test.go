package campaign

import (
	"bufio"
	"bytes"
	"context"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"reflect"
	"strconv"
	"testing"

	"raidrel/internal/sim"
)

// sameCampaign fails t unless got reports exactly want's state: iteration
// and batch counts, interval, and every event bit for bit.
func sameCampaign(t *testing.T, what string, got, want *Result) {
	t.Helper()
	if got.Iterations != want.Iterations || got.Batches != want.Batches || got.Reason != want.Reason {
		t.Fatalf("%s: %d iterations in %d batches (%v), want %d in %d (%v)",
			what, got.Iterations, got.Batches, got.Reason, want.Iterations, want.Batches, want.Reason)
	}
	if got.CI != want.CI || got.GroupsWithDDF != want.GroupsWithDDF {
		t.Fatalf("%s: CI %+v (k=%d), want %+v (k=%d)", what, got.CI, got.GroupsWithDDF, want.CI, want.GroupsWithDDF)
	}
	if got.Run.Groups != want.Run.Groups || !reflect.DeepEqual(got.Run.Events, want.Run.Events) {
		t.Fatalf("%s: per-group chronologies differ bit for bit", what)
	}
}

// testdata/v1-event-seed42.ckpt.json is a version-1 checkpoint written when
// a nil engine meant the event engine: fastConfig, seed 42, three batches of
// 500. Resuming it with a nil engine must continue on the event engine —
// bit-identical to the uninterrupted event-engine run — and rewrite the
// file as a version-2 journal that still names the event engine.
func TestResumeLegacyV1Checkpoint(t *testing.T) {
	// Resume from a copy: the campaign rewrites the file it resumes.
	data, err := os.ReadFile(filepath.Join("testdata", "v1-event-seed42.ckpt.json"))
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "c.json")
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	spec := Spec{Config: fastConfig(), Seed: 42, BatchSize: 500, MaxIterations: 4000}

	resumed := spec
	resumed.Resume = path
	got, err := Run(context.Background(), resumed)
	if err != nil {
		t.Fatal(err)
	}
	if got.ResumedFrom != 1500 {
		t.Fatalf("resumed from %d iterations, the fixture holds 1500", got.ResumedFrom)
	}
	event := spec
	event.Engine = sim.EventEngine{}
	want, err := Run(context.Background(), event)
	if err != nil {
		t.Fatal(err)
	}
	sameCampaign(t, "legacy resume", got, want)

	data, err = os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	doc, err := parseJournal(data)
	if err != nil {
		t.Fatal(err)
	}
	if doc.Version != CheckpointVersion || doc.Fingerprint != event.Fingerprint() {
		t.Errorf("upgraded checkpoint is version %d with fingerprint %s, want version %d naming the event engine (%s)",
			doc.Version, doc.Fingerprint, CheckpointVersion, event.Fingerprint())
	}

	// The default engine is a different stream; otherwise this test would
	// not tell the two engines apart.
	fresh, err := Run(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	if reflect.DeepEqual(fresh.Run.Events, want.Run.Events) {
		t.Fatal("default and event engines agree event for event; the test is vacuous")
	}
}

// Cutting the journal anywhere inside its last frame — a kill mid-append —
// must decode to exactly the state after the previous batch.
func TestJournalTornTailIsPreviousBatch(t *testing.T) {
	path := filepath.Join(t.TempDir(), "c.json")
	spec := Spec{Config: fastConfig(), Seed: 5, BatchSize: 300, MaxIterations: 900, Checkpoint: path}
	if _, err := Run(context.Background(), spec); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if n := bytes.Count(data, []byte{'\n'}); n != 3 {
		t.Fatalf("journal has %d lines, want a header and two frames", n)
	}
	lastFrame := bytes.LastIndexByte(data[:len(data)-1], '\n') + 1

	prevSpec := spec
	prevSpec.Checkpoint = ""
	prevSpec.MaxIterations = 600
	prev, err := Run(context.Background(), prevSpec)
	if err != nil {
		t.Fatal(err)
	}
	if len(prev.Run.Events) == 0 {
		t.Fatal("no events in the first two batches; the comparison is vacuous")
	}
	for cut := lastFrame; cut < len(data); cut++ {
		ck, err := decodeCheckpoint(data[:cut], spec.withDefaults())
		if err != nil {
			t.Fatalf("cut at byte %d of %d: %v", cut, len(data), err)
		}
		if ck.batches != 2 || ck.run.Groups != 600 || !reflect.DeepEqual(ck.run.Events, prev.Run.Events) {
			t.Fatalf("cut at byte %d of %d: decoded %d groups in %d batches, want the 600 groups of batch 2",
				cut, len(data), ck.run.Groups, ck.batches)
		}
	}
	ck, err := decodeCheckpoint(data, spec.withDefaults())
	if err != nil || ck.batches != 3 || ck.run.Groups != 900 {
		t.Fatalf("whole journal: %d groups in %d batches (%v), want 900 in 3", ck.run.Groups, ck.batches, err)
	}
}

// killSpec is the campaign the kill -9 test's child process runs.
func killSpec(path string) Spec {
	return Spec{Config: fastConfig(), Seed: 23, BatchSize: 400, MaxIterations: 40_000, Checkpoint: path}
}

// crashEnv names the checkpoint path a re-executed test binary runs
// killSpec against.
const crashEnv = "RAIDREL_CAMPAIGN_CRASH_CHECKPOINT"

// A campaign process killed with SIGKILL wherever it happens to be —
// simulating, between batches, or mid-append — leaves a checkpoint that
// resumes to exactly the uninterrupted campaign. The test binary
// re-executes itself as the child, which runs killSpec and reports each
// finished batch on stdout; the parent kills it once the child reports
// batch k.
func TestKill9ResumeEqualsUninterrupted(t *testing.T) {
	if path := os.Getenv(crashEnv); path != "" {
		spec := killSpec(path)
		spec.Progress = ProgressFunc(func(s Snapshot) { fmt.Println("batch", s.Batches) })
		if _, err := Run(context.Background(), spec); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		os.Exit(0)
	}

	ref := killSpec("")
	want, err := Run(context.Background(), ref)
	if err != nil {
		t.Fatal(err)
	}
	for _, k := range []int{1, 4, 9} {
		path := filepath.Join(t.TempDir(), "c.json")
		cmd := exec.Command(os.Args[0], "-test.run=^TestKill9ResumeEqualsUninterrupted$")
		cmd.Env = append(os.Environ(), crashEnv+"="+path)
		out, err := cmd.StdoutPipe()
		if err != nil {
			t.Fatal(err)
		}
		if err := cmd.Start(); err != nil {
			t.Fatal(err)
		}
		sc := bufio.NewScanner(out)
		for sc.Scan() {
			var n int
			if _, err := fmt.Sscanf(sc.Text(), "batch %d", &n); err == nil && n >= k {
				break
			}
		}
		if err := cmd.Process.Kill(); err != nil {
			t.Fatal(err)
		}
		cmd.Wait()

		resumed := ref
		resumed.Resume = path
		got, err := Run(context.Background(), resumed)
		if err != nil {
			t.Fatalf("kill after batch %d: %v", k, err)
		}
		if got.ResumedFrom < k*ref.BatchSize || got.ResumedFrom >= ref.MaxIterations {
			t.Fatalf("kill after batch %d: resumed from %d iterations, want a partial campaign of at least %d",
				k, got.ResumedFrom, k*ref.BatchSize)
		}
		sameCampaign(t, "kill after batch "+strconv.Itoa(k), got, want)
	}
}

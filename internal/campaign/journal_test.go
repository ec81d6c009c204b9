package campaign

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"reflect"
	"strconv"
	"testing"

	"raidrel/internal/dist"
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

// frameOracle is a journal frame as encoding/json writes it: the marshaled
// checkpointFrame of the same fields and a newline. encodeFrame must write
// exactly these bytes.
func frameOracle(nextStream, batches int, events []sim.GroupEvent, blocks []sim.VRBlock, fleet *sim.FleetTally) ([]byte, error) {
	data, err := json.Marshal(checkpointFrame{
		NextStream: nextStream,
		Batches:    batches,
		Events:     encodeEvents(events),
		VRBlocks:   blocks,
		Fleet:      fleet,
	})
	return append(data, '\n'), err
}

// TestJournalFrameOracle checks the direct frame appender against the
// encoding/json oracle on frames of real plain, biased, VR and fleet runs,
// on hand-picked floats that take encoding/json's exponent form or are
// subnormal, and on an empty frame, whose events must read [] and never
// null.
func TestJournalFrameOracle(t *testing.T) {
	run := func(cfg sim.Config, fleet *sim.FleetOptions) *sim.SparseResult {
		t.Helper()
		res, err := sim.RunSparse(sim.RunSpec{Config: cfg, Iterations: 600, Seed: 31, Fleet: fleet})
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Events) == 0 {
			t.Fatal("run without events; the frame check is vacuous")
		}
		return res
	}
	biased := fastConfig()
	biased.Bias.Op = 4
	vr := fastConfig()
	vr.VR = sim.VR{Antithetic: true, Stratify: true, ControlVariate: true, BlockSize: 64}
	fleetCfg := fastConfig()
	fleetCfg.Trans.TTOp = dist.MustExponential(1e-3)
	frames := map[string]*sim.SparseResult{
		"plain":  run(fastConfig(), nil),
		"biased": run(biased, nil),
		"vr":     run(vr, nil),
		"fleet":  run(fleetCfg, &sim.FleetOptions{Groups: 6, MaxConcurrentRebuilds: 1}),
		"floats": {Groups: 40, Events: []sim.GroupEvent{
			{Group: 3, LogW: -2.5e-7, DDF: sim.DDF{Time: 1e-7, Cause: sim.CauseOpOp}},
			{Group: 3, LogW: -2.5e-7, DDF: sim.DDF{Time: 5e-324, Cause: sim.CauseLdOp}},
			{Group: 17, LogW: 1.5e21, DDF: sim.DDF{Time: 9.999999e-7, Cause: sim.CauseUnavail}},
			{Group: 18, LogW: math.Copysign(0, -1), DDF: sim.DDF{Time: 2.2250738585072014e-308, Cause: sim.CauseOpOp}},
			{Group: 39, LogW: -1e-300, DDF: sim.DDF{Time: 87599.99999999999, Cause: sim.CauseLdOp}},
		}},
		"empty": {Groups: 600},
	}
	if !frames["biased"].Weighted() || frames["vr"].VR == nil || frames["fleet"].Fleet == nil {
		t.Fatal("a run lacks the shape its frame stands for")
	}
	for name, res := range frames {
		var blocks []sim.VRBlock
		if res.VR != nil {
			blocks = res.VR.Blocks
		}
		got, err := encodeFrame(res.Groups, 2, res.Events, blocks, res.Fleet)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		want, err := frameOracle(res.Groups, 2, res.Events, blocks, res.Fleet)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Errorf("%s: frame differs from the encoding/json oracle\ngot:  %s\nwant: %s", name, got, want)
		}
		if name == "empty" && !bytes.Contains(got, []byte(`"events":[]`)) {
			t.Errorf("empty frame %s does not list its events as []", got)
		}
	}
	bad := []sim.GroupEvent{{Group: 1, DDF: sim.DDF{Time: math.Inf(1)}}}
	if _, err := encodeFrame(2, 1, bad, nil, nil); err == nil {
		t.Error("an infinite event time encoded without error")
	}
}

// FuzzJournalFrame checks frames appended from two arbitrary (group, time,
// cause, log weight) events, a VR block and a fleet tally with arbitrary
// sums against the encoding/json oracle: the same bytes, and an error
// exactly when the oracle has one (NaN, ±Inf). Each input is checked as
// frames of zero, one and two events, with and without the tallies.
func FuzzJournalFrame(f *testing.F) {
	f.Add(0, 1234.5678, 1, 0.0, 7, 87600.0, 2, 0.0, 3.5, 12.25)
	f.Add(12, 5e-324, 1, -2.5, 12, 1e-7, 2, -2.5, 1e-7, 0.0)
	f.Add(-1, 1e21, 3, 1e-300, math.MaxInt64, 9.999999e-7, -4, -1e21, -0.0, 1e300)
	f.Add(5, math.NaN(), 1, 0.0, 6, 1.0, 1, math.Inf(-1), math.Inf(1), math.NaN())
	f.Fuzz(func(t *testing.T, g1 int, t1 float64, c1 int, lw1 float64, g2 int, t2 float64, c2 int, lw2 float64, y, hours float64) {
		events := []sim.GroupEvent{
			{Group: g1, LogW: lw1, DDF: sim.DDF{Time: t1, Cause: sim.Cause(c1)}},
			{Group: g2, LogW: lw2, DDF: sim.DDF{Time: t2, Cause: sim.Cause(c2)}},
		}
		blocks := []sim.VRBlock{{Y: y, Z: hours, Y2: y * y, C: -y, N: 64, P: 32}}
		fleet := &sim.FleetTally{Chronologies: 3, GroupsPer: 6, Failures: 2, Rebuilds: 2, TotalWaitHours: hours, MaxWaitHours: y}
		for n := 0; n <= len(events); n++ {
			for _, tallies := range []bool{false, true} {
				var bl []sim.VRBlock
				var ft *sim.FleetTally
				if tallies {
					bl, ft = blocks, fleet
				}
				want, wantErr := frameOracle(g2, n, events[:n], bl, ft)
				got, err := encodeFrame(g2, n, events[:n], bl, ft)
				if (err != nil) != (wantErr != nil) {
					t.Fatalf("%d events, tallies %v: appender error %v, oracle error %v", n, tallies, err, wantErr)
				}
				if err == nil && !bytes.Equal(got, want) {
					t.Fatalf("%d events, tallies %v differ from the oracle\ngot:  %s\nwant: %s", n, tallies, got, want)
				}
			}
		}
	})
}

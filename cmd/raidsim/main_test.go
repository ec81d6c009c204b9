package main

import (
	"context"
	"encoding/json"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestRunDefaultsReduced(t *testing.T) {
	var sb strings.Builder
	if err := run(context.Background(), []string{"-iterations", "200"}, &sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{"mission total", "MTTDL view", "ld+op"} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
}

func TestRunProfileFlags(t *testing.T) {
	dir := t.TempDir()
	cpu := filepath.Join(dir, "cpu.prof")
	mem := filepath.Join(dir, "mem.prof")
	var sb strings.Builder
	err := run(context.Background(), []string{
		"-iterations", "200", "-cpuprofile", cpu, "-memprofile", mem,
	}, &sb)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "mission total") {
		t.Errorf("campaign output missing with profiling enabled:\n%s", sb.String())
	}
	for _, p := range []string{cpu, mem} {
		st, err := os.Stat(p)
		if err != nil {
			t.Fatalf("profile not written: %v", err)
		}
		if st.Size() == 0 {
			t.Errorf("profile %s is empty", p)
		}
	}
}

func TestRunCSV(t *testing.T) {
	var sb strings.Builder
	if err := run(context.Background(), []string{"-iterations", "100", "-csv"}, &sb); err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(sb.String(), "hours,ddfs_per_1000_groups") {
		t.Errorf("CSV header missing:\n%s", sb.String())
	}
}

func TestRunNoLatentDefects(t *testing.T) {
	var sb strings.Builder
	if err := run(context.Background(), []string{"-iterations", "100", "-ld-rate", "0"}, &sb); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "0 ld+op") {
		t.Errorf("latent defects disabled but output says otherwise:\n%s", sb.String())
	}
}

func TestRunRAID6(t *testing.T) {
	var sb strings.Builder
	if err := run(context.Background(), []string{"-iterations", "100", "-redundancy", "2"}, &sb); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "redundancy 2") {
		t.Errorf("redundancy not reflected:\n%s", sb.String())
	}
}

func TestRunTraceMode(t *testing.T) {
	var sb strings.Builder
	if err := run(context.Background(), []string{"-trace", "-seed", "3", "-ld-rate", "3e-4"}, &sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{"slot 0", "slot 7", "op failures", "defects"} {
		if !strings.Contains(out, want) {
			t.Errorf("trace output missing %q", want)
		}
	}
}

func TestRunValidation(t *testing.T) {
	var sb strings.Builder
	if err := run(context.Background(), []string{"-drives", "1"}, &sb); err == nil {
		t.Error("single drive accepted")
	}
	if err := run(context.Background(), []string{"-op-beta", "-2"}, &sb); err == nil {
		t.Error("negative shape accepted")
	}
	if err := run(context.Background(), []string{"-iterations", "0"}, &sb); err == nil {
		t.Error("zero iterations accepted")
	}
	if err := run(context.Background(), []string{"-target-rel-err", "-0.5"}, &sb); err == nil {
		t.Error("negative target silently ignored instead of rejected")
	}
	if err := run(context.Background(), []string{"-batch", "-5", "-max-iterations", "100"}, &sb); err == nil {
		t.Error("negative batch size accepted")
	}
	if err := run(context.Background(), []string{"-ld-rate", "-1e-4"}, &sb); err == nil {
		t.Error("negative latent-defect rate accepted")
	}
	if err := run(context.Background(), []string{"-scrub", "-24"}, &sb); err == nil {
		t.Error("negative scrub period accepted")
	}
	// A non-finite period passes the sign check and dies in core.New, where
	// the TTScrub Weibull rejects its scale.
	for _, period := range []string{"NaN", "+Inf"} {
		if err := run(context.Background(), []string{"-ld-rate", "3e-4", "-scrub", period}, &sb); err == nil {
			t.Errorf("-scrub %s accepted", period)
		}
	}
	if err := run(context.Background(), []string{"-bias", "-2"}, &sb); err == nil {
		t.Error("negative bias factor accepted")
	}
}

// -scrub 0 with latent defects on must disable scrubbing and still run:
// WithScrubPeriod(0) turns scrubbing off.
func TestRunScrubDisabled(t *testing.T) {
	var sb strings.Builder
	if err := run(context.Background(), []string{"-iterations", "100", "-ld-rate", "3e-4", "-scrub", "0"}, &sb); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "mission total") {
		t.Errorf("scrub-disabled run produced no summary:\n%s", sb.String())
	}
}

// A biased adaptive campaign must surface the effective sample size in
// the campaign block.
func TestRunBiasReportsESS(t *testing.T) {
	var sb strings.Builder
	err := run(context.Background(), []string{
		"-op-eta", "40000", "-op-beta", "1", "-ld-rate", "0",
		"-max-iterations", "200", "-batch", "100", "-bias", "3",
	}, &sb)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "effective sample size") {
		t.Errorf("biased campaign output missing ESS line:\n%s", sb.String())
	}
}

// Adaptive mode with an iteration budget must report the campaign
// telemetry block alongside the usual outputs.
func TestRunAdaptiveBudget(t *testing.T) {
	var sb strings.Builder
	err := run(context.Background(), []string{
		"-max-iterations", "400", "-batch", "150", "-target-rel-err", "1e-6",
	}, &sb)
	if err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{
		"campaign:", "400 groups in 3 batches", "iteration budget exhausted",
		"p(DDF per group) CI95", "MTTDL view",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("adaptive output missing %q:\n%s", want, out)
		}
	}
}

// -checkpoint alone bounds the campaign by -iterations and leaves a
// resumable file; -resume picks it up and stops immediately with the
// same totals.
func TestRunCheckpointThenResume(t *testing.T) {
	path := filepath.Join(t.TempDir(), "c.json")
	var first strings.Builder
	err := run(context.Background(), []string{
		"-iterations", "300", "-batch", "100", "-checkpoint", path, "-ld-rate", "3e-4", "-scrub", "0",
	}, &first)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(first.String(), "300 groups in 3 batches") {
		t.Fatalf("checkpointed campaign summary wrong:\n%s", first.String())
	}

	var second strings.Builder
	err = run(context.Background(), []string{
		"-iterations", "300", "-batch", "100", "-resume", path, "-ld-rate", "3e-4", "-scrub", "0",
	}, &second)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(second.String(), "300 groups in 3 batches") {
		t.Fatalf("resumed campaign summary wrong:\n%s", second.String())
	}
	if first.String() != second.String() {
		t.Errorf("resumed output differs from original:\n--- first\n%s--- second\n%s", first.String(), second.String())
	}
}

// testdata/v1-event-seed7.ckpt.json is a version-1 checkpoint of the
// default config written by `raidsim -max-iterations 3000 -batch 1000
// -seed 7 -checkpoint ...` when campaigns ran on the event engine, and
// resume-v1-seed7.golden is that release's uninterrupted
// `raidsim -max-iterations 6000 -batch 1000 -seed 7`. Resuming the old
// checkpoint must continue on the event engine and print exactly that.
func TestRunResumeLegacyV1Checkpoint(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("testdata", "v1-event-seed7.ckpt.json"))
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "c.json")
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	want, err := os.ReadFile(filepath.Join("testdata", "resume-v1-seed7.golden"))
	if err != nil {
		t.Fatal(err)
	}
	var got strings.Builder
	if err := run(context.Background(), []string{
		"-max-iterations", "6000", "-batch", "1000", "-seed", "7", "-resume", path,
	}, &got); err != nil {
		t.Fatal(err)
	}
	if got.String() != string(want) {
		t.Errorf("resumed legacy campaign differs from the uninterrupted event-engine run:\n--- got\n%s--- want\n%s", got.String(), want)
	}
}

// Resuming under a different configuration must fail loudly, not
// silently mix streams.
func TestRunResumeMismatch(t *testing.T) {
	path := filepath.Join(t.TempDir(), "c.json")
	var sb strings.Builder
	if err := run(context.Background(), []string{
		"-iterations", "100", "-checkpoint", path,
	}, &sb); err != nil {
		t.Fatal(err)
	}
	if err := run(context.Background(), []string{
		"-iterations", "100", "-resume", path, "-seed", "99",
	}, &sb); err == nil {
		t.Error("resume with mismatched seed accepted")
	}
	if err := run(context.Background(), []string{
		"-iterations", "100", "-resume", path, "-drives", "9",
	}, &sb); err == nil {
		t.Error("resume with mismatched config accepted")
	}
}

// captureStderr runs f with os.Stderr redirected to a pipe and returns
// what f wrote there (progress telemetry goes to stderr by design, so
// stdout stays machine-parseable).
func captureStderr(t *testing.T, f func()) string {
	t.Helper()
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	orig := os.Stderr
	os.Stderr = w
	defer func() { os.Stderr = orig }()
	done := make(chan string)
	go func() {
		data, _ := io.ReadAll(r)
		done <- string(data)
	}()
	f()
	w.Close()
	return <-done
}

func TestRunProgressJSON(t *testing.T) {
	var sb strings.Builder
	telemetry := captureStderr(t, func() {
		if err := run(context.Background(), []string{"-iterations", "300", "-progress=json"}, &sb); err != nil {
			t.Error(err)
		}
	})
	lines := strings.Split(strings.TrimSpace(telemetry), "\n")
	if len(lines) == 0 || lines[0] == "" {
		t.Fatalf("no JSON telemetry on stderr:\n%s", telemetry)
	}
	for _, line := range lines {
		var frame map[string]any
		if err := json.Unmarshal([]byte(line), &frame); err != nil {
			t.Fatalf("telemetry line is not JSON: %v\n%s", err, line)
		}
		if _, ok := frame["iterations"]; !ok {
			t.Fatalf("frame missing iterations: %s", line)
		}
	}
	var final map[string]any
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &final); err != nil {
		t.Fatal(err)
	}
	if final["done"] != true || final["iterations"] != float64(300) {
		t.Fatalf("final frame: %v", final)
	}
	if !strings.Contains(sb.String(), "mission total") {
		t.Errorf("summary missing with -progress=json:\n%s", sb.String())
	}
}

func TestRunProgressText(t *testing.T) {
	var sb strings.Builder
	telemetry := captureStderr(t, func() {
		// Bare -progress must still parse as a boolean flag and mean text.
		if err := run(context.Background(), []string{"-iterations", "300", "-progress"}, &sb); err != nil {
			t.Error(err)
		}
	})
	if !strings.Contains(telemetry, "campaign: done") {
		t.Fatalf("no text telemetry on stderr:\n%s", telemetry)
	}
	// -progress=false and -progress=text must parse too.
	if err := run(context.Background(), []string{"-iterations", "100", "-progress=false"}, &strings.Builder{}); err != nil {
		t.Errorf("-progress=false rejected: %v", err)
	}
	telemetry = captureStderr(t, func() {
		if err := run(context.Background(), []string{"-iterations", "100", "-progress=text"}, &strings.Builder{}); err != nil {
			t.Error(err)
		}
	})
	if !strings.Contains(telemetry, "campaign: done") {
		t.Fatalf("-progress=text produced no text telemetry:\n%s", telemetry)
	}
}

func TestRunProgressBadMode(t *testing.T) {
	err := captureStderrErr(func() error {
		return run(context.Background(), []string{"-progress=yaml"}, &strings.Builder{})
	})
	if err == nil || !strings.Contains(err.Error(), "text or json") {
		t.Fatalf("bogus progress mode: %v", err)
	}
}

// captureStderrErr silences the flag package's usage spam while asserting
// on the returned error.
func captureStderrErr(f func() error) error {
	r, w, _ := os.Pipe()
	orig := os.Stderr
	os.Stderr = w
	defer func() { os.Stderr = orig; w.Close(); r.Close() }()
	return f()
}

// -topology loads a component tree from JSON, runs the coupled model on
// the event engine, and adds the availability line to the summary.
func TestRunTopology(t *testing.T) {
	path := filepath.Join(t.TempDir(), "topo.json")
	topo := `{"components": [
		{"name": "enclosure", "drives": [0,1,2,3,4,5,6,7],
		 "tt_op": {"scale": 20000, "shape": 1}, "ttr": {"scale": 1000, "shape": 1}}
	]}`
	if err := os.WriteFile(path, []byte(topo), 0o644); err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	if err := run(context.Background(), []string{"-iterations", "200", "-topology", path}, &sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{"mission total", "availability:", "unavailability onsets"} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
}

func TestRunTopologyValidation(t *testing.T) {
	dir := t.TempDir()
	good := filepath.Join(dir, "topo.json")
	topo := `{"components": [
		{"name": "enclosure", "drives": [0,1],
		 "tt_op": {"scale": 20000, "shape": 1}, "ttr": {"scale": 1000, "shape": 1}}
	]}`
	if err := os.WriteFile(good, []byte(topo), 0o644); err != nil {
		t.Fatal(err)
	}
	missing := filepath.Join(dir, "nope.json")
	bogus := filepath.Join(dir, "bogus.json")
	if err := os.WriteFile(bogus, []byte(`{"component": []}`), 0o644); err != nil {
		t.Fatal(err)
	}
	for _, args := range [][]string{
		{"-topology", missing},
		{"-topology", bogus}, // unknown field must be rejected, not ignored
		{"-topology", good, "-vr", "antithetic", "-iterations", "512"}, // coupled + VR unsupported
	} {
		if err := run(context.Background(), args, io.Discard); err == nil {
			t.Errorf("args %v accepted", args)
		}
	}
}

func TestRunVRCampaign(t *testing.T) {
	var sb strings.Builder
	err := run(context.Background(), []string{
		"-bias", "8", "-vr", "all", "-batch-block", "128",
		"-max-iterations", "2048", "-batch", "512", "-seed", "3",
	}, &sb)
	if err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{"mission total", "variance reduction:", "antithetic pairs"} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
}

func TestRunVRFixedSize(t *testing.T) {
	// A fixed-size run with -vr routes through the block engine without the
	// campaign orchestrator; the summary must still print.
	var sb strings.Builder
	if err := run(context.Background(), []string{"-vr", "antithetic", "-iterations", "512"}, &sb); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "mission total") {
		t.Errorf("output missing summary:\n%s", sb.String())
	}
}

func TestRunVRValidation(t *testing.T) {
	for _, args := range [][]string{
		{"-vr", "bogus"},
		{"-batch-block", "-1"},
		{"-vr", "antithetic", "-batch-block", "3"}, // antithetic needs an even block
	} {
		if err := run(context.Background(), args, io.Discard); err == nil {
			t.Errorf("args %v accepted", args)
		}
	}
}

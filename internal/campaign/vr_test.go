package campaign

import (
	"context"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"raidrel/internal/dist"
	"raidrel/internal/sim"
)

// vrSpec returns a fastConfig campaign with the full variance-reduction
// stack on a small block, sized so tests cross several batches quickly.
func vrSpec() Spec {
	cfg := fastConfig()
	cfg.VR = sim.VR{Antithetic: true, Stratify: true, ControlVariate: true, BlockSize: 64}
	return Spec{
		Config:    cfg,
		Seed:      77,
		BatchSize: 512,
	}
}

// TestVRKillResumeEqualsUninterrupted extends the subsystem's core
// guarantee to variance-reduced campaigns: the restored block tallies must
// continue bit-for-bit, so the resumed campaign's estimator, CI, and VR
// diagnostics all match the uninterrupted run exactly.
func TestVRKillResumeEqualsUninterrupted(t *testing.T) {
	spec := vrSpec()
	spec.TargetRelErr = 0.15
	testKillResume(t, spec)
}

// TestCondVRKillResumeEqualsUninterrupted is the same guarantee for the
// conditional-DDF variate on the scrubbed base case: the checkpoint carries
// the [0, drives] expectation and the count-valued Z sums, and the resumed
// campaign must still match bit-for-bit.
func TestCondVRKillResumeEqualsUninterrupted(t *testing.T) {
	cfg := scrubBaseConfig()
	cfg.VR = sim.VR{Antithetic: true, Stratify: true, CondVariate: true, BlockSize: 64}
	spec := Spec{
		Config:       cfg,
		Seed:         77,
		BatchSize:    1024,
		TargetRelErr: 0.015,
	}
	testKillResume(t, spec)
}

// TestVRZeroWidthIntervalKeepsRunning: a 512-iteration batch is two
// 256-iteration blocks, and a control line fitted through two block means
// leaves no residual, so the block-mean interval after the first batch has
// zero width. That is a degenerate variance estimate, not a met target: the
// cond-variate campaign must not stop on it.
func TestVRZeroWidthIntervalKeepsRunning(t *testing.T) {
	cfg := scrubBaseConfig()
	cfg.VR = sim.VR{CondVariate: true}
	res, err := Run(context.Background(), Spec{
		Config:        cfg,
		Seed:          2,
		BatchSize:     512,
		TargetRelErr:  0.02,
		MaxIterations: 2048,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Reason == StopTarget && res.Iterations <= 512 {
		t.Fatalf("stopped on target after %d iterations with CI [%v, %v], relative half-width %v",
			res.Iterations, res.CI.Lo, res.CI.Hi, res.RelErr)
	}
	if res.Reason == StopTarget && !(res.CI.Hi > res.CI.Lo) {
		t.Fatalf("stopped on a zero-width interval [%v, %v]", res.CI.Lo, res.CI.Hi)
	}
}

func testKillResume(t *testing.T, spec Spec) {
	t.Helper()
	want, err := Run(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	if want.Reason != StopTarget {
		t.Fatalf("reference campaign stopped for %v, want target", want.Reason)
	}
	if want.Run.VR == nil || len(want.Run.VR.Blocks) < 4 {
		t.Fatal("reference campaign accumulated no VR blocks; test is vacuous")
	}

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
	if part.Reason != StopCancelled || part.Iterations >= want.Iterations {
		t.Fatalf("kill point %d (%v) not partway through reference %d", part.Iterations, part.Reason, want.Iterations)
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
	if !reflect.DeepEqual(got.Run.Events, want.Run.Events) {
		t.Error("event streams differ bit-for-bit")
	}
	if !reflect.DeepEqual(got.Run.VR, want.Run.VR) {
		t.Errorf("VR tallies differ:\nresumed      %+v\nuninterrupted %+v", got.Run.VR, want.Run.VR)
	}
	if got.CI != want.CI || got.RelErr != want.RelErr {
		t.Errorf("CI differs: resumed %+v relerr=%v vs uninterrupted %+v relerr=%v",
			got.CI, got.RelErr, want.CI, want.RelErr)
	}
	if got.VRPairs != want.VRPairs || got.VRCoeff != want.VRCoeff || got.VRFactor != want.VRFactor {
		t.Errorf("VR diagnostics differ: resumed (%d, %v, %v) vs uninterrupted (%d, %v, %v)",
			got.VRPairs, got.VRCoeff, got.VRFactor, want.VRPairs, want.VRCoeff, want.VRFactor)
	}
	if !reflect.DeepEqual(got.VRByVariate, want.VRByVariate) {
		t.Errorf("VR breakdown differs: resumed %+v vs uninterrupted %+v", got.VRByVariate, want.VRByVariate)
	}
}

// TestVRCampaignEstimator sanity-checks the block-mean estimator against
// the plain Wilson campaign on the same configuration: the variance-reduced
// point estimate must land near the plain estimate, the antithetic pair
// count must cover half the iterations, and the reported reduction factor
// must be positive.
func TestVRCampaignEstimator(t *testing.T) {
	plain, err := Run(context.Background(), Spec{
		Config: fastConfig(), Seed: 5, BatchSize: 4096, MaxIterations: 16384,
	})
	if err != nil {
		t.Fatal(err)
	}
	pRef := float64(plain.GroupsWithDDF) / float64(plain.Iterations)

	spec := vrSpec()
	spec.Seed = 5
	spec.MaxIterations = 16384
	res, err := Run(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	if res.Iterations != 16384 {
		t.Fatalf("VR campaign ran %d iterations, want 16384", res.Iterations)
	}
	if res.VRPairs != res.Iterations/2 {
		t.Errorf("VRPairs = %d, want %d", res.VRPairs, res.Iterations/2)
	}
	if res.VRFactor <= 0 {
		t.Errorf("VRFactor = %v, want > 0", res.VRFactor)
	}
	center := (res.CI.Lo + res.CI.Hi) / 2
	// Both estimates carry O(1/sqrt(n)) noise; 5 combined standard errors is a
	// generous agreement band that still catches a broken estimator.
	se := 5 * math.Sqrt(pRef*(1-pRef)/float64(res.Iterations)) * 2
	if math.Abs(center-pRef) > se {
		t.Errorf("VR estimate %v far from plain estimate %v (band %v)", center, pRef, se)
	}
	if res.CI.Lo < 0 {
		t.Errorf("CI lower bound %v negative after clamping", res.CI.Lo)
	}
}

// TestVRSpecAlignment: batch sizes and iteration budgets are rounded up to
// whole VR blocks, a nil engine resolves to the block engine, and misaligned
// shard offsets or non-block engines are rejected outright.
func TestVRSpecAlignment(t *testing.T) {
	spec := vrSpec()
	spec.BatchSize = 100 // not a multiple of 64
	spec.MaxIterations = 70
	d := spec.withDefaults()
	if d.BatchSize != 128 {
		t.Errorf("BatchSize defaulted to %d, want 128", d.BatchSize)
	}
	if d.MaxIterations != 128 {
		t.Errorf("MaxIterations defaulted to %d, want 128", d.MaxIterations)
	}
	if _, ok := sim.DefaultEngine(d.Config).(sim.BlockEngine); !ok {
		t.Errorf("nil engine resolves to %T, want sim.BlockEngine", sim.DefaultEngine(d.Config))
	}
	// VR campaigns always ran on the block engine, so their nil-engine
	// fingerprints (and checkpoints) are unchanged by the default rule.
	explicit := d
	explicit.Engine = sim.BlockEngine{}
	if d.Fingerprint() != explicit.Fingerprint() {
		t.Error("nil-engine VR fingerprint differs from the explicit block engine's")
	}

	offset := vrSpec()
	offset.MaxIterations = 128
	offset.Offset = 96 // not a multiple of 64
	if err := offset.Validate(); err == nil {
		t.Error("misaligned VR shard offset accepted")
	}
	offset.Offset = 128
	if err := offset.Validate(); err != nil {
		t.Errorf("aligned VR shard offset rejected: %v", err)
	}

	wrongEngine := vrSpec()
	wrongEngine.MaxIterations = 128
	wrongEngine.Engine = sim.EventEngine{}
	if err := wrongEngine.Validate(); err == nil {
		t.Error("VR with a non-block engine accepted")
	}
}

// TestVRFingerprint: enabling VR must change the campaign identity (the
// block tallies are incompatible), while a zero VR value must reproduce the
// legacy digest so existing checkpoints stay resumable.
func TestVRFingerprint(t *testing.T) {
	base := Spec{Config: fastConfig(), Seed: 1}
	fp := base.Fingerprint()

	zero := base
	zero.Config.VR = sim.VR{}
	if zero.Fingerprint() != fp {
		t.Error("zero VR value perturbed the fingerprint (legacy checkpoints orphaned)")
	}
	// A bare block size without any technique is scheduling, not identity.
	sched := base
	sched.Config.VR = sim.VR{BlockSize: 128}
	if sched.Fingerprint() != fp {
		t.Error("bare VR block size perturbed the fingerprint")
	}

	vr := base
	vr.Config.VR = sim.VR{Antithetic: true}
	if vr.Fingerprint() == fp {
		t.Error("enabling VR did not change the fingerprint")
	}
	other := base
	other.Config.VR = sim.VR{Antithetic: true, BlockSize: 128}
	if other.Fingerprint() == vr.Fingerprint() {
		t.Error("VR block size change did not change the fingerprint")
	}
}

// TestVRCheckpointValidation: the loader must reject tampered VR tallies —
// wrong iteration coverage, impossible block sizes, or a VR campaign whose
// checkpoint lost its tallies entirely.
func TestVRCheckpointValidation(t *testing.T) {
	path := filepath.Join(t.TempDir(), "c.json")
	spec := vrSpec()
	spec.MaxIterations = 512
	spec.Checkpoint = path
	res, err := Run(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}

	ck, err := loadCheckpoint(path, spec.withDefaults())
	if err != nil {
		t.Fatal(err)
	}
	restored := ck.run
	if !reflect.DeepEqual(restored.VR, res.Run.VR) {
		t.Error("restored VR tallies differ from the live campaign's")
	}

	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	doc, err := parseJournal(data)
	if err != nil {
		t.Fatal(err)
	}
	corrupt := func(name string, mutate func(*checkpointFile)) {
		c := doc
		c.VR = &checkpointVR{BlockSize: doc.VR.BlockSize, EZ: doc.VR.EZ, Blocks: append([]sim.VRBlock(nil), doc.VR.Blocks...)}
		mutate(&c)
		raw, err := json.Marshal(c)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := decodeCheckpoint(raw, spec.withDefaults()); err == nil {
			t.Errorf("%s: corrupted checkpoint accepted", name)
		}
	}
	corrupt("missing tallies", func(c *checkpointFile) { c.VR = nil })
	corrupt("short coverage", func(c *checkpointFile) { c.VR.Blocks = c.VR.Blocks[:len(c.VR.Blocks)-1] })
	corrupt("bad block size", func(c *checkpointFile) { c.VR.BlockSize = 0 })
	corrupt("oversized block", func(c *checkpointFile) { c.VR.Blocks[0].N += c.VR.BlockSize; c.VR.Blocks[1].N -= c.VR.BlockSize })
	corrupt("impossible pairs", func(c *checkpointFile) { c.VR.Blocks[0].P = c.VR.Blocks[0].N })
	corrupt("bad expectation", func(c *checkpointFile) { c.VR.EZ = 1.5 })
}

// TestSnapshotVRJSONRoundTrip: the VR diagnostics must survive the wire
// form, since raidreld streams Snapshots to clients as SSE frames.
func TestSnapshotVRJSONRoundTrip(t *testing.T) {
	s := Snapshot{
		Iterations:    4096,
		Batches:       4,
		GroupsWithDDF: 120,
		RelErr:        0.21,
		VRPairs:       2048,
		VRCoeff:       0.83,
		VRFactor:      3.7,
		VRByVariate:   &VRBreakdown{Antithetic: 1.2, Stratified: 1.1, Cond: 5.9},
		ETA:           -1,
	}
	data, err := json.Marshal(s)
	if err != nil {
		t.Fatal(err)
	}
	var back Snapshot
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(back, s) {
		t.Errorf("round trip changed the snapshot:\n got %+v\nwant %+v", back, s)
	}

	// VR-off snapshots must not emit the VR keys at all.
	off, err := json.Marshal(Snapshot{Iterations: 10, RelErr: math.Inf(1), ETA: -1})
	if err != nil {
		t.Fatal(err)
	}
	for _, key := range []string{"vr_pairs", "vr_coeff", "vr_factor", "vr_breakdown"} {
		if jsonHasKey(off, key) {
			t.Errorf("VR-off snapshot emitted %q: %s", key, off)
		}
	}
}

func jsonHasKey(data []byte, key string) bool {
	var m map[string]json.RawMessage
	if err := json.Unmarshal(data, &m); err != nil {
		return false
	}
	_, ok := m[key]
	return ok
}

// noScrubBaseConfig is the paper's no-scrub base case (the Table 3
// baseline row / Fig. 7 upper curve): the full Weibull parameterization
// with latent defects but scrubbing disabled. With defects never cleared,
// the control variate — 1{any first-generation operational failure within
// the mission} — predicts the DDF indicator almost perfectly, which is the
// regime the stacked estimator is built for.
func noScrubBaseConfig() sim.Config {
	return sim.Config{
		Drives:     8,
		Redundancy: 1,
		Mission:    87600,
		Trans: sim.Transitions{
			TTOp: dist.MustWeibull(1.12, 461386, 0),
			TTR:  dist.MustWeibull(2, 12, 6),
			TTLd: dist.MustWeibull(1, 9259, 0),
		},
	}
}

// TestVREfficiencyFigure measures the headline statistical claim backing
// the BENCH_sim.json "variance_reduction" entry and gated by
// scripts/benchgate.sh: on the paper's no-scrub base case the stacked
// antithetic/stratified/control-variate estimator must reach the same
// relative-CI target with at least 2× fewer iterations than the plain
// Wilson campaign, while agreeing with it. (Measured headroom is ~8× at
// the iteration granularity below; the per-block variance-reduction
// factor itself is ~60×.)
func TestVREfficiencyFigure(t *testing.T) {
	const target = 0.01
	cfg := noScrubBaseConfig()

	plain, err := Run(context.Background(), Spec{
		Config:       cfg,
		Seed:         7,
		BatchSize:    512,
		TargetRelErr: target,
	})
	if err != nil {
		t.Fatal(err)
	}
	if plain.Reason != StopTarget {
		t.Fatalf("plain campaign stopped for %v, want target", plain.Reason)
	}

	vrCfg := cfg
	vrCfg.VR = sim.VR{Antithetic: true, Stratify: true, ControlVariate: true}
	vr, err := Run(context.Background(), Spec{
		Config:        vrCfg,
		Seed:          7,
		BatchSize:     512,
		MinIterations: 2048, // ≥ 8 blocks before the block-mean CI may stop
		TargetRelErr:  target,
	})
	if err != nil {
		t.Fatal(err)
	}
	if vr.Reason != StopTarget {
		t.Fatalf("VR campaign stopped for %v, want target", vr.Reason)
	}

	// Agreement at the same level: overlapping 95% intervals.
	if vr.CI.Lo > plain.CI.Hi || plain.CI.Lo > vr.CI.Hi {
		t.Errorf("estimates disagree: VR CI [%g, %g] vs plain [%g, %g]",
			vr.CI.Lo, vr.CI.Hi, plain.CI.Lo, plain.CI.Hi)
	}

	speedup := float64(plain.Iterations) / float64(vr.Iterations)
	t.Logf("±%.0f%%: plain %d iterations, VR stack %d (%.1f×); plain CI [%g, %g], VR [%g, %g] vrfactor=%.2f coeff=%.3f",
		target*100, plain.Iterations, vr.Iterations, speedup,
		plain.CI.Lo, plain.CI.Hi, vr.CI.Lo, vr.CI.Hi, vr.VRFactor, vr.VRCoeff)
	if speedup < 2 {
		t.Errorf("VR campaign took %d iterations vs %d plain — %.1f×, want >= 2×",
			vr.Iterations, plain.Iterations, speedup)
	}
	if vr.VRFactor < 2 {
		t.Errorf("variance-reduction factor %.2f, want >= 2", vr.VRFactor)
	}
}

// scrubBaseConfig is the paper's scrubbed base case (the Table 3 scrub row /
// Fig. 7 lower curve): full Weibull parameterization with the 168-hour
// scrub cycle. Scrubbing erases defect persistence, so the indicator
// control loses nearly all its correlation and the conditional-DDF variate
// is the technique that matters here.
func scrubBaseConfig() sim.Config {
	cfg := noScrubBaseConfig()
	cfg.Trans.TTScrub = dist.MustWeibull(3, 168, 6)
	return cfg
}

// TestVREfficiencyFigureScrubbed is the scrubbed-regime counterpart of
// TestVREfficiencyFigure, gated by scripts/benchgate.sh: with the
// conditional-DDF variate replacing the indicator control, the stacked
// estimator must reach the ±1% relative-CI target with at least 3× fewer
// iterations than the plain Wilson campaign — the headline claim of the
// cond-variate work. (Measured headroom is ~2× above the gate at the batch
// granularity below.)
func TestVREfficiencyFigureScrubbed(t *testing.T) {
	const target = 0.01
	cfg := scrubBaseConfig()

	plain, err := Run(context.Background(), Spec{
		Config:       cfg,
		Seed:         7,
		BatchSize:    2048,
		TargetRelErr: target,
	})
	if err != nil {
		t.Fatal(err)
	}
	if plain.Reason != StopTarget {
		t.Fatalf("plain campaign stopped for %v, want target", plain.Reason)
	}

	vrCfg := cfg
	vrCfg.VR = sim.VR{Antithetic: true, Stratify: true, CondVariate: true}
	vr, err := Run(context.Background(), Spec{
		Config:        vrCfg,
		Seed:          7,
		BatchSize:     2048,
		MinIterations: 2048, // ≥ 8 blocks before the block-mean CI may stop
		TargetRelErr:  target,
	})
	if err != nil {
		t.Fatal(err)
	}
	if vr.Reason != StopTarget {
		t.Fatalf("VR campaign stopped for %v, want target", vr.Reason)
	}

	// Agreement at the same level: overlapping 95% intervals.
	if vr.CI.Lo > plain.CI.Hi || plain.CI.Lo > vr.CI.Hi {
		t.Errorf("estimates disagree: VR CI [%g, %g] vs plain [%g, %g]",
			vr.CI.Lo, vr.CI.Hi, plain.CI.Lo, plain.CI.Hi)
	}

	speedup := float64(plain.Iterations) / float64(vr.Iterations)
	t.Logf("±%.0f%%: plain %d iterations, cond-VR stack %d (%.1f×); plain CI [%g, %g], VR [%g, %g] vrfactor=%.2f coeff=%.3f breakdown=%+v",
		target*100, plain.Iterations, vr.Iterations, speedup,
		plain.CI.Lo, plain.CI.Hi, vr.CI.Lo, vr.CI.Hi, vr.VRFactor, vr.VRCoeff, vr.VRByVariate)
	if speedup < 3 {
		t.Errorf("cond-VR campaign took %d iterations vs %d plain — %.1f×, want >= 3×",
			vr.Iterations, plain.Iterations, speedup)
	}
	if vr.VRFactor < 3 {
		t.Errorf("variance-reduction factor %.2f, want >= 3", vr.VRFactor)
	}
	if bd := vr.VRByVariate; bd == nil {
		t.Error("cond-VR campaign reported no per-variate breakdown")
	} else {
		if bd.Cond <= 1 {
			t.Errorf("cond variate credited %.2f×, want > 1×", bd.Cond)
		}
		if bd.Control != 0 {
			t.Errorf("indicator-control credit %.2f on a cond-variate campaign, want 0", bd.Control)
		}
	}
}

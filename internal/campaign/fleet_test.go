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

// fleetSpec returns a fastConfig campaign over 8-group fleets sharing a
// single repair crew. The 100 h MTTR keeps the crew ~16% utilized, so
// every chronology accrues a nontrivial heal backlog.
func fleetSpec() Spec {
	cfg := fastConfig()
	cfg.Trans.TTR = dist.MustExponential(1e-2)
	return Spec{
		Config:    cfg,
		Seed:      81,
		BatchSize: 96,
		Fleet:     &sim.FleetOptions{Groups: 8, MaxConcurrentRebuilds: 1},
	}
}

func TestFleetCampaignRuns(t *testing.T) {
	spec := fleetSpec()
	spec.BatchSize = 100 // not a chronology multiple: defaults must round up
	spec.MaxIterations = 777
	res, err := Run(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	if res.Reason != StopMaxIterations {
		t.Fatalf("stop reason %v, want %v", res.Reason, StopMaxIterations)
	}
	// 777 rounds up to 784 = 98 whole chronologies of 8 groups.
	if res.Iterations != 784 {
		t.Fatalf("iterations %d, want budget rounded to 784", res.Iterations)
	}
	f := res.Fleet
	if f == nil || f != res.Run.Fleet {
		t.Fatal("Result.Fleet does not alias the run's backlog tally")
	}
	if f.GroupsPer != 8 || f.Chronologies != res.Iterations/8 {
		t.Fatalf("tally shape %+v for %d iterations", f, res.Iterations)
	}
	if f.Failures != f.Rebuilds+f.ActiveAtEnd+f.QueuedAtEnd {
		t.Fatalf("tally conservation violated: %+v", f)
	}
	if f.Waited == 0 || f.TotalWaitHours <= 0 {
		t.Fatalf("single-crew fleet accrued no backlog (%+v); campaign test is vacuous", f)
	}
}

// A budget-only fleet campaign reproduces the single sim.RunSparse fleet
// run: the event stream bit-for-bit, the backlog tally up to the float
// fold order of its two running sums.
func TestFleetCampaignMatchesPlainRun(t *testing.T) {
	spec := fleetSpec()
	const n = 480
	want, err := sim.RunSparse(sim.RunSpec{
		Config: spec.Config, Iterations: n, Seed: spec.Seed, Fleet: spec.Fleet,
	})
	if err != nil {
		t.Fatal(err)
	}
	spec.MaxIterations = n
	res, err := Run(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	if res.Run.Groups != want.Groups || !reflect.DeepEqual(res.Run.Events, want.Events) {
		t.Fatal("batched fleet campaign differs from single sim.RunSparse")
	}
	a, b := res.Fleet, want.Fleet
	if a.Chronologies != b.Chronologies || a.GroupsPer != b.GroupsPer ||
		a.Failures != b.Failures || a.Rebuilds != b.Rebuilds || a.Waited != b.Waited ||
		a.ActiveAtEnd != b.ActiveAtEnd || a.QueuedAtEnd != b.QueuedAtEnd ||
		a.MaxQueueDepth != b.MaxQueueDepth ||
		a.MaxWaitHours != b.MaxWaitHours || a.MaxExposureHours != b.MaxExposureHours {
		t.Fatalf("campaign fleet tally %+v != plain run %+v", a, b)
	}
	if relErrOf(a.TotalWaitHours, b.TotalWaitHours) > 1e-12 ||
		relErrOf(a.MeanDepthSum, b.MeanDepthSum) > 1e-12 {
		t.Fatalf("campaign fleet sums %v/%v != plain run %v/%v",
			a.TotalWaitHours, a.MeanDepthSum, b.TotalWaitHours, b.MeanDepthSum)
	}
}

func relErrOf(a, b float64) float64 {
	d := a - b
	if d < 0 {
		d = -d
	}
	m := 1.0
	if b > m {
		m = b
	}
	return d / m
}

// The subsystem's core guarantee extended to fleet campaigns: a killed and
// resumed campaign must continue the backlog tally bit-for-bit, since the
// checkpoint restores it verbatim and the remaining batches fold in the
// same order the uninterrupted run used.
func TestFleetKillResumeEqualsUninterrupted(t *testing.T) {
	spec := fleetSpec()
	spec.TargetRelErr = 0.1

	want, err := Run(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	if want.Reason != StopTarget {
		t.Fatalf("reference campaign stopped for %v, want target", want.Reason)
	}
	if want.Fleet == nil || want.Fleet.Waited == 0 {
		t.Fatal("reference campaign accrued no backlog; test is vacuous")
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
	if got.Fleet == nil || *got.Fleet != *want.Fleet {
		t.Errorf("fleet tallies differ:\nresumed      %+v\nuninterrupted %+v", got.Fleet, want.Fleet)
	}
	if got.CI != want.CI || got.RelErr != want.RelErr {
		t.Errorf("CI differs: resumed %+v relerr=%v vs uninterrupted %+v relerr=%v",
			got.CI, got.RelErr, want.CI, want.RelErr)
	}
}

func TestFleetFingerprint(t *testing.T) {
	base := Spec{Config: fastConfig(), Seed: 1}
	fp := base.Fingerprint()

	fleet := base
	fleet.Fleet = &sim.FleetOptions{Groups: 8}
	ffp := fleet.Fingerprint()
	if ffp == fp {
		t.Error("enabling the fleet did not change the fingerprint")
	}
	size := base
	size.Fleet = &sim.FleetOptions{Groups: 16}
	if size.Fingerprint() == ffp {
		t.Error("fleet size change did not change the fingerprint")
	}
	crew := base
	crew.Fleet = &sim.FleetOptions{Groups: 8, MaxConcurrentRebuilds: 2}
	if crew.Fingerprint() == ffp {
		t.Error("repair-slot change did not change the fingerprint")
	}
	spares := base
	spares.Fleet = &sim.FleetOptions{Groups: 8, SharedSpares: &sim.SparePolicy{Initial: 2, ReplenishHours: 100}}
	if spares.Fingerprint() == ffp {
		t.Error("shared-spare policy did not change the fingerprint")
	}
}

func TestFleetSpecValidation(t *testing.T) {
	engine := fleetSpec()
	engine.Engine = sim.BlockEngine{}
	if _, err := Run(context.Background(), engine); err == nil {
		t.Error("fleet campaign with an explicit engine accepted")
	}
	offset := fleetSpec()
	offset.Offset = 4 // not a chronology boundary
	offset.MaxIterations = 96
	if _, err := Run(context.Background(), offset); err == nil {
		t.Error("fleet campaign with a mid-chronology offset accepted")
	}
	vr := fleetSpec()
	vr.Config.VR = sim.VR{Antithetic: true}
	if _, err := Run(context.Background(), vr); err == nil {
		t.Error("fleet campaign with variance reduction accepted")
	}
	bad := fleetSpec()
	bad.Fleet = &sim.FleetOptions{Groups: 0}
	if _, err := Run(context.Background(), bad); err == nil {
		t.Error("empty fleet accepted")
	}

	defaults := fleetSpec()
	defaults.BatchSize = 100
	defaults.MaxIterations = 1000
	d := defaults.withDefaults()
	if d.BatchSize != 104 || d.MaxIterations != 1000 {
		t.Errorf("defaults rounded (batch, budget) to (%d, %d), want (104, 1000)", d.BatchSize, d.MaxIterations)
	}
}

// The loader must reject tampered fleet tallies — wrong fleet shape,
// broken conservation, negative hours, or a fleet campaign whose
// checkpoint lost the tally entirely.
func TestFleetCheckpointValidation(t *testing.T) {
	path := filepath.Join(t.TempDir(), "c.json")
	spec := fleetSpec()
	spec.MaxIterations = 480
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
	if restored.Fleet == nil || *restored.Fleet != *res.Fleet {
		t.Errorf("restored fleet tally %+v differs from the live campaign's %+v", restored.Fleet, res.Fleet)
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
		fleet := *doc.Fleet
		c.Fleet = &fleet
		mutate(&c)
		raw, err := json.Marshal(c)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := decodeCheckpoint(raw, spec.withDefaults()); err == nil {
			t.Errorf("%s: corrupted checkpoint accepted", name)
		}
	}
	corrupt("missing tally", func(c *checkpointFile) { c.Fleet = nil })
	corrupt("wrong fleet size", func(c *checkpointFile) { c.Fleet.GroupsPer = 4; c.Fleet.Chronologies *= 2 })
	corrupt("short coverage", func(c *checkpointFile) { c.Fleet.Chronologies-- })
	corrupt("broken conservation", func(c *checkpointFile) { c.Fleet.Failures++ })
	corrupt("negative count", func(c *checkpointFile) { c.Fleet.Waited = -1 })
	corrupt("negative hours", func(c *checkpointFile) { c.Fleet.TotalWaitHours = -1 })
}

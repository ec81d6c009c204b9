package service

import (
	"context"
	"fmt"
	"reflect"
	"testing"
	"time"

	"raidrel/internal/campaign"
	"raidrel/internal/core"
	"raidrel/internal/sim"
)

// oracleSpec is how every layer lowered a job before the job carried its
// campaign spec: core.New on the params, then the shard's slice.
func oracleSpec(t *testing.T, js JobSpec) campaign.Spec {
	t.Helper()
	m, err := core.New(js.Params)
	if err != nil {
		t.Fatal(err)
	}
	spec := campaign.Spec{
		Config:        m.SimConfig(),
		Seed:          js.Seed,
		BatchSize:     js.BatchSize,
		TargetRelErr:  js.TargetRelErr,
		Confidence:    js.Confidence,
		MaxIterations: js.Iterations,
		MaxDuration:   time.Duration(js.MaxDurationS * float64(time.Second)),
		Fleet:         js.Params.Fleet,
	}
	if js.Shard != nil {
		start, end := js.Shard.Range(js.Iterations)
		spec.Offset = start
		spec.MaxIterations = end - start
	}
	return spec
}

// jobIdentity is every name a job is known by: its config fingerprint,
// cache key, checkpoint file, and the checkpoint file of its campaign
// from when a nil engine meant the event engine.
type jobIdentity struct {
	fp, key, ckpt, legacyCkpt string
}

// oracleIdentity derives js's identity the way Submit, runJob and
// MergeJobs each did on their own: the fingerprint of the lowered spec,
// and the legacy name from the same spec with an explicit event engine.
func oracleIdentity(t *testing.T, js JobSpec) jobIdentity {
	t.Helper()
	spec := oracleSpec(t, js)
	fp := spec.Fingerprint()
	legacy := spec
	legacy.Engine = sim.EventEngine{}
	return jobIdentity{
		fp:         fp,
		key:        js.cacheKey(fp),
		ckpt:       checkpointName(js.cacheKey(fp)),
		legacyCkpt: checkpointName(js.cacheKey(legacy.Fingerprint())),
	}
}

// carriedIdentity reads j's identity off its carried spec. A job whose
// legacy name is its current one probes a single file.
func carriedIdentity(t *testing.T, j *Job) jobIdentity {
	t.Helper()
	names := j.checkpointNames()
	id := jobIdentity{fp: j.Fingerprint, key: j.CacheKey, ckpt: names[0], legacyCkpt: names[len(names)-1]}
	if fp := j.lowered.Fingerprint(); fp != j.Fingerprint {
		t.Errorf("job %s: fingerprint %s, its carried spec's %s", j.ID, j.Fingerprint, fp)
	}
	return id
}

// TestCarriedIdentityMatchesOracle holds the spec a job carries from
// Submit, and the unsharded spec MergeJobs builds from shard jobs, to the
// per-layer lowering they replace: equal campaign specs and byte-identical
// fingerprints, cache keys, checkpoint names and legacy checkpoint names.
func TestCarriedIdentityMatchesOracle(t *testing.T) {
	biased := fastParams()
	biased.ExponentialOp, biased.ExponentialRestore = true, true
	biased.Bias = sim.Bias{Op: 8}
	cond := core.BaseCase()
	cond.VR = sim.VR{Antithetic: true, Stratify: true, CondVariate: true}
	topo := fastParams()
	topo.Topology = &core.TopologySpec{Components: []core.ComponentSpec{{Name: "shelf", Drives: []int{0, 1, 2, 3},
		TTOp: core.WeibullSpec{Scale: 150000, Shape: 1}, TTR: core.WeibullSpec{Scale: 300, Shape: 1}}}}

	var legacyRenamed, legacyKept int
	check := func(name string, j *Job) {
		t.Helper()
		want := oracleIdentity(t, j.Spec)
		if got := carriedIdentity(t, j); got != want {
			t.Errorf("%s: carried identity %+v, oracle %+v", name, got, want)
		}
		if spec := oracleSpec(t, j.Spec); !reflect.DeepEqual(j.lowered, spec) {
			t.Errorf("%s: carried spec %+v, oracle %+v", name, j.lowered, spec)
		}
		if want.legacyCkpt != want.ckpt {
			legacyRenamed++
		} else {
			legacyKept++
		}
	}
	for _, k := range []struct {
		name string
		spec JobSpec
	}{
		{"plain", JobSpec{Params: fastParams(), Seed: 1, Iterations: 1000}},
		{"adaptive", JobSpec{Params: fastParams(), Seed: 1, TargetRelErr: 0.05, BatchSize: 500, Confidence: 0.9, MaxDurationS: 2}},
		{"biased", JobSpec{Params: biased, Seed: 5, Iterations: 4096}},
		{"cond-vr", JobSpec{Params: cond, Seed: 7, Iterations: 8192, BatchSize: 2048}},
		{"fleet", JobSpec{Params: fleetParams(), Seed: 7, Iterations: 1600}},
		{"topology", JobSpec{Params: topo, Seed: 4242, Iterations: 2000}},
	} {
		check(k.name, jobOf(t, k.spec))
	}

	s := New(Options{MaxConcurrent: 3, Workers: 1})
	defer s.Drain(context.Background())
	base := JobSpec{Params: fastParams(), Seed: 71, Iterations: 3001}
	var ids []string
	for i := 0; i < 3; i++ {
		js := base
		js.Shard = &Shard{Index: i, Count: 3}
		j, _, err := s.Submit(js)
		if err != nil {
			t.Fatal(err)
		}
		check(fmt.Sprintf("shard %d/3", i), j)
		waitDone(t, j)
		ids = append(ids, j.ID)
	}
	merged, err := s.MergeJobs(ids)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(merged.Spec, base) {
		t.Fatalf("merged job spec %+v, want the unsharded %+v", merged.Spec, base)
	}
	check("merged", merged)
	if legacyRenamed == 0 || legacyKept == 0 {
		t.Fatalf("%d shapes have a legacy checkpoint name and %d do not; both branches must be covered", legacyRenamed, legacyKept)
	}
}

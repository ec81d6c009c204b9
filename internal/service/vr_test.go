package service

import (
	"context"
	"reflect"
	"strings"
	"testing"

	"raidrel/internal/campaign"
	"raidrel/internal/core"
	"raidrel/internal/sim"
)

// vrParams is fastParams with the full variance-reduction stack on a
// 64-iteration block.
func vrParams() core.Params {
	p := fastParams()
	p.VR = sim.VR{Antithetic: true, Stratify: true, ControlVariate: true, BlockSize: 64}
	return p
}

// runVRShards mirrors runShards through the block engine, which VR
// requires.
func runVRShards(t *testing.T, spec JobSpec, k int) []ShardResult {
	t.Helper()
	m, err := core.New(spec.Params)
	if err != nil {
		t.Fatal(err)
	}
	fp := jobOf(t, spec.unsharded()).Fingerprint
	shards := make([]ShardResult, 0, k)
	for i := 0; i < k; i++ {
		sh := Shard{Index: i, Count: k}
		start, end := sh.Range(spec.Iterations)
		run, err := sim.RunSparse(sim.RunSpec{
			Config:     m.SimConfig(),
			Iterations: end - start,
			Seed:       spec.Seed,
			Offset:     start,
			Engine:     sim.BlockEngine{},
		})
		if err != nil {
			t.Fatal(err)
		}
		shards = append(shards, ShardResult{
			Index: i, Count: k,
			Offset: start, Iterations: end - start,
			Fingerprint: fp, Run: run,
		})
	}
	return shards
}

// TestMergeShardsVRBitExact: block-aligned VR shards merge to the exact
// unsharded run — events, block tallies, and the summarized CI all equal.
func TestMergeShardsVRBitExact(t *testing.T) {
	spec := JobSpec{Params: vrParams(), Seed: 31, Iterations: 768} // 3 shards × 4 blocks
	m, err := core.New(spec.Params)
	if err != nil {
		t.Fatal(err)
	}
	want, err := sim.RunSparse(sim.RunSpec{
		Config: m.SimConfig(), Iterations: spec.Iterations, Seed: spec.Seed, Engine: sim.BlockEngine{},
	})
	if err != nil {
		t.Fatal(err)
	}

	merged, err := MergeShards(runVRShards(t, spec, 3))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(merged.Events, want.Events) {
		t.Error("merged events differ from the unsharded run")
	}
	if !reflect.DeepEqual(merged.VR, want.VR) {
		t.Errorf("merged VR tallies differ:\nmerged    %+v\nunsharded %+v", merged.VR, want.VR)
	}

	cspec, err := spec.lower()
	if err != nil {
		t.Fatal(err)
	}
	got := campaign.Summarize(cspec, merged)
	ref := campaign.Summarize(cspec, want)
	if got.CI != ref.CI || got.VRFactor != ref.VRFactor || got.VRPairs != ref.VRPairs {
		t.Errorf("summaries differ: merged %+v vs unsharded %+v", got, ref)
	}
	if got.VRPairs != spec.Iterations/2 {
		t.Errorf("VRPairs = %d, want %d", got.VRPairs, spec.Iterations/2)
	}
}

// TestMergeShardsVRValidation: the merge must reject shard manifests whose
// VR block layouts cannot concatenate into a single run's tallies.
func TestMergeShardsVRValidation(t *testing.T) {
	spec := JobSpec{Params: vrParams(), Seed: 32, Iterations: 768}
	good := func() []ShardResult { return runVRShards(t, spec, 3) }

	cases := []struct {
		name    string
		mutate  func([]ShardResult) []ShardResult
		errPart string
	}{
		{"mixed vr", func(s []ShardResult) []ShardResult { s[1].Run.VR = nil; return s }, "mixes variance-reduced"},
		{"block size", func(s []ShardResult) []ShardResult { s[1].Run.VR.BlockSize = 32; return s }, "VR block size 32"},
		{"short blocks", func(s []ShardResult) []ShardResult {
			vr := s[1].Run.VR
			vr.Blocks = vr.Blocks[:len(vr.Blocks)-1]
			return s
		}, "cover"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := MergeShards(tc.mutate(good()))
			if err == nil {
				t.Fatalf("%s accepted", tc.name)
			}
			if !strings.Contains(err.Error(), tc.errPart) {
				t.Errorf("error %q does not mention %q", err, tc.errPart)
			}
		})
	}

	// Shard boundaries that fall inside a VR block (96 is not a multiple
	// of the 64-iteration block) must be rejected.
	misaligned := JobSpec{Params: vrParams(), Seed: 33, Iterations: 288}
	if _, err := MergeShards(runVRShards(t, misaligned, 3)); err == nil {
		t.Error("block-misaligned shard offsets accepted")
	}
}

// TestServerVRJob: a variance-reduced job runs end to end through the
// scheduler; its result document and the server metrics expose the VR
// diagnostics.
func TestServerVRJob(t *testing.T) {
	s := New(Options{MaxConcurrent: 1})
	defer s.Drain(context.Background())
	spec := JobSpec{Params: vrParams(), Seed: 34, Iterations: 2048, BatchSize: 512}
	j, reused, err := s.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	if reused {
		t.Fatal("fresh VR spec reported as reused")
	}
	<-j.Done()
	res, err := j.Result()
	if err != nil {
		t.Fatal(err)
	}
	if res.Iterations != 2048 {
		t.Fatalf("ran %d iterations, want 2048", res.Iterations)
	}
	if res.VRPairs != 1024 || res.VRFactor <= 0 {
		t.Errorf("VR diagnostics missing: pairs=%d factor=%v", res.VRPairs, res.VRFactor)
	}

	doc := newResultHead(j, res)
	if doc.VRPairs != res.VRPairs || doc.VRFactor != res.VRFactor || doc.VRCoeff != res.VRCoeff {
		t.Errorf("result document dropped VR diagnostics: %+v", doc)
	}
	if mid := (res.CI.Lo + res.CI.Hi) / 2; doc.P != mid {
		t.Errorf("VR result p = %v, want CI midpoint %v", doc.P, mid)
	}

	if m := s.Metrics(); m.VRIterations != 2048 || m.IterationsSimulated != 2048 {
		t.Errorf("metrics count %d VR of %d simulated, want 2048 of 2048", m.VRIterations, m.IterationsSimulated)
	}
}

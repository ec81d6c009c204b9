package service

import (
	"reflect"
	"strings"
	"testing"

	"raidrel/internal/core"
	"raidrel/internal/sim"
)

// fastParams puts the per-group DDF probability near 3% so small campaigns
// still produce events: exponential TTOp with a 40,000-hour MTBF against
// a 10-hour MTTR over the paper's 10-year mission.
func fastParams() core.Params {
	return core.Params{
		GroupSize:    8,
		Redundancy:   1,
		MissionHours: 87600,
		TTOp:         core.WeibullSpec{Scale: 40000, Shape: 1},
		TTR:          core.WeibullSpec{Scale: 10, Shape: 1},
	}
}

// runShards simulates the k shards of an n-iteration campaign directly
// through the sim layer, returning manifest entries.
func runShards(t *testing.T, spec JobSpec, k int) []ShardResult {
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

// TestMergeShardsBitExact is the acceptance property: k shards over
// disjoint offset ranges merge to the byte-identical result of one
// unsharded run, whatever order the manifest arrives in.
func TestMergeShardsBitExact(t *testing.T) {
	spec := JobSpec{Params: fastParams(), Seed: 21, Iterations: 1000}
	m, err := core.New(spec.Params)
	if err != nil {
		t.Fatal(err)
	}
	want, err := sim.RunSparse(sim.RunSpec{Config: m.SimConfig(), Iterations: spec.Iterations, Seed: spec.Seed})
	if err != nil {
		t.Fatal(err)
	}

	shards := runShards(t, spec, 3)
	// Shuffle the manifest: merge must order by index itself.
	shards[0], shards[2] = shards[2], shards[0]
	merged, err := MergeShards(shards)
	if err != nil {
		t.Fatal(err)
	}
	if merged.Groups != want.Groups || !reflect.DeepEqual(merged.Events, want.Events) {
		t.Fatal("merged shards differ from the unsharded run")
	}
	if merged.TotalDDFs != want.TotalDDFs || merged.OpOpDDFs != want.OpOpDDFs || merged.LdOpDDFs != want.LdOpDDFs {
		t.Fatal("merged tallies differ from the unsharded run")
	}
}

func TestMergeShardsValidation(t *testing.T) {
	spec := JobSpec{Params: fastParams(), Seed: 22, Iterations: 900}
	good := func() []ShardResult { return runShards(t, spec, 3) }

	cases := []struct {
		name    string
		mutate  func([]ShardResult) []ShardResult
		errPart string
	}{
		{"empty", func(s []ShardResult) []ShardResult { return nil }, "no shards"},
		{"missing shard", func(s []ShardResult) []ShardResult { return s[:2] }, "2 shards of a 3-shard"},
		{"duplicate index", func(s []ShardResult) []ShardResult { s[1] = s[0]; return s }, "missing or duplicated"},
		{"foreign fingerprint", func(s []ShardResult) []ShardResult { s[1].Fingerprint = "deadbeef"; return s }, "different campaign"},
		{"mixed count", func(s []ShardResult) []ShardResult { s[2].Count = 4; return s }, "4-way sharding"},
		{"offset gap", func(s []ShardResult) []ShardResult { s[1].Offset++; return s }, "gap or overlap"},
		{"size mismatch", func(s []ShardResult) []ShardResult { s[1].Iterations--; return s }, "manifest says"},
		{"nil run", func(s []ShardResult) []ShardResult { s[0].Run = nil; return s }, "holds 0 iterations"},
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
}

// FuzzMergeShards builds shard manifests (index, count, offset,
// iterations, fingerprint) over small SparseResults from the fuzz bytes,
// corrupting one manifest field of some shards. MergeShards may reject a
// manifest, but one it accepts must merge to exactly the sum of the shard
// iterations, with every event inside the merged range and sorted by
// (Group, Time).
func FuzzMergeShards(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{2, 3, 1, 5, 0, 2, 7, 9, 0, 4, 0, 1, 1, 0, 0, 0})
	f.Add([]byte{3, 2, 0, 1, 4, 1, 2, 2, 0, 1, 3, 3, 0, 0, 0, 5, 2})
	f.Add([]byte{1, 7, 2, 1, 1, 0, 0, 0, 0, 0, 2, 0, 3})
	f.Fuzz(func(t *testing.T, data []byte) {
		next := func() int {
			if len(data) == 0 {
				return 0
			}
			b := data[0]
			data = data[1:]
			return int(b)
		}
		k := 1 + next()%4
		shards := make([]ShardResult, k)
		offset := 0
		for i := range shards {
			iters := next() % 8
			run := &sim.SparseResult{}
			for g := 0; g < iters; g++ {
				ddfs := make([]sim.DDF, next()%3)
				tm := 0.0
				for d := range ddfs {
					tm += float64(next())
					ddfs[d] = sim.DDF{Time: tm, Cause: sim.CauseOpOp}
				}
				run.Observe(g, ddfs, 0)
			}
			sh := ShardResult{Index: i, Count: k, Offset: offset, Iterations: iters, Fingerprint: "fp", Run: run}
			switch next() % 8 {
			case 1:
				sh.Index = next() % (k + 1)
			case 2:
				sh.Count = next() % 5
			case 3:
				sh.Offset += next()%3 - 1
			case 4:
				sh.Iterations += next()%3 - 1
			case 5:
				sh.Fingerprint = "other"
			case 6:
				sh.Run = nil
			}
			offset += iters
			shards[i] = sh
		}
		// The manifest may arrive in any order.
		r := next() % k
		shards = append(shards[r:], shards[:r]...)

		merged, err := MergeShards(shards)
		if err != nil {
			return
		}
		want := 0
		for _, sh := range shards {
			want += sh.Iterations
		}
		if merged.Groups != want {
			t.Fatalf("merged %d groups, manifest declares %d iterations", merged.Groups, want)
		}
		for i, e := range merged.Events {
			if e.Group < 0 || e.Group >= merged.Groups {
				t.Fatalf("event %d in group %d, outside [0, %d)", i, e.Group, merged.Groups)
			}
			if i > 0 {
				p := merged.Events[i-1]
				if e.Group < p.Group || e.Group == p.Group && e.Time < p.Time {
					t.Fatalf("events %d and %d out of (Group, Time) order: %+v then %+v", i-1, i, p, e)
				}
			}
		}
	})
}

func TestJobSpecValidation(t *testing.T) {
	base := JobSpec{Params: fastParams(), Seed: 1, Iterations: 100}
	if err := base.Validate(); err != nil {
		t.Fatalf("valid spec rejected: %v", err)
	}

	noStop := base
	noStop.Iterations = 0
	if noStop.Validate() == nil {
		t.Error("spec without a stopping rule accepted")
	}

	badParams := base
	badParams.Params.GroupSize = 1
	if badParams.Validate() == nil {
		t.Error("invalid model params accepted")
	}

	badShard := base
	badShard.Shard = &Shard{Index: 3, Count: 3}
	if badShard.Validate() == nil {
		t.Error("out-of-range shard index accepted")
	}

	adaptiveShard := base
	adaptiveShard.Shard = &Shard{Index: 0, Count: 2}
	adaptiveShard.TargetRelErr = 0.1
	if adaptiveShard.Validate() == nil {
		t.Error("adaptive sharded job accepted (shard sizes would be data-dependent)")
	}

	emptyShard := base
	emptyShard.Iterations = 2
	emptyShard.Shard = &Shard{Index: 1, Count: 5}
	if emptyShard.Validate() == nil {
		t.Error("empty shard slice accepted")
	}
}

// TestCacheKeyIdentity pins what does and does not participate in the
// result-cache identity.
func TestCacheKeyIdentity(t *testing.T) {
	base := JobSpec{Params: fastParams(), Seed: 1, Iterations: 1000}
	key := func(js JobSpec) string {
		t.Helper()
		return jobOf(t, js).CacheKey
	}

	same := base
	same.Priority = 9 // scheduling hint, not result identity
	if key(same) != key(base) {
		t.Error("priority changed the cache key")
	}
	batched := base
	batched.BatchSize = 77 // fixed-size results are batch-invariant
	if key(batched) != key(base) {
		t.Error("batch size changed a fixed-size job's cache key")
	}

	adaptive := base
	adaptive.TargetRelErr = 0.1
	adaptiveBatched := adaptive
	adaptiveBatched.BatchSize = 77 // adaptive stops at batch boundaries
	if key(adaptiveBatched) == key(adaptive) {
		t.Error("batch size did not change an adaptive job's cache key")
	}

	for name, js := range map[string]JobSpec{
		"seed":       {Params: fastParams(), Seed: 2, Iterations: 1000},
		"iterations": {Params: fastParams(), Seed: 1, Iterations: 2000},
		"shard":      {Params: fastParams(), Seed: 1, Iterations: 1000, Shard: &Shard{Index: 0, Count: 2}},
	} {
		if key(js) == key(base) {
			t.Errorf("%s change did not change the cache key", name)
		}
	}
}

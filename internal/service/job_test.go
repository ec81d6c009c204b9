package service

import (
	"bytes"
	"encoding/json"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"raidrel/internal/campaign"
	"raidrel/internal/core"
	"raidrel/internal/sim"
)

// TestShardRangeOverflow: shard boundaries of campaigns whose Index·N
// exceeds the int range must still be exact, and a spec that validates
// must run exactly its slice. The products used to wrap, so these specs
// validated with ranges far from their true slices (the second one
// negative).
func TestShardRangeOverflow(t *testing.T) {
	for _, tc := range []struct {
		n, index, count int
		start, end      int
	}{
		{4239093734707132571, 18, 62, 1230704632656909456, 1299077112248959981},
		{4e9, 3e9, 4e9, 3e9, 3e9 + 1},
	} {
		sh := Shard{Index: tc.index, Count: tc.count}
		if start, end := sh.Range(tc.n); start != tc.start || end != tc.end {
			t.Errorf("shard %d/%d of %d: range [%d, %d), want [%d, %d)", tc.index, tc.count, tc.n, start, end, tc.start, tc.end)
		}
		js := JobSpec{Params: fastParams(), Seed: 1, Iterations: tc.n, Shard: &sh}
		if err := js.Validate(); err != nil {
			continue // rejecting such a spec is fine; running a wrong slice is not
		}
		spec, err := js.lower()
		if err != nil {
			t.Fatal(err)
		}
		if spec.Offset != tc.start || spec.MaxIterations != tc.end-tc.start {
			t.Errorf("shard %d/%d of %d: campaign offset %d, %d iterations; want %d, %d",
				tc.index, tc.count, tc.n, spec.Offset, spec.MaxIterations, tc.start, tc.end-tc.start)
		}
	}
}

// TestJobTransitionsAtomic races start against stop on fresh queued jobs,
// as a scheduler slot dequeuing a job races a Cancel. Exactly one side
// wins each race: start reports true, and stop finds the job running and
// asks its campaign to stop, or stop finds it queued and cancels it, and
// start reports false. A finish after the job is terminal is a no-op: it
// neither changes the state nor closes done a second time.
func TestJobTransitionsAtomic(t *testing.T) {
	for i := 0; i < 2000; i++ {
		j := newJob(JobSpec{}, campaign.Spec{}, "", "", time.Time{})
		var (
			started, asked bool
			found          JobState
			wg             sync.WaitGroup
		)
		wg.Add(2)
		go func() {
			defer wg.Done()
			started = j.start(func() { asked = true }, time.Time{})
		}()
		go func() {
			defer wg.Done()
			found = j.stop(time.Time{})
		}()
		wg.Wait()
		switch {
		case started && (found != JobRunning || !asked):
			t.Fatalf("race %d: start won but stop found %s (cancel asked: %v)", i, found, asked)
		case !started && (found != JobQueued || asked):
			t.Fatalf("race %d: stop won but found %s (cancel asked: %v)", i, found, asked)
		}
		want := JobCanceled
		if started {
			// The slot that started the job does its terminal bookkeeping.
			j.finish(JobCanceled, nil, nil, time.Time{})
		}
		j.finish(JobDone, nil, nil, time.Time{})
		if st := j.State(); st != want {
			t.Fatalf("race %d: state %s after a second finish, want %s", i, st, want)
		}
		select {
		case <-j.Done():
		default:
			t.Fatalf("race %d: terminal job's done channel is open", i)
		}
	}
}

// jobOf lowers js as Submit does and returns the untracked job, carrying
// the fingerprint and cache key Submit gives it.
func jobOf(t testing.TB, js JobSpec) *Job {
	t.Helper()
	spec, err := js.lower()
	if err != nil {
		t.Fatal(err)
	}
	fp := spec.Fingerprint()
	return newJob(js, spec, fp, js.cacheKey(fp), time.Time{})
}

// FuzzJobSpec feeds arbitrary bytes through the daemon's request decoder
// (decodeBody: unknown fields are an error) and JobSpec.Validate. Whatever
// validates must be runnable: a sharded spec's slice lies inside the
// campaign, 0 <= start < end <= Iterations, the spec lowers without
// error, and the campaign's first batch passes the runner's own
// sim.RunSpec.Validate, so submit-time and run-time checks cannot drift.
func FuzzJobSpec(f *testing.F) {
	add := func(js JobSpec) {
		data, err := json.Marshal(js)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data)
	}
	add(JobSpec{Params: fastParams(), Seed: 1, Iterations: 1000})
	add(JobSpec{Params: fastParams(), Seed: 1, Iterations: 1000, Shard: &Shard{Index: 1, Count: 3}})
	add(JobSpec{Params: fastParams(), Seed: 1, Iterations: 4239093734707132571, Shard: &Shard{Index: 18, Count: 62}})
	add(JobSpec{Params: fastParams(), Seed: 1, Iterations: 4e9, Shard: &Shard{Index: 3e9, Count: 4e9}})
	add(JobSpec{Params: fastParams(), Seed: 1, TargetRelErr: 0.05, BatchSize: 500})
	add(JobSpec{Params: fastParams(), Seed: 1, Iterations: 2, Shard: &Shard{Index: 1, Count: 5}})
	// Run shapes with their own rules: a contended fleet with a shared
	// spare pool, the antithetic+stratify+cond VR stack, an odd VR block,
	// and a coupled component topology.
	fleet := fastParams()
	fleet.Fleet = &sim.FleetOptions{Groups: 6, MaxConcurrentRebuilds: 1,
		SharedSpares: &sim.SparePolicy{Initial: 1, ReplenishHours: 200}}
	add(JobSpec{Params: fleet, Seed: 1, Iterations: 100, BatchSize: 50})
	add(JobSpec{Params: fleet, Seed: 1, Iterations: 600, Shard: &Shard{Index: 1, Count: 4}})
	vrStack := fastParams()
	vrStack.LatentDefects = true
	vrStack.TTLd = core.WeibullSpec{Scale: 5000, Shape: 1}
	vrStack.VR = sim.VR{Antithetic: true, Stratify: true, CondVariate: true, BlockSize: 64}
	add(JobSpec{Params: vrStack, Seed: 1, Iterations: 1000, BatchSize: 100})
	oddBlock := fastParams()
	oddBlock.VR = sim.VR{Stratify: true, BlockSize: 63}
	add(JobSpec{Params: oddBlock, Seed: 1, Iterations: 189, Shard: &Shard{Index: 2, Count: 3}})
	topo := fastParams()
	topo.Topology = &core.TopologySpec{Components: []core.ComponentSpec{{Name: "shelf", Drives: []int{0, 1, 2, 3},
		TTOp: core.WeibullSpec{Scale: 150000, Shape: 1}, TTR: core.WeibullSpec{Scale: 300, Shape: 1}}}}
	add(JobSpec{Params: topo, Seed: 1, TargetRelErr: 0.1, BatchSize: 300})
	f.Add([]byte(`{"iterations":10,"shard":{"index":-1,"count":2}}`))
	f.Add([]byte(`{"iterations":10,"bogus":1}`))
	f.Add([]byte(`{not json`))

	f.Fuzz(func(t *testing.T, data []byte) {
		var js JobSpec
		w := httptest.NewRecorder()
		if !decodeBody(w, httptest.NewRequest("POST", "/v1/jobs", bytes.NewReader(data)), &js, "job spec") {
			return
		}
		if js.Validate() != nil {
			return
		}
		if s := js.Shard; s != nil {
			if start, end := s.Range(js.Iterations); !(0 <= start && start < end && end <= js.Iterations) {
				t.Fatalf("valid shard %d/%d of %d has range [%d, %d)", s.Index, s.Count, js.Iterations, start, end)
			}
		}
		spec, err := js.lower()
		if err != nil {
			t.Fatalf("valid spec has no campaign: %v", err)
		}
		if err := spec.BatchSpec(0).Validate(); err != nil {
			t.Fatalf("valid spec's first batch fails the runner's checks: %v", err)
		}
	})
}

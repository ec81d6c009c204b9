package service

import (
	"context"
	"os"
	"path/filepath"
	"reflect"
	"sync/atomic"
	"testing"
	"time"

	"raidrel/internal/campaign"
	"raidrel/internal/sim"
)

func waitDone(t *testing.T, j *Job) {
	t.Helper()
	select {
	case <-j.Done():
	case <-time.After(30 * time.Second):
		t.Fatalf("job %s did not finish (state %s)", j.ID, j.State())
	}
}

func waitUntil(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// longSpec is a job big enough to still be running when the test acts on
// it, small enough to finish within the test timeout if a cancel is missed.
func longSpec(seed uint64) JobSpec {
	return JobSpec{Params: fastParams(), Seed: seed, Iterations: 2_000_000, BatchSize: 500}
}

func TestSubmitCompleteAndCacheHit(t *testing.T) {
	s := New(Options{MaxConcurrent: 2, Workers: 2})
	defer s.Drain(context.Background())

	spec := JobSpec{Params: fastParams(), Seed: 7, Iterations: 2000}
	j, reused, err := s.Submit(spec)
	if err != nil || reused {
		t.Fatalf("Submit: reused=%v err=%v", reused, err)
	}
	waitDone(t, j)
	if st := j.State(); st != JobDone {
		t.Fatalf("state = %s, want %s", st, JobDone)
	}
	res, err := j.Result()
	if err != nil || res == nil {
		t.Fatalf("Result: %v, %v", res, err)
	}
	if res.Iterations != 2000 {
		t.Fatalf("Iterations = %d, want 2000", res.Iterations)
	}
	if got := s.Metrics().IterationsSimulated; got != 2000 {
		t.Fatalf("IterationsSimulated = %d, want 2000", got)
	}

	// The acceptance check: an identical resubmission is served from the
	// cache — same job, zero additional simulation.
	j2, reused, err := s.Submit(spec)
	if err != nil || !reused || j2 != j {
		t.Fatalf("resubmit: job=%v reused=%v err=%v", j2, reused, err)
	}
	m := s.Metrics()
	if m.IterationsSimulated != 2000 {
		t.Fatalf("cache hit re-simulated: IterationsSimulated = %d", m.IterationsSimulated)
	}
	if m.CacheHits != 1 || m.Submitted != 1 {
		t.Fatalf("CacheHits=%d Submitted=%d, want 1, 1", m.CacheHits, m.Submitted)
	}

	// A different seed is a different campaign, not a hit.
	j3, reused, err := s.Submit(JobSpec{Params: fastParams(), Seed: 8, Iterations: 2000})
	if err != nil || reused || j3 == j {
		t.Fatalf("different seed reused the cached job")
	}
	waitDone(t, j3)
}

func TestSubmitInvalidSpec(t *testing.T) {
	s := New(Options{MaxConcurrent: 1})
	defer s.Drain(context.Background())
	if _, _, err := s.Submit(JobSpec{Params: fastParams()}); err == nil {
		t.Fatal("spec without a stopping rule accepted")
	}
}

func TestSingleFlightCoalesce(t *testing.T) {
	s := New(Options{MaxConcurrent: 1, Workers: 2})
	defer s.Drain(context.Background())

	spec := longSpec(11)
	j1, _, err := s.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	j2, reused, err := s.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	if !reused || j2 != j1 {
		t.Fatalf("identical in-flight spec was not coalesced (reused=%v)", reused)
	}
	if m := s.Metrics(); m.Coalesced != 1 || m.Submitted != 1 {
		t.Fatalf("Coalesced=%d Submitted=%d, want 1, 1", m.Coalesced, m.Submitted)
	}
	if err := s.Cancel(j1.ID); err != nil {
		t.Fatal(err)
	}
	waitDone(t, j1)
}

func TestConcurrentCampaigns(t *testing.T) {
	s := New(Options{MaxConcurrent: 2, Workers: 1})
	defer s.Drain(context.Background())

	a, _, err := s.Submit(longSpec(31))
	if err != nil {
		t.Fatal(err)
	}
	b, _, err := s.Submit(longSpec(32))
	if err != nil {
		t.Fatal(err)
	}
	waitUntil(t, "two campaigns running", func() bool { return s.Metrics().Running == 2 })

	for _, j := range []*Job{a, b} {
		if err := s.Cancel(j.ID); err != nil {
			t.Fatal(err)
		}
	}
	waitDone(t, a)
	waitDone(t, b)
}

func TestPriorityOrdering(t *testing.T) {
	s := New(Options{MaxConcurrent: 1, Workers: 2})
	defer s.Drain(context.Background())

	blocker, _, err := s.Submit(longSpec(41))
	if err != nil {
		t.Fatal(err)
	}
	waitUntil(t, "blocker running", func() bool { return blocker.State() == JobRunning })

	low, _, err := s.Submit(JobSpec{Params: fastParams(), Seed: 42, Iterations: 200})
	if err != nil {
		t.Fatal(err)
	}
	high, _, err := s.Submit(JobSpec{Params: fastParams(), Seed: 43, Iterations: 200, Priority: 5})
	if err != nil {
		t.Fatal(err)
	}

	if err := s.Cancel(blocker.ID); err != nil {
		t.Fatal(err)
	}
	waitDone(t, low)
	waitDone(t, high)

	started := func(j *Job) time.Time {
		j.mu.Lock()
		defer j.mu.Unlock()
		return j.started
	}
	if !started(high).Before(started(low)) {
		t.Fatalf("priority 5 job started at %v, after priority 0 job at %v",
			started(high), started(low))
	}
}

func TestCancelLifecycle(t *testing.T) {
	s := New(Options{MaxConcurrent: 1, Workers: 2})
	defer s.Drain(context.Background())

	running, _, err := s.Submit(longSpec(51))
	if err != nil {
		t.Fatal(err)
	}
	waitUntil(t, "job running", func() bool { return running.State() == JobRunning })

	queued, _, err := s.Submit(longSpec(52))
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Cancel(queued.ID); err != nil {
		t.Fatal(err)
	}
	if st := queued.State(); st != JobCanceled {
		t.Fatalf("queued job state = %s after cancel, want %s", st, JobCanceled)
	}

	if err := s.Cancel(running.ID); err != nil {
		t.Fatal(err)
	}
	waitDone(t, running)
	if st := running.State(); st != JobCanceled {
		t.Fatalf("running job state = %s after cancel, want %s", st, JobCanceled)
	}
	// A canceled running job keeps its partial result for inspection.
	if res, _ := running.Result(); res == nil || res.Reason != campaign.StopCancelled {
		t.Fatalf("canceled job result = %+v, want a partial StopCancelled result", res)
	}
	if err := s.Cancel(running.ID); err == nil {
		t.Fatal("cancel of a terminal job succeeded")
	}
	if _, ok := s.Job("j999999"); ok {
		t.Fatal("lookup of unknown job succeeded")
	}
	if err := s.Cancel("j999999"); err == nil {
		t.Fatal("cancel of unknown job succeeded")
	}
}

// TestCancelQueuedRacesDequeue holds Cancel of a queued job in the clock
// hook until a scheduler slot has dequeued the job and started it. The
// cancel must still stop the campaign: the job ends canceled, nothing
// completes, and each submitted job reaches exactly one terminal count,
// so a Cancel may not judge the job queued and act on that judgement
// under a later lock hold.
func TestCancelQueuedRacesDequeue(t *testing.T) {
	var armed atomic.Bool
	entered, release := make(chan struct{}), make(chan struct{})
	s := New(Options{MaxConcurrent: 1, Workers: 1, now: func() time.Time {
		if armed.CompareAndSwap(true, false) {
			close(entered)
			<-release
		}
		return time.Now()
	}})
	defer s.Drain(context.Background())

	blocker, _, err := s.Submit(longSpec(91))
	if err != nil {
		t.Fatal(err)
	}
	waitUntil(t, "blocker running", func() bool { return blocker.State() == JobRunning })
	spec := JobSpec{Params: fastParams(), Seed: 92, Iterations: 200_000, BatchSize: 500}
	victim, _, err := s.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}

	// While the blocker runs, only Cancel reads the clock.
	armed.Store(true)
	errc := make(chan error, 1)
	go func() { errc <- s.Cancel(victim.ID) }()
	select {
	case <-entered:
	case <-time.After(30 * time.Second):
		t.Fatal("Cancel never read the clock")
	}
	if err := s.Cancel(blocker.ID); err != nil {
		t.Fatal(err)
	}
	waitUntil(t, "victim dequeued", func() bool { return victim.State() == JobRunning })
	close(release)
	if err := <-errc; err != nil {
		t.Fatalf("Cancel: %v", err)
	}

	waitDone(t, victim)
	waitUntil(t, "scheduler idle", func() bool { return s.Metrics().Running == 0 })
	dctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := s.Drain(dctx); err != nil {
		t.Fatalf("Drain: %v", err)
	}
	if st := victim.State(); st != JobCanceled {
		t.Fatalf("victim state = %s, want %s", st, JobCanceled)
	}
	if res, _ := victim.Result(); res != nil && res.Iterations >= spec.Iterations {
		t.Fatalf("canceled victim's campaign ran all %d iterations", res.Iterations)
	}
	m := s.Metrics()
	if m.Completed != 0 || m.Canceled != 2 || m.Completed+m.Canceled+m.Failed != m.Submitted {
		t.Fatalf("completed=%d canceled=%d failed=%d of submitted=%d, want 0, 2, 0 of 2",
			m.Completed, m.Canceled, m.Failed, m.Submitted)
	}
}

// TestDrainCheckpointsAndResume is the SIGTERM acceptance path: a drain
// stops the in-flight campaign at a batch boundary with its checkpoint
// current, and a fresh server sharing the checkpoint directory finishes
// the campaign from there — with the two processes together simulating
// exactly the campaign's iteration count, and the final result identical
// to an uninterrupted run.
func TestDrainCheckpointsAndResume(t *testing.T) {
	dir := t.TempDir()
	spec := JobSpec{Params: fastParams(), Seed: 61, Iterations: 200_000, BatchSize: 500}

	s1 := New(Options{MaxConcurrent: 1, Workers: 2, CheckpointDir: dir})
	j1, _, err := s1.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	// Wait for at least one completed batch so there is work to lose.
	ch := j1.Subscribe()
	select {
	case <-ch:
	case <-time.After(30 * time.Second):
		t.Fatal("no progress before drain")
	}
	j1.Unsubscribe(ch)

	dctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := s1.Drain(dctx); err != nil {
		t.Fatalf("Drain: %v", err)
	}
	if st := j1.State(); st != JobCanceled {
		t.Fatalf("drained job state = %s, want %s", st, JobCanceled)
	}
	res1, _ := j1.Result()
	if res1 == nil || res1.Iterations <= 0 || res1.Iterations >= spec.Iterations {
		t.Fatalf("drained job completed %v iterations, want partial progress", res1)
	}
	ckpt := filepath.Join(dir, checkpointName(j1.CacheKey))
	if _, err := os.Stat(ckpt); err != nil {
		t.Fatalf("no checkpoint after drain: %v", err)
	}
	if _, _, err := s1.Submit(spec); err == nil {
		t.Fatal("submit accepted while draining")
	}
	if !s1.Metrics().Draining {
		t.Fatal("metrics do not report draining")
	}

	// "Restart": a new server over the same checkpoint directory resumes
	// the resubmitted spec instead of starting over.
	s2 := New(Options{MaxConcurrent: 1, Workers: 2, CheckpointDir: dir})
	defer s2.Drain(context.Background())
	j2, reused, err := s2.Submit(spec)
	if err != nil || reused {
		t.Fatalf("resubmit after restart: reused=%v err=%v", reused, err)
	}
	waitDone(t, j2)
	res2, err := j2.Result()
	if err != nil || res2 == nil {
		t.Fatalf("resumed job failed: %v", err)
	}
	if res2.ResumedFrom != res1.Iterations {
		t.Fatalf("resumed from %d, want the drained job's %d", res2.ResumedFrom, res1.Iterations)
	}
	if res2.Iterations != spec.Iterations {
		t.Fatalf("resumed job completed %d iterations, want %d", res2.Iterations, spec.Iterations)
	}
	// No iteration simulated twice, none lost.
	total := s1.Metrics().IterationsSimulated + s2.Metrics().IterationsSimulated
	if total != uint64(spec.Iterations) {
		t.Fatalf("the two processes simulated %d iterations together, want exactly %d", total, spec.Iterations)
	}

	// And the stitched-together campaign is the uninterrupted campaign.
	cspec, err := spec.lower()
	if err != nil {
		t.Fatal(err)
	}
	want, err := campaign.Run(context.Background(), cspec)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(res2.Run.Events, want.Run.Events) || res2.GroupsWithDDF != want.GroupsWithDDF {
		t.Fatal("resumed result differs from an uninterrupted run")
	}
}

// testdata/d9088091ac799d91.ckpt.json is a drained job's checkpoint as
// raidreld wrote it when a nil engine meant the event engine: version 1,
// 2,000 of the spec's 60,000 iterations, named by the event-engine cache
// key.
// A current server must find it under that name, continue on the event
// engine, and journal under the job's new name; a drain and a second server
// then finish the campaign, bit-identical to an uninterrupted event-engine
// run, with no iteration simulated twice.
func TestDrainResumesLegacyCheckpointName(t *testing.T) {
	const legacyName = "d9088091ac799d91.ckpt.json"
	spec := JobSpec{Params: fastParams(), Seed: 81, Iterations: 60_000, BatchSize: 1000}
	dir := t.TempDir()
	data, err := os.ReadFile(filepath.Join("testdata", legacyName))
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, legacyName), data, 0o644); err != nil {
		t.Fatal(err)
	}

	s1 := New(Options{MaxConcurrent: 1, Workers: 2, CheckpointDir: dir})
	j1, _, err := s1.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	if checkpointName(j1.CacheKey) == legacyName {
		t.Fatal("the job kept its event-engine checkpoint name; the test is vacuous")
	}
	ch := j1.Subscribe()
	select {
	case <-ch:
	case <-j1.Done():
		_, err := j1.Result()
		t.Fatalf("job ended (%s, %v) before its first batch", j1.State(), err)
	case <-time.After(30 * time.Second):
		t.Fatal("no progress before drain")
	}
	j1.Unsubscribe(ch)
	dctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := s1.Drain(dctx); err != nil {
		t.Fatalf("Drain: %v", err)
	}
	res1, _ := j1.Result()
	if res1 == nil || res1.ResumedFrom != 2000 || res1.Iterations >= spec.Iterations {
		t.Fatalf("first server's job: %+v, want a partial campaign resumed from the legacy checkpoint's 2000 iterations", res1)
	}
	if _, err := os.Stat(filepath.Join(dir, checkpointName(j1.CacheKey))); err != nil {
		t.Fatalf("no checkpoint under the new name after drain: %v", err)
	}

	s2 := New(Options{MaxConcurrent: 1, Workers: 2, CheckpointDir: dir})
	defer s2.Drain(context.Background())
	j2, _, err := s2.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	waitDone(t, j2)
	res2, err := j2.Result()
	if err != nil || res2 == nil {
		t.Fatalf("resumed job failed: %v", err)
	}
	if res2.ResumedFrom != res1.Iterations || res2.Iterations != spec.Iterations {
		t.Fatalf("second server resumed from %d and finished at %d, want %d and %d",
			res2.ResumedFrom, res2.Iterations, res1.Iterations, spec.Iterations)
	}
	total := s1.Metrics().IterationsSimulated + s2.Metrics().IterationsSimulated
	if total != uint64(spec.Iterations-2000) {
		t.Fatalf("the two servers simulated %d iterations together, want exactly %d", total, spec.Iterations-2000)
	}

	cspec, err := spec.lower()
	if err != nil {
		t.Fatal(err)
	}
	cspec.Engine = sim.EventEngine{}
	want, err := campaign.Run(context.Background(), cspec)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(res2.Run.Events, want.Run.Events) || res2.CI != want.CI {
		t.Fatal("resumed legacy campaign differs from an uninterrupted event-engine run")
	}
}

// TestServerShardMerge covers the scale-out path end to end at the Server
// level: shard jobs run concurrently, MergeJobs reproduces the unsharded
// campaign bit-exactly, and the merged result is cached under the
// unsharded spec so submitting the whole campaign afterwards is a cache
// hit served without simulating.
func TestServerShardMerge(t *testing.T) {
	s := New(Options{MaxConcurrent: 3, Workers: 1})
	defer s.Drain(context.Background())

	base := JobSpec{Params: fastParams(), Seed: 71, Iterations: 3000}
	const k = 3
	ids := make([]string, 0, k)
	jobs := make([]*Job, 0, k)
	for i := 0; i < k; i++ {
		js := base
		js.Shard = &Shard{Index: i, Count: k}
		j, reused, err := s.Submit(js)
		if err != nil || reused {
			t.Fatalf("shard %d: reused=%v err=%v", i, reused, err)
		}
		ids = append(ids, j.ID)
		jobs = append(jobs, j)
	}
	for _, j := range jobs {
		waitDone(t, j)
		if st := j.State(); st != JobDone {
			t.Fatalf("shard job %s ended %s", j.ID, st)
		}
	}
	if got := s.Metrics().IterationsSimulated; got != uint64(base.Iterations) {
		t.Fatalf("shards simulated %d iterations, want %d", got, base.Iterations)
	}

	merged, err := s.MergeJobs(ids)
	if err != nil {
		t.Fatal(err)
	}
	if !merged.Merged || merged.State() != JobDone {
		t.Fatalf("merged job: Merged=%v state=%s", merged.Merged, merged.State())
	}
	mres, _ := merged.Result()

	cspec, err := base.lower()
	if err != nil {
		t.Fatal(err)
	}
	want, err := campaign.Run(context.Background(), cspec)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(mres.Run.Events, want.Run.Events) {
		t.Fatal("merged shard events differ from the unsharded run")
	}
	if mres.GroupsWithDDF != want.GroupsWithDDF || mres.CI != want.CI || mres.RelErr != want.RelErr {
		t.Fatalf("merged summary %+v differs from unsharded %+v", mres, want)
	}

	// Merging the same shards again returns the same cached job.
	again, err := s.MergeJobs(ids)
	if err != nil || again != merged {
		t.Fatalf("repeat merge: job=%v err=%v", again, err)
	}

	// Submitting the whole campaign is now a cache hit on the merged job.
	whole, reused, err := s.Submit(base)
	if err != nil || !reused || whole != merged {
		t.Fatalf("unsharded submit after merge: reused=%v job=%v err=%v", reused, whole, err)
	}
	if got := s.Metrics().IterationsSimulated; got != uint64(base.Iterations) {
		t.Fatalf("cache hit after merge re-simulated: %d iterations", got)
	}

	// Merge rejects non-shard and unfinished inputs.
	if _, err := s.MergeJobs([]string{whole.ID}); err == nil {
		t.Fatal("merge of a non-shard job succeeded")
	}
	if _, err := s.MergeJobs(nil); err == nil {
		t.Fatal("merge of nothing succeeded")
	}
	if _, err := s.MergeJobs([]string{"j999999"}); err == nil {
		t.Fatal("merge of an unknown job succeeded")
	}
	if _, err := s.MergeJobs(ids[:k-1]); err == nil {
		t.Fatal("merge of an incomplete shard set succeeded")
	}
}

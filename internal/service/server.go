package service

import (
	"context"
	"errors"
	"fmt"
	"hash/fnv"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"raidrel/internal/campaign"
)

// Options configures a Server.
type Options struct {
	// MaxConcurrent is the number of campaigns simulated at once — the
	// scheduler's slot count (0 = DefaultMaxConcurrent). Each running
	// campaign additionally parallelizes its batches over Workers.
	MaxConcurrent int
	// Workers is the per-campaign sim parallelism (0 = GOMAXPROCS). With
	// several concurrent campaigns, bound it so campaigns share the
	// machine instead of each grabbing every core.
	Workers int
	// CheckpointDir, when non-empty, gives every job a checkpoint file
	// named by its cache key. In-flight campaigns checkpoint after each
	// batch, a drain leaves them resumable, and a restarted server resumes
	// a resubmitted spec from where the previous process stopped.
	CheckpointDir string

	// now is a test hook for the clock.
	now func() time.Time
}

// DefaultMaxConcurrent is the scheduler slot count when Options leaves it 0.
const DefaultMaxConcurrent = 4

// ErrDraining is returned by Submit once a drain has started.
var ErrDraining = errors.New("service: server is draining")

// Metrics is a point-in-time counter snapshot, the body of GET /metrics.
type Metrics struct {
	// Submitted counts accepted jobs (cache hits and coalesced submissions
	// excluded — those attach to an existing job).
	Submitted uint64 `json:"jobs_submitted"`
	// Completed, Failed, Canceled count terminal states of executed jobs.
	Completed uint64 `json:"jobs_completed"`
	Failed    uint64 `json:"jobs_failed"`
	Canceled  uint64 `json:"jobs_canceled"`
	// CacheHits counts submissions served from a completed job's memoized
	// result; Coalesced counts submissions attached to an identical job
	// still queued or running (single-flight dedup).
	CacheHits uint64 `json:"cache_hits"`
	Coalesced uint64 `json:"coalesced"`
	// Merges counts shard-merge operations.
	Merges uint64 `json:"merges"`
	// IterationsSimulated is the total group chronologies actually
	// simulated by this process — the denominator of the cache's value: a
	// cache hit leaves it unchanged.
	IterationsSimulated uint64 `json:"iterations_simulated"`
	// VRIterations is the subset of IterationsSimulated run under the
	// variance-reduction stack (block engine with antithetic, stratified,
	// or control-variate estimation).
	VRIterations uint64 `json:"vr_iterations,omitempty"`
	// VRBreakdownLast is the per-variate factor attribution of the most
	// recently finished variance-reduced campaign — a liveness gauge for
	// dashboards watching whether each technique still earns its keep.
	// Omitted until a VR campaign completes with a measurable factor.
	VRBreakdownLast *campaign.VRBreakdown `json:"vr_breakdown_last,omitempty"`
	// QueueDepth and Running describe the scheduler's current load.
	QueueDepth int `json:"queue_depth"`
	Running    int `json:"running"`
	// Jobs is the number of tracked jobs.
	Jobs int `json:"jobs"`
	// Draining reports whether a graceful shutdown is in progress.
	Draining bool `json:"draining"`
}

// Server schedules campaign jobs over a bounded pool of concurrent
// campaign slots, memoizes results by cache key, and drains gracefully:
// on Drain every in-flight campaign is cancelled at its next batch
// boundary with its checkpoint current, so nothing simulated is lost.
type Server struct {
	opts   Options
	ctx    context.Context
	cancel context.CancelFunc
	queue  *jobQueue
	wg     sync.WaitGroup

	mu       sync.Mutex
	jobs     map[string]*Job
	order    []*Job // submission order, for listings
	cache    map[string]*Job
	nextSeq  int
	draining bool
	vrLast   *campaign.VRBreakdown // latest completed VR campaign's attribution

	running                                                         atomic.Int64
	submitted, completed, failed, canceled, hits, coalesced, merges atomic.Uint64
	iterations, vrIterations                                        atomic.Uint64
}

// New starts a Server with MaxConcurrent scheduler workers.
func New(opts Options) *Server {
	if opts.MaxConcurrent <= 0 {
		opts.MaxConcurrent = DefaultMaxConcurrent
	}
	if opts.now == nil {
		opts.now = time.Now
	}
	ctx, cancel := context.WithCancel(context.Background())
	s := &Server{
		opts:   opts,
		ctx:    ctx,
		cancel: cancel,
		queue:  newJobQueue(),
		jobs:   make(map[string]*Job),
		cache:  make(map[string]*Job),
	}
	for i := 0; i < opts.MaxConcurrent; i++ {
		s.wg.Add(1)
		go s.worker()
	}
	return s
}

// Submit validates the spec and returns its job. If an identical spec
// (equal cache key) is already tracked and has not failed or been
// canceled, that job is returned instead of enqueueing a duplicate:
// completed jobs serve their memoized result (reused=true, a cache hit),
// and queued or running jobs coalesce the new submission onto the
// in-flight simulation (reused=true, single-flight).
func (s *Server) Submit(spec JobSpec) (job *Job, reused bool, err error) {
	cspec, err := spec.lower()
	if err != nil {
		return nil, false, err
	}
	fp := cspec.Fingerprint()
	key := spec.cacheKey(fp)

	s.mu.Lock()
	defer s.mu.Unlock()
	if s.draining {
		return nil, false, ErrDraining
	}
	if prev, ok := s.cache[key]; ok {
		switch prev.State() {
		case JobDone:
			s.hits.Add(1)
			return prev, true, nil
		case JobQueued, JobRunning:
			s.coalesced.Add(1)
			return prev, true, nil
		}
		// Failed or canceled: fall through and replace the entry. A
		// canceled job's checkpoint (if any) makes the rerun a resume.
	}

	j := newJob(spec, cspec, fp, key, s.opts.now())
	s.track(j)
	s.submitted.Add(1)
	s.queue.Push(j)
	return j, false, nil
}

// track gives j the next ID and submission sequence and registers it,
// caching it under its key. Caller holds s.mu.
func (s *Server) track(j *Job) {
	s.nextSeq++
	j.ID = fmt.Sprintf("j%06d", s.nextSeq)
	j.seq = s.nextSeq
	s.jobs[j.ID] = j
	s.order = append(s.order, j)
	s.cache[j.CacheKey] = j
}

// Job looks up a tracked job.
func (s *Server) Job(id string) (*Job, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	j, ok := s.jobs[id]
	return j, ok
}

// Jobs returns every tracked job in submission order.
func (s *Server) Jobs() []*Job {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]*Job, len(s.order))
	copy(out, s.order)
	return out
}

// Cancel stops a job: queued jobs are canceled immediately, running jobs
// at their next batch boundary (with the checkpoint current). Terminal
// jobs return an error.
func (s *Server) Cancel(id string) error {
	j, ok := s.Job(id)
	if !ok {
		return fmt.Errorf("service: unknown job %s", id)
	}
	switch state := j.stop(s.opts.now()); state {
	case JobQueued:
		s.canceled.Add(1)
		s.evict(j)
		return nil
	case JobRunning:
		return nil
	default:
		return fmt.Errorf("service: job %s already %s", id, state)
	}
}

// Drain initiates graceful shutdown: no new submissions, queued jobs are
// canceled, and every running campaign is cancelled — each stops at its
// next batch boundary having just written its checkpoint, so all
// in-flight work is resumable by a later process. Drain blocks until the
// workers have quiesced or ctx expires.
func (s *Server) Drain(ctx context.Context) error {
	s.mu.Lock()
	s.draining = true
	s.mu.Unlock()

	s.queue.Close()
	// Every job context derives from s.ctx, so one cancel reaches all
	// running campaigns — including any that slip into Running while the
	// drain is starting.
	s.cancel()

	done := make(chan struct{})
	go func() {
		s.wg.Wait()
		close(done)
	}()
	select {
	case <-done:
		return nil
	case <-ctx.Done():
		return fmt.Errorf("service: drain: %w", ctx.Err())
	}
}

// Metrics snapshots the counters.
func (s *Server) Metrics() Metrics {
	s.mu.Lock()
	jobs, draining, vrLast := len(s.jobs), s.draining, s.vrLast
	s.mu.Unlock()
	return Metrics{
		VRBreakdownLast:     vrLast,
		Submitted:           s.submitted.Load(),
		Completed:           s.completed.Load(),
		Failed:              s.failed.Load(),
		Canceled:            s.canceled.Load(),
		CacheHits:           s.hits.Load(),
		Coalesced:           s.coalesced.Load(),
		Merges:              s.merges.Load(),
		IterationsSimulated: s.iterations.Load(),
		VRIterations:        s.vrIterations.Load(),
		QueueDepth:          s.queue.Len(),
		Running:             int(s.running.Load()),
		Jobs:                jobs,
		Draining:            draining,
	}
}

// worker is one scheduler slot: it pops jobs until the queue closes.
func (s *Server) worker() {
	defer s.wg.Done()
	for {
		j := s.queue.Pop()
		if j == nil {
			return
		}
		s.runJob(j)
	}
}

// runJob executes one campaign end to end.
func (s *Server) runJob(j *Job) {
	ctx, cancel := context.WithCancel(s.ctx)
	defer cancel()

	s.mu.Lock()
	draining := s.draining
	s.mu.Unlock()

	if draining {
		// Popped after a drain started: never simulated, just canceled.
		if j.stop(s.opts.now()) == JobQueued {
			s.canceled.Add(1)
			s.evict(j)
		}
		return
	}
	if !j.start(cancel, s.opts.now()) {
		return // canceled while queued
	}

	spec := j.lowered
	spec.Workers = s.opts.Workers
	spec.Progress = campaign.ProgressFunc(j.publish)
	if dir := s.opts.CheckpointDir; dir != "" {
		// A previous process (or a canceled run) left a checkpoint for this
		// exact spec: continue it instead of starting over.
		names := j.checkpointNames()
		spec.Checkpoint = filepath.Join(dir, names[0])
		for _, name := range names {
			p := filepath.Join(dir, name)
			if _, err := os.Stat(p); err == nil {
				spec.Resume = p
				break
			}
		}
	}

	s.running.Add(1)
	res, err := campaign.Run(ctx, spec)
	s.running.Add(-1)
	now := s.opts.now()
	count := func() {
		n := uint64(res.Iterations - res.ResumedFrom)
		s.iterations.Add(n)
		if spec.Config.VR.Enabled() {
			s.vrIterations.Add(n)
		}
		if res.VRByVariate != nil {
			s.mu.Lock()
			s.vrLast = res.VRByVariate
			s.mu.Unlock()
		}
	}
	switch {
	case err != nil:
		j.finish(JobFailed, nil, err, now)
		s.failed.Add(1)
		s.evict(j)
	case res.Reason == campaign.StopCancelled:
		// Canceled or drained: keep the partial result for inspection,
		// count the work actually done, and evict so a resubmission
		// re-enqueues (resuming from the checkpoint just written).
		count()
		j.finish(JobCanceled, res, nil, now)
		s.canceled.Add(1)
		s.evict(j)
	default:
		count()
		j.finish(JobDone, res, nil, now)
		s.completed.Add(1)
	}
}

// evict removes a job's cache entry if it still owns it.
func (s *Server) evict(j *Job) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.cache[j.CacheKey] == j {
		delete(s.cache, j.CacheKey)
	}
}

// checkpointNames returns the job's checkpoint file name and, when the
// campaign has a LegacyFingerprint, the name its checkpoint had when a nil
// engine meant the event engine. The campaign resumes such a file on the
// event engine and journals it under the first name.
func (j *Job) checkpointNames() []string {
	names := []string{checkpointName(j.CacheKey)}
	if fp := j.lowered.LegacyFingerprint(); fp != "" {
		names = append(names, checkpointName(j.Spec.cacheKey(fp)))
	}
	return names
}

// checkpointName maps a cache key to a filesystem-safe checkpoint file.
func checkpointName(cacheKey string) string {
	h := fnv.New64a()
	h.Write([]byte(cacheKey))
	return fmt.Sprintf("%016x.ckpt.json", h.Sum64())
}

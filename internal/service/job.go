// Package service is raidreld's scale-out layer: a job model, a priority
// queue, a concurrent-campaign scheduler over a shared worker pool, a
// fingerprint-keyed result cache with single-flight dedup, and exact shard
// merging. The paper's DDF estimates are expensive Monte Carlo campaigns
// over a small, heavily repeated space of RAID configurations — exactly
// the shape that should be simulated once and then served from memory: a
// million users asking about the same few thousand configs hit memoized
// confidence intervals, not the engines.
//
// Everything leans on guarantees the lower layers already provide:
// campaigns are bit-exact for any worker count and batch size, stream
// offsets compose (`sim.RunSpec.Offset`), checkpoints survive kills, and
// the Progress sink is pluggable — so the service adds coordination, not
// new numerics.
package service

import (
	"fmt"
	"math/bits"
	"strings"
	"sync"
	"time"

	"raidrel/internal/campaign"
	"raidrel/internal/core"
)

// Shard designates one slice of a sharded campaign: shard Index of Count
// runs iteration range [Index·N/Count, (Index+1)·N/Count) of an
// N-iteration campaign via the campaign stream offset. Shards are fixed
// size by construction — adaptive stopping would make the slice boundaries
// depend on observed data, and exact merging requires the union of shard
// ranges to be the iteration set an unsharded run would simulate.
type Shard struct {
	Index int `json:"index"`
	Count int `json:"count"`
}

// Range returns the shard's [start, end) iteration range of an
// n-iteration campaign, exact for any n: the products Index·n and
// (Index+1)·n are taken in 128 bits. An invalid shard or a negative n
// yields the empty range [0, 0).
func (s Shard) Range(n int) (start, end int) {
	if s.Count < 1 || s.Index < 0 || s.Index >= s.Count || n < 0 {
		return 0, 0
	}
	return mulDiv(s.Index, n, s.Count), mulDiv(s.Index+1, n, s.Count)
}

// mulDiv returns ⌊a·b/c⌋ for 0 <= a <= c, b >= 0 and c >= 1. The quotient
// is at most b, so it fits, and bits.Div64 cannot overflow.
func mulDiv(a, b, c int) int {
	hi, lo := bits.Mul64(uint64(a), uint64(b))
	q, _ := bits.Div64(hi, lo, uint64(c))
	return int(q)
}

// JobSpec is the wire form of a campaign request. Params is the full model
// parameterization (the paper's Table 2 plus structural knobs); the rest
// steers the campaign itself. Exactly the knobs that change the simulated
// result participate in the cache identity — see cacheKey.
type JobSpec struct {
	// Params parameterizes the reliability model.
	Params core.Params `json:"params"`
	// Seed is the campaign RNG seed.
	Seed uint64 `json:"seed"`
	// Iterations is the fixed iteration budget; for sharded jobs it is the
	// total campaign size N that the shards slice up.
	Iterations int `json:"iterations,omitempty"`
	// TargetRelErr stops the campaign adaptively at this CI relative
	// half-width (0 disables; incompatible with sharding).
	TargetRelErr float64 `json:"target_rel_err,omitempty"`
	// Confidence is the CI level (0 = 0.95).
	Confidence float64 `json:"confidence,omitempty"`
	// BatchSize is iterations per campaign batch (0 = default). It only
	// affects results for adaptive jobs, where stopping is evaluated at
	// batch boundaries.
	BatchSize int `json:"batch,omitempty"`
	// MaxDurationS is a wall-clock budget in seconds (0 = unlimited;
	// incompatible with sharding — shard sizes must be deterministic).
	MaxDurationS float64 `json:"max_duration_s,omitempty"`
	// Priority orders the queue: higher runs first, FIFO within a level.
	Priority int `json:"priority,omitempty"`
	// Shard, when set, makes this job one fixed-size slice of a sharded
	// campaign.
	Shard *Shard `json:"shard,omitempty"`
}

// maxJobIterations caps a job's iteration count (a sharded job's total
// N included). 2^40 groups take about a month at ~4·10^5 groups/s, so a
// larger count would hold a scheduler slot longer than the daemon runs.
const maxJobIterations = 1 << 40

// Validate rejects specs that could not run or could not merge.
func (js JobSpec) Validate() error {
	_, err := js.lower()
	return err
}

// lower validates the spec and lowers it to its campaign spec, calling
// core.New once. The returned spec has no checkpoint, progress, or worker
// settings; the scheduler fills those in. Submit derives the job's
// fingerprint and cache key from it, and the job carries it from there.
func (js JobSpec) lower() (campaign.Spec, error) {
	if js.Iterations > maxJobIterations {
		return campaign.Spec{}, fmt.Errorf("service: %d iterations exceeds the %d-iteration job cap", js.Iterations, maxJobIterations)
	}
	if s := js.Shard; s != nil {
		if s.Count < 1 || s.Index < 0 || s.Index >= s.Count {
			return campaign.Spec{}, fmt.Errorf("service: shard %d/%d invalid", s.Index, s.Count)
		}
		if js.Iterations <= 0 {
			return campaign.Spec{}, fmt.Errorf("service: sharded job needs a positive total iteration count")
		}
		if js.TargetRelErr != 0 || js.MaxDurationS != 0 {
			return campaign.Spec{}, fmt.Errorf("service: sharded jobs must be fixed size (no target_rel_err or max_duration_s): shard boundaries depend on them")
		}
		if start, end := s.Range(js.Iterations); end <= start {
			return campaign.Spec{}, fmt.Errorf("service: shard %d/%d of %d iterations is empty", s.Index, s.Count, js.Iterations)
		}
	}
	m, err := core.New(js.Params)
	if err != nil {
		return campaign.Spec{}, err
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
	if err := spec.Validate(); err != nil {
		return campaign.Spec{}, err
	}
	return spec, nil
}

// cacheKey is the result-cache identity of the job whose lowered spec
// has config fingerprint fp: the fingerprint plus every knob that changes
// what the campaign computes. Fixed-size jobs are bit-exact for any batch
// size and worker count, so neither participates; adaptive jobs evaluate
// their stopping rule at batch boundaries, so for them the batch size
// does. Two requests with equal keys receive the same answer, simulated
// at most once.
func (js JobSpec) cacheKey(fp string) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s|iters=%d;target=%g;conf=%g;maxdur=%g",
		fp, js.Iterations, js.TargetRelErr, js.Confidence, js.MaxDurationS)
	if js.TargetRelErr != 0 {
		fmt.Fprintf(&b, ";batch=%d", js.BatchSize)
	}
	if js.Shard != nil {
		fmt.Fprintf(&b, "|shard=%d/%d", js.Shard.Index, js.Shard.Count)
	}
	return b.String()
}

// unsharded returns the job the whole campaign would be: the same spec
// with the shard designation removed. Merged shard results are cached
// under this spec's key, so a later unsharded submission of the same
// campaign is a cache hit.
func (js JobSpec) unsharded() JobSpec {
	js.Shard = nil
	return js
}

// JobState is a job's lifecycle phase.
type JobState string

const (
	// JobQueued: accepted, waiting for a scheduler slot.
	JobQueued JobState = "queued"
	// JobRunning: a scheduler slot is simulating the campaign.
	JobRunning JobState = "running"
	// JobDone: finished; the result is cached and served from memory.
	JobDone JobState = "done"
	// JobFailed: the campaign returned an error.
	JobFailed JobState = "failed"
	// JobCanceled: canceled by request or server drain. A partial result
	// and a current checkpoint may exist; resubmitting the same spec
	// resumes from the checkpoint.
	JobCanceled JobState = "canceled"
)

// Job is one tracked campaign. Every state change happens in one Job
// method under mu: start (queued to running), stop (queued to canceled,
// or a cancel request to a running campaign), and finish (to a terminal
// state). HTTP handlers and progress subscribers only read through the
// accessor methods.
type Job struct {
	// ID is the server-assigned handle.
	ID string
	// Spec is the submitted request.
	Spec JobSpec
	// Fingerprint is the campaign config identity (shard-aware).
	Fingerprint string
	// CacheKey is the result-cache identity.
	CacheKey string
	// Merged marks a job materialized by a shard merge rather than
	// simulated.
	Merged bool

	// lowered is Spec lowered to its campaign spec, once, at submission;
	// Fingerprint is its fingerprint.
	lowered campaign.Spec
	seq     int // submission order, the FIFO tiebreak within a priority level

	mu        sync.Mutex
	state     JobState
	last      campaign.Snapshot
	hasSnap   bool
	subs      map[chan campaign.Snapshot]struct{}
	result    *campaign.Result
	rates     resultRates // result's weighted rates, set with it
	err       error
	submitted time.Time
	started   time.Time
	finished  time.Time
	cancel    func()

	// done closes when the job reaches a terminal state.
	done chan struct{}
}

// newJob returns a queued, untracked job for js lowered to spec, whose
// fingerprint is fp and cache key key.
func newJob(js JobSpec, spec campaign.Spec, fp, key string, now time.Time) *Job {
	return &Job{
		Spec:        js,
		Fingerprint: fp,
		CacheKey:    key,
		lowered:     spec,
		state:       JobQueued,
		submitted:   now,
		done:        make(chan struct{}),
	}
}

// State returns the lifecycle phase.
func (j *Job) State() JobState {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.state
}

// Result returns the campaign result and error; the result is non-nil for
// done jobs and for canceled jobs that completed at least one batch.
func (j *Job) Result() (*campaign.Result, error) {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.result, j.err
}

// Progress returns the latest telemetry snapshot, if any arrived yet.
func (j *Job) Progress() (campaign.Snapshot, bool) {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.last, j.hasSnap
}

// Done returns a channel closed when the job reaches a terminal state.
func (j *Job) Done() <-chan struct{} { return j.done }

// publish records a telemetry snapshot and fans it out to subscribers.
// Slow subscribers lose intermediate frames (their channel buffer fills;
// telemetry must never stall the campaign) but always observe the latest
// state on their next read and the terminal state via Done.
func (j *Job) publish(s campaign.Snapshot) {
	j.mu.Lock()
	defer j.mu.Unlock()
	j.last = s
	j.hasSnap = true
	for ch := range j.subs {
		select {
		case ch <- s:
		default:
		}
	}
}

// Subscribe registers a progress listener and replays the latest snapshot
// so late subscribers start current. The caller must Unsubscribe.
func (j *Job) Subscribe() <-chan campaign.Snapshot {
	ch := make(chan campaign.Snapshot, 16)
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.subs == nil {
		j.subs = make(map[chan campaign.Snapshot]struct{})
	}
	j.subs[ch] = struct{}{}
	if j.hasSnap {
		ch <- j.last
	}
	return ch
}

// Unsubscribe removes a listener registered by Subscribe.
func (j *Job) Unsubscribe(ch <-chan campaign.Snapshot) {
	j.mu.Lock()
	defer j.mu.Unlock()
	for c := range j.subs {
		if c == ch {
			delete(j.subs, c)
			close(c)
			return
		}
	}
}

// start moves a queued job to running, stopped by cancel. It reports
// false, leaving the job alone, when the job already left the queue.
func (j *Job) start(cancel func(), now time.Time) bool {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.state != JobQueued {
		return false
	}
	j.state = JobRunning
	j.started = now
	j.cancel = cancel
	return true
}

// stop cancels the job and returns the state it found: a queued job is
// canceled at once, and a running one is asked to stop at its next batch
// boundary (its scheduler slot does the terminal bookkeeping). A terminal
// job is left alone.
func (j *Job) stop(now time.Time) JobState {
	j.mu.Lock()
	defer j.mu.Unlock()
	state := j.state
	switch state {
	case JobQueued:
		j.finishLocked(JobCanceled, nil, resultRates{}, nil, now)
	case JobRunning:
		j.cancel()
	}
	return state
}

// finish moves a queued or running job to a terminal state: the
// scheduler slot that started the job calls it, as does MergeJobs for
// the job it materializes. Later calls are no-ops. Caller must not hold
// j.mu.
func (j *Job) finish(state JobState, res *campaign.Result, err error, now time.Time) {
	rates := ratesOf(res)
	j.mu.Lock()
	defer j.mu.Unlock()
	j.finishLocked(state, res, rates, err, now)
}

// finishLocked is finish with j.mu held and res's rates computed.
func (j *Job) finishLocked(state JobState, res *campaign.Result, rates resultRates, err error, now time.Time) {
	select {
	case <-j.done:
		return // already terminal
	default:
	}
	j.state = state
	if res != nil {
		j.result = res
		j.rates = rates
	}
	j.err = err
	j.finished = now
	close(j.done)
}

package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"raidrel/internal/service"
	"raidrel/internal/stats"
)

// daemonSlots is the server's concurrent campaign count; each campaign runs
// one simulation goroutine, so the server never uses more than this many.
const daemonSlots = 2

// clientCount is the number of closed-loop HTTP clients: at most nproc.
func clientCount() int { return min(daemonSlots, runtime.NumCPU()) }

// jobSample is one client-side job or cache hit.
type jobSample struct {
	latency, submit, result time.Duration
	bytes, frames           int
	// Server-side phases of a cold job, from its status timestamps; filled
	// in traced reps only.
	queueWait, run, overhead time.Duration
}

// serveOutcome is one run of serveJobs.
type serveOutcome struct {
	healthy    time.Time
	coldWall   time.Duration
	cold, hits []jobSample
	metrics    service.Metrics

	mu       sync.Mutex
	peakHeap uint64
}

func (o *serveOutcome) sampleHeap() {
	h := liveHeapBytes()
	o.mu.Lock()
	o.peakHeap = max(o.peakHeap, h)
	o.mu.Unlock()
}

// serveJobs starts a raidreld server in this process on a loopback
// listener and drives it with closed-loop clients: a cold phase of jobs
// copies of template (job i seeded seed+i), each submitted, streamed to
// its end event and fetched; then a hit phase of hits resubmissions of the
// cold specs in turn, all served from the cache. Every job and hit is
// checked and counted in rr.
func serveJobs(ctx context.Context, rr *repResult, template service.JobSpec, jobs, hits int, seed uint64, dir string, t truth, tr *tracer, parent int) (out *serveOutcome, err error) {
	srv := service.New(service.Options{MaxConcurrent: daemonSlots, Workers: 1, CheckpointDir: dir})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, errors.Join(err, srv.Drain(ctx))
	}
	hs := &http.Server{Handler: srv.Handler()}
	served := make(chan error, 1)
	go func() { served <- hs.Serve(ln) }()
	defer func() {
		sctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		serr := hs.Shutdown(sctx)
		if e := <-served; !errors.Is(e, http.ErrServerClosed) {
			serr = errors.Join(serr, e)
		}
		err = errors.Join(err, serr, srv.Drain(sctx))
	}()

	cl := &client{
		base: "http://" + ln.Addr().String(),
		hc:   &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: clientCount()}},
	}
	defer cl.hc.CloseIdleConnections()
	out = &serveOutcome{}
	if err := cl.waitHealthy(ctx); err != nil {
		return nil, err
	}
	out.healthy = time.Now()

	specs := make([][]byte, jobs)
	for i := range specs {
		js := template
		js.Seed = seed + uint64(i)
		if specs[i], err = json.Marshal(js); err != nil {
			return nil, err
		}
	}

	bodies := make([][]byte, jobs)
	out.cold = make([]jobSample, jobs)
	coldErrs := make([]error, jobs)
	start := time.Now()
	closedLoop(jobs, func(i int) {
		out.cold[i], bodies[i], coldErrs[i] = cl.coldJob(ctx, specs[i], tr, parent)
		out.sampleHeap()
	})
	out.coldWall = time.Since(start)
	for i, err := range coldErrs {
		if err == nil {
			err = checkJobResult(bodies[i], template.Iterations, t)
		}
		rr.outcome(fmt.Sprintf("job %d", i), err)
	}

	out.hits = make([]jobSample, hits)
	hitErrs := make([]error, hits)
	closedLoop(hits, func(k int) {
		var body []byte
		out.hits[k], body, hitErrs[k] = cl.hitJob(ctx, specs[k%jobs], tr, parent)
		if hitErrs[k] == nil && !bytes.Equal(body, bodies[k%jobs]) {
			hitErrs[k] = fmt.Errorf("cache hit body differs from the cold job's")
		}
	})
	for k, err := range hitErrs {
		rr.outcome(fmt.Sprintf("hit %d", k), err)
	}

	_, body, err := cl.do(ctx, http.MethodGet, "/metrics", nil)
	if err == nil {
		err = json.Unmarshal(body, &out.metrics)
	}
	if err != nil {
		return nil, fmt.Errorf("metrics: %w", err)
	}
	m := out.metrics
	var merr error
	if want := uint64(jobs * template.Iterations); m.IterationsSimulated != want {
		merr = fmt.Errorf("iterations_simulated %d, want %d", m.IterationsSimulated, want)
	}
	if m.CacheHits != uint64(hits) {
		merr = errors.Join(merr, fmt.Errorf("cache_hits %d, want %d", m.CacheHits, hits))
	}
	rr.outcome("metrics", merr)
	return out, nil
}

// closedLoop runs f(0..total-1) on clientCount goroutines, each taking the
// next index only after its previous call returned.
func closedLoop(total int, f func(i int)) {
	var next atomic.Int64
	var wg sync.WaitGroup
	for c := 0; c < clientCount(); c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= total {
					return
				}
				f(i)
			}
		}()
	}
	wg.Wait()
}

// checkJobResult verifies a fixed-size job's result document.
func checkJobResult(body []byte, iterations int, t truth) error {
	var doc struct {
		Iterations int     `json:"iterations"`
		CILo       float64 `json:"ci_lo"`
		CIHi       float64 `json:"ci_hi"`
		Confidence float64 `json:"confidence"`
	}
	if err := json.Unmarshal(body, &doc); err != nil {
		return fmt.Errorf("result: %w", err)
	}
	if doc.Iterations != iterations {
		return fmt.Errorf("result has %d iterations, want %d", doc.Iterations, iterations)
	}
	return t.check(stats.Interval{Lo: doc.CILo, Hi: doc.CIHi, Level: doc.Confidence})
}

// client is one HTTP client of the daemon's JSON API.
type client struct {
	base string
	hc   *http.Client
}

// jobDoc is the part of a job status document the benchmark reads.
type jobDoc struct {
	ID          string `json:"id"`
	State       string `json:"state"`
	Cached      bool   `json:"cached"`
	SubmittedAt string `json:"submitted_at"`
	StartedAt   string `json:"started_at"`
	FinishedAt  string `json:"finished_at"`
}

// do sends one request and returns the status code and body; a status
// other than 200 or 202 is an error.
func (c *client) do(ctx context.Context, method, path string, body []byte) (int, []byte, error) {
	req, err := http.NewRequestWithContext(ctx, method, c.base+path, bytes.NewReader(body))
	if err != nil {
		return 0, nil, err
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return 0, nil, err
	}
	if resp.StatusCode != http.StatusOK && resp.StatusCode != http.StatusAccepted {
		return resp.StatusCode, nil, fmt.Errorf("%s %s: %s: %s", method, path, resp.Status, bytes.TrimSpace(data))
	}
	return resp.StatusCode, data, nil
}

func (c *client) waitHealthy(ctx context.Context) error {
	deadline := time.Now().Add(10 * time.Second)
	for {
		_, _, err := c.do(ctx, http.MethodGet, "/healthz", nil)
		if err == nil {
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("daemon not healthy: %w", err)
		}
		time.Sleep(time.Millisecond)
	}
}

func (c *client) submit(ctx context.Context, spec []byte) (jobDoc, int, error) {
	var doc jobDoc
	code, body, err := c.do(ctx, http.MethodPost, "/v1/jobs", spec)
	if err == nil {
		err = json.Unmarshal(body, &doc)
	}
	return doc, code, err
}

// coldJob submits a new job, follows its progress stream to the end event
// and fetches its result.
func (c *client) coldJob(ctx context.Context, spec []byte, tr *tracer, parent int) (jobSample, []byte, error) {
	var s jobSample
	span := tr.begin(parent, "job.cold")
	start := time.Now()
	doc, code, err := c.submit(ctx, spec)
	submitted := time.Now()
	s.submit = submitted.Sub(start)
	tr.add(span, "http.submit", start, submitted, nil)
	if err != nil {
		return s, nil, err
	}
	if code != http.StatusAccepted {
		return s, nil, fmt.Errorf("cold submit answered %d (cached %v), want 202", code, doc.Cached)
	}
	frames, err := c.stream(ctx, doc.ID)
	streamed := time.Now()
	s.frames = frames
	tr.add(span, "http.stream", submitted, streamed, attrs{"frames": float64(frames)})
	if err != nil {
		return s, nil, err
	}
	_, body, err := c.do(ctx, http.MethodGet, "/v1/jobs/"+doc.ID+"/result", nil)
	end := time.Now()
	s.result, s.latency, s.bytes = end.Sub(streamed), end.Sub(start), len(body)
	tr.add(span, "http.result", streamed, end, attrs{"bytes": float64(len(body))})
	tr.finish(span, nil)
	if err != nil || tr == nil {
		return s, body, err
	}
	return s, body, c.phases(ctx, doc.ID, &s)
}

// phases fills a cold job's server-side queue wait and run time from its
// status timestamps, and the client-side overhead around them.
func (c *client) phases(ctx context.Context, id string, s *jobSample) error {
	_, body, err := c.do(ctx, http.MethodGet, "/v1/jobs/"+id, nil)
	if err != nil {
		return err
	}
	var doc jobDoc
	if err := json.Unmarshal(body, &doc); err != nil {
		return err
	}
	var ts [3]time.Time
	for i, v := range []string{doc.SubmittedAt, doc.StartedAt, doc.FinishedAt} {
		if ts[i], err = time.Parse(time.RFC3339Nano, v); err != nil {
			return fmt.Errorf("job %s timestamps: %w", id, err)
		}
	}
	s.queueWait, s.run = ts[1].Sub(ts[0]), ts[2].Sub(ts[1])
	s.overhead = s.latency - ts[2].Sub(ts[0])
	return nil
}

// stream reads a job's SSE progress stream to its end and returns the
// number of progress frames; the end event must report the job done.
func (c *client) stream(ctx context.Context, id string) (int, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.base+"/v1/jobs/"+id+"/stream", nil)
	if err != nil {
		return 0, err
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return 0, fmt.Errorf("stream %s: %s", id, resp.Status)
	}
	frames, ended, final := 0, false, ""
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		line := sc.Text()
		switch {
		case line == "event: end":
			ended = true
		case strings.HasPrefix(line, "data: ") && ended:
			final = strings.TrimPrefix(line, "data: ")
		case strings.HasPrefix(line, "data: "):
			frames++
		}
	}
	if err := sc.Err(); err != nil {
		return frames, err
	}
	if final != `{"state":"done"}` {
		return frames, fmt.Errorf("stream %s ended with %q, want state done", id, final)
	}
	return frames, nil
}

// hitJob resubmits a finished spec, which must be a cache hit, and
// fetches its result.
func (c *client) hitJob(ctx context.Context, spec []byte, tr *tracer, parent int) (jobSample, []byte, error) {
	var s jobSample
	span := tr.begin(parent, "job.hit")
	start := time.Now()
	doc, code, err := c.submit(ctx, spec)
	submitted := time.Now()
	s.submit = submitted.Sub(start)
	tr.add(span, "http.submit", start, submitted, nil)
	if err != nil {
		return s, nil, err
	}
	if code != http.StatusOK || !doc.Cached {
		return s, nil, fmt.Errorf("resubmission answered %d (cached %v), want a 200 cache hit", code, doc.Cached)
	}
	_, body, err := c.do(ctx, http.MethodGet, "/v1/jobs/"+doc.ID+"/result", nil)
	end := time.Now()
	s.result, s.latency, s.bytes = end.Sub(submitted), end.Sub(start), len(body)
	tr.add(span, "http.result", submitted, end, attrs{"bytes": float64(len(body))})
	tr.finish(span, nil)
	return s, body, err
}

// daemonRep is one rep of daemon-jobs: the cold and hit phases, and in a
// traced rep the campaign layers of one job run directly.
func daemonRep(ctx context.Context, rr *repResult, w workload, seed uint64, tr *tracer, env repEnv) error {
	c := w.camp.sized(env.sz)
	root := tr.begin(0, "rep")
	defer tr.finish(root, nil)
	out, err := serveJobs(ctx, rr, c.jobTemplate(c.maxIter), env.sz.jobs, 2*env.sz.jobs, seed, env.scratch, w.truth(), tr, root)
	if err != nil {
		return err
	}
	rr.Metrics["time_to_ci_s"] = percentile(durations(out.cold, func(s jobSample) time.Duration { return s.latency }, time.Second), 50)
	rr.Metrics["iters_per_s"] = float64(out.metrics.IterationsSimulated) / out.coldWall.Seconds()
	rr.Metrics["setup_s"] = out.healthy.Sub(env.spawned).Seconds()
	rr.Metrics["peak_heap_mb"] = float64(out.peakHeap) / (1 << 20)
	rr.recordHits(out)
	if tr == nil {
		return nil
	}
	serviceLayers(rr.Layers, out)
	// The campaign one job runs, run directly so its layers can be replayed.
	cr, err := runCampaign(ctx, c, seed, filepath.Join(env.scratch, "campaign.ckpt.json"), true)
	if err != nil {
		return err
	}
	rr.outcome("campaign", checkCampaign(c, cr.res.Campaign, w.truth()))
	return traceCampaign(ctx, rr, c, seed, cr, tr, root, env)
}

// recordHits reports the cache hits of one serveJobs run as the rep's hit
// latencies and hit_p50_ms.
func (r *repResult) recordHits(out *serveOutcome) {
	r.Hits = durations(out.hits, func(s jobSample) time.Duration { return s.latency }, time.Millisecond)
	r.Metrics["hit_p50_ms"] = percentile(r.Hits, 50)
}

// durations extracts one duration per sample, in the given unit.
func durations(samples []jobSample, f func(jobSample) time.Duration, unit time.Duration) []float64 {
	out := make([]float64, len(samples))
	for i, s := range samples {
		out[i] = float64(f(s)) / float64(unit)
	}
	return out
}

// serviceLayers derives the service.* layer metrics of one serveJobs run.
func serviceLayers(layers map[string]float64, out *serveOutcome) {
	p50 := func(samples []jobSample, f func(jobSample) time.Duration) float64 {
		return percentile(durations(samples, f, time.Millisecond), 50)
	}
	all := append(append([]jobSample(nil), out.cold...), out.hits...)
	layers["service.queue_wait_ms_p50"] = p50(out.cold, func(s jobSample) time.Duration { return s.queueWait })
	layers["service.run_ms_p50"] = p50(out.cold, func(s jobSample) time.Duration { return s.run })
	layers["service.overhead_ms_p50"] = p50(out.cold, func(s jobSample) time.Duration { return s.overhead })
	layers["service.submit_ms_p50"] = p50(all, func(s jobSample) time.Duration { return s.submit })
	layers["service.result_ms_p50"] = p50(all, func(s jobSample) time.Duration { return s.result })
	var bytes, frames []float64
	for _, s := range out.cold {
		bytes = append(bytes, float64(s.bytes))
		frames = append(frames, float64(s.frames))
	}
	layers["service.result_bytes"] = percentile(bytes, 50)
	layers["service.sse_frames_per_job"] = mean(frames)
	m := out.metrics
	layers["service.cache_hit_ratio"] = float64(m.CacheHits) / float64(m.Submitted+m.CacheHits+m.Coalesced)
	layers["service.iterations_simulated"] = float64(m.IterationsSimulated)
}

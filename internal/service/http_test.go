package service

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"
	"time"

	"raidrel/internal/campaign"
	"raidrel/internal/core"
	"raidrel/internal/markov"
)

func newTestServer(t *testing.T, opts Options) (*Server, *httptest.Server) {
	t.Helper()
	s := New(opts)
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		ts.Close()
		s.Drain(context.Background())
	})
	return s, ts
}

func postJSON(t *testing.T, url string, body any) *http.Response {
	t.Helper()
	buf, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(buf))
	if err != nil {
		t.Fatal(err)
	}
	return resp
}

func decodeJSON(t *testing.T, resp *http.Response, v any) {
	t.Helper()
	defer resp.Body.Close()
	if err := json.NewDecoder(resp.Body).Decode(v); err != nil {
		t.Fatal(err)
	}
}

func getJSON(t *testing.T, url string, wantCode int, v any) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != wantCode {
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		t.Fatalf("GET %s = %d, want %d: %s", url, resp.StatusCode, wantCode, body)
	}
	if v == nil {
		resp.Body.Close()
		return
	}
	decodeJSON(t, resp, v)
}

func waitHTTPDone(t *testing.T, base, id string) {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for {
		var doc jobDoc
		getJSON(t, base+"/v1/jobs/"+id, http.StatusOK, &doc)
		switch doc.State {
		case JobDone:
			return
		case JobFailed, JobCanceled:
			t.Fatalf("job %s ended %s: %s", id, doc.State, doc.Error)
		}
		if time.Now().After(deadline) {
			t.Fatalf("job %s stuck in %s", id, doc.State)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

func TestHTTPSubmitResultAndCacheHit(t *testing.T) {
	_, ts := newTestServer(t, Options{MaxConcurrent: 2, Workers: 2})
	spec := JobSpec{Params: fastParams(), Seed: 81, Iterations: 2000}

	resp := postJSON(t, ts.URL+"/v1/jobs", spec)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit = %d, want %d", resp.StatusCode, http.StatusAccepted)
	}
	var doc jobDoc
	decodeJSON(t, resp, &doc)
	if doc.ID == "" || doc.Fingerprint == "" {
		t.Fatalf("submit doc incomplete: %+v", doc)
	}
	waitHTTPDone(t, ts.URL, doc.ID)

	var res resultDoc
	getJSON(t, ts.URL+"/v1/jobs/"+doc.ID+"/result", http.StatusOK, &res)
	if res.Iterations != 2000 || res.Fingerprint != doc.Fingerprint {
		t.Fatalf("result doc: %+v", res)
	}
	// The served result is the campaign result, bit for bit.
	cspec, err := spec.lower()
	if err != nil {
		t.Fatal(err)
	}
	want, err := campaign.Run(context.Background(), cspec)
	if err != nil {
		t.Fatal(err)
	}
	if res.GroupsWithDDF != want.GroupsWithDDF || res.TotalDDFs != want.Run.TotalDDFs ||
		res.CILo != want.CI.Lo || res.CIHi != want.CI.Hi || len(res.Events) != len(want.Run.Events) {
		t.Fatalf("served result differs from a direct campaign run: %+v", res)
	}
	for i, e := range want.Run.Events {
		got := res.Events[i]
		if got.Group != e.Group || got.Time != e.Time || got.Cause != int(e.Cause) {
			t.Fatalf("event %d: got %+v, want %+v", i, got, e)
		}
	}

	// Identical resubmission: 200 with cached=true, same job ID.
	resp = postJSON(t, ts.URL+"/v1/jobs", spec)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("cached submit = %d, want %d", resp.StatusCode, http.StatusOK)
	}
	var hit jobDoc
	decodeJSON(t, resp, &hit)
	if !hit.Cached || hit.ID != doc.ID || hit.State != JobDone {
		t.Fatalf("cached submit doc: %+v", hit)
	}

	var m Metrics
	getJSON(t, ts.URL+"/metrics", http.StatusOK, &m)
	if m.CacheHits != 1 || m.IterationsSimulated != 2000 || m.Completed != 1 {
		t.Fatalf("metrics after cache hit: %+v", m)
	}

	var jobs []jobDoc
	getJSON(t, ts.URL+"/v1/jobs", http.StatusOK, &jobs)
	if len(jobs) != 1 || jobs[0].ID != doc.ID {
		t.Fatalf("job list: %+v", jobs)
	}
}

func TestHTTPErrorPaths(t *testing.T) {
	_, ts := newTestServer(t, Options{MaxConcurrent: 1, Workers: 2})

	// Malformed body, unknown field, and invalid spec are all 400s.
	resp, err := http.Post(ts.URL+"/v1/jobs", "application/json", strings.NewReader("{"))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("malformed body = %d", resp.StatusCode)
	}
	resp, err = http.Post(ts.URL+"/v1/jobs", "application/json", strings.NewReader(`{"bogus_knob":1}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("unknown field = %d", resp.StatusCode)
	}
	resp = postJSON(t, ts.URL+"/v1/jobs", JobSpec{Params: fastParams()})
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("invalid spec = %d", resp.StatusCode)
	}
	// An iteration count past the job cap: one slice of a 4.2·10^18-
	// iteration campaign would run for millennia.
	resp = postJSON(t, ts.URL+"/v1/jobs", JobSpec{Params: fastParams(), Seed: 1,
		Iterations: 4239093734707132571, Shard: &Shard{Index: 18, Count: 62}})
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("%d-iteration spec = %d, want 400", 4239093734707132571, resp.StatusCode)
	}

	getJSON(t, ts.URL+"/v1/jobs/j999999", http.StatusNotFound, nil)
	getJSON(t, ts.URL+"/v1/jobs/j999999/result", http.StatusNotFound, nil)

	// Result of a non-terminal job is a 409.
	resp = postJSON(t, ts.URL+"/v1/jobs", longSpec(82))
	var doc jobDoc
	decodeJSON(t, resp, &doc)
	getJSON(t, ts.URL+"/v1/jobs/"+doc.ID+"/result", http.StatusConflict, nil)

	// DELETE cancels; a second DELETE conflicts; result stays unavailable.
	req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/v1/jobs/"+doc.ID, nil)
	dresp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	dresp.Body.Close()
	if dresp.StatusCode != http.StatusOK {
		t.Fatalf("cancel = %d", dresp.StatusCode)
	}
	deadline := time.Now().Add(30 * time.Second)
	for {
		var cur jobDoc
		getJSON(t, ts.URL+"/v1/jobs/"+doc.ID, http.StatusOK, &cur)
		if cur.State == JobCanceled {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("job not canceled, state %s", cur.State)
		}
		time.Sleep(5 * time.Millisecond)
	}
	dresp, err = http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	dresp.Body.Close()
	if dresp.StatusCode != http.StatusConflict {
		t.Fatalf("double cancel = %d", dresp.StatusCode)
	}
	getJSON(t, ts.URL+"/v1/jobs/"+doc.ID+"/result", http.StatusConflict, nil)
}

// TestHTTPShardMerge drives the sharded workflow purely over the wire:
// submit the k shard jobs, merge them, and check the merged body equals a
// direct unsharded campaign run event for event.
func TestHTTPShardMerge(t *testing.T) {
	_, ts := newTestServer(t, Options{MaxConcurrent: 3, Workers: 1})
	base := JobSpec{Params: fastParams(), Seed: 83, Iterations: 1500}
	const k = 3

	ids := make([]string, 0, k)
	for i := 0; i < k; i++ {
		js := base
		js.Shard = &Shard{Index: i, Count: k}
		resp := postJSON(t, ts.URL+"/v1/jobs", js)
		var doc jobDoc
		decodeJSON(t, resp, &doc)
		if doc.Shard == nil || doc.Shard.Index != i {
			t.Fatalf("shard doc: %+v", doc)
		}
		ids = append(ids, doc.ID)
	}
	for _, id := range ids {
		waitHTTPDone(t, ts.URL, id)
	}

	resp := postJSON(t, ts.URL+"/v1/merge", map[string]any{"jobs": ids})
	if resp.StatusCode != http.StatusOK {
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		t.Fatalf("merge = %d: %s", resp.StatusCode, body)
	}
	var merged resultDoc
	decodeJSON(t, resp, &merged)
	if merged.Reason != "merged" || merged.Iterations != base.Iterations {
		t.Fatalf("merged doc: %+v", merged)
	}

	cspec, err := base.lower()
	if err != nil {
		t.Fatal(err)
	}
	want, err := campaign.Run(context.Background(), cspec)
	if err != nil {
		t.Fatal(err)
	}
	gotEvents := make([]eventDoc, 0, len(want.Run.Events))
	for _, e := range want.Run.Events {
		gotEvents = append(gotEvents, eventDoc{Group: e.Group, Time: e.Time, Cause: int(e.Cause), LogW: e.LogW})
	}
	if !reflect.DeepEqual(merged.Events, gotEvents) {
		t.Fatal("merged events differ from the unsharded run")
	}
	if merged.GroupsWithDDF != want.GroupsWithDDF || merged.CILo != want.CI.Lo || merged.CIHi != want.CI.Hi {
		t.Fatalf("merged summary differs: %+v", merged)
	}

	// The whole campaign is now served from the merged cache entry.
	resp = postJSON(t, ts.URL+"/v1/jobs", base)
	var hit jobDoc
	decodeJSON(t, resp, &hit)
	if resp.StatusCode != http.StatusOK || !hit.Cached || !hit.Merged {
		t.Fatalf("unsharded submit after merge: code=%d doc=%+v", resp.StatusCode, hit)
	}

	// Merging a partial shard set is a 400.
	resp = postJSON(t, ts.URL+"/v1/merge", map[string]any{"jobs": ids[:k-1]})
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("partial merge = %d", resp.StatusCode)
	}
}

// TestHTTPStream reads the SSE progress feed: at least one per-batch data
// frame in the Snapshot JSON schema, then the terminal end event.
func TestHTTPStream(t *testing.T) {
	_, ts := newTestServer(t, Options{MaxConcurrent: 1, Workers: 2})
	spec := JobSpec{Params: fastParams(), Seed: 84, Iterations: 20_000, BatchSize: 500}
	resp := postJSON(t, ts.URL+"/v1/jobs", spec)
	var doc jobDoc
	decodeJSON(t, resp, &doc)

	sresp, err := http.Get(ts.URL + "/v1/jobs/" + doc.ID + "/stream")
	if err != nil {
		t.Fatal(err)
	}
	defer sresp.Body.Close()
	if ct := sresp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("Content-Type = %q", ct)
	}
	body, err := io.ReadAll(sresp.Body) // the stream closes after the end event
	if err != nil {
		t.Fatal(err)
	}
	text := string(body)
	if !strings.Contains(text, "data: {\"iterations\":") {
		t.Fatalf("no snapshot frames in stream:\n%s", text)
	}
	if !strings.Contains(text, "event: end") || !strings.Contains(text, `{"state":"done"}`) {
		t.Fatalf("stream missing terminal end event:\n%s", text)
	}
	// The final data frame carries the campaign's own completion snapshot.
	if !strings.Contains(text, fmt.Sprintf("\"iterations\":%d", spec.Iterations)) {
		t.Fatalf("stream never reported the final iteration count:\n%s", text)
	}

	// Streaming a finished job replays the last snapshot and ends at once.
	sresp, err = http.Get(ts.URL + "/v1/jobs/" + doc.ID + "/stream")
	if err != nil {
		t.Fatal(err)
	}
	body, err = io.ReadAll(sresp.Body)
	sresp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(body), "event: end") {
		t.Fatalf("finished-job stream missing end event:\n%s", body)
	}
}

func TestHTTPHealth(t *testing.T) {
	s, ts := newTestServer(t, Options{MaxConcurrent: 1})
	var h struct {
		Status   string `json:"status"`
		Draining bool   `json:"draining"`
	}
	getJSON(t, ts.URL+"/healthz", http.StatusOK, &h)
	if h.Status != "ok" || h.Draining {
		t.Fatalf("healthz: %+v", h)
	}

	if err := s.Drain(context.Background()); err != nil {
		t.Fatal(err)
	}
	getJSON(t, ts.URL+"/healthz", http.StatusOK, &h)
	if h.Status != "draining" || !h.Draining {
		t.Fatalf("healthz while draining: %+v", h)
	}
	// Submissions are refused with 503 once draining.
	resp := postJSON(t, ts.URL+"/v1/jobs", JobSpec{Params: fastParams(), Seed: 1, Iterations: 100})
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("submit while draining = %d, want 503", resp.StatusCode)
	}
}

// A coupled enclosure topology exercised end-to-end: submitted over HTTP,
// simulated on the event engine, served back with unavailability fields —
// and both the data-loss and unavailability estimates agree with the
// component Markov chains (exact for this all-exponential scenario).
func TestHTTPTopologyJobMatchesComponentChains(t *testing.T) {
	const (
		lambda  = 2e-5 // drive failures, MTBF 50,000 h
		mu      = 5e-3 // drive rebuild, 200 h
		lambdaC = 5e-5 // enclosure failures, MTBF 20,000 h
		muC     = 5e-4 // enclosure repair, 2,000 h — long outages
		horizon = 87600.0
		iters   = 8000
	)
	_, ts := newTestServer(t, Options{MaxConcurrent: 2, Workers: 4})
	spec := JobSpec{
		Params: core.Params{
			GroupSize:    8,
			Redundancy:   1,
			MissionHours: horizon,
			TTOp:         core.WeibullSpec{Scale: 1 / lambda, Shape: 1},
			TTR:          core.WeibullSpec{Scale: 1 / mu, Shape: 1},
			Topology: &core.TopologySpec{Components: []core.ComponentSpec{{
				Name:   "enclosure",
				Drives: []int{0, 1, 2, 3, 4, 5, 6, 7},
				TTOp:   core.WeibullSpec{Scale: 1 / lambdaC, Shape: 1},
				TTR:    core.WeibullSpec{Scale: 1 / muC, Shape: 1},
			}}},
		},
		Seed:       4242,
		Iterations: iters,
	}
	resp := postJSON(t, ts.URL+"/v1/jobs", spec)
	if resp.StatusCode != http.StatusAccepted {
		body, _ := io.ReadAll(resp.Body)
		t.Fatalf("submit = %d: %s", resp.StatusCode, body)
	}
	var doc jobDoc
	decodeJSON(t, resp, &doc)
	waitHTTPDone(t, ts.URL, doc.ID)

	var res resultDoc
	getJSON(t, ts.URL+"/v1/jobs/"+doc.ID+"/result", http.StatusOK, &res)
	if res.Iterations != iters {
		t.Fatalf("result doc: %+v", res)
	}
	if res.UnavailEvents == 0 || res.GroupsWithUnavail == 0 || res.UnavailPer1000 <= 0 {
		t.Fatalf("unavailability fields missing from the wire form: %+v", res)
	}

	// Data loss vs the shared-component chain (rebuilds pause during the
	// outage; exact for exponential rates).
	loss, err := markov.NewSharedComponentChain(7, lambda, mu, lambdaC, muC)
	if err != nil {
		t.Fatal(err)
	}
	wantLoss, err := loss.AbsorptionProbability(markov.SCAllGoodUp, horizon)
	if err != nil {
		t.Fatal(err)
	}
	gotLoss := float64(res.GroupsWithDDF) / float64(res.Iterations)
	if se := math.Sqrt(wantLoss * (1 - wantLoss) / iters); math.Abs(gotLoss-wantLoss) > 4*se {
		t.Errorf("P(loss) = %v, shared-component chain says %v (±%v)", gotLoss, wantLoss, 4*se)
	}

	// Unavailability vs the component path chain: the enclosure covers the
	// whole group, so P(>=1 episode) is its first-outage probability.
	avail, err := markov.NewComponentPathChain(1, lambdaC, muC)
	if err != nil {
		t.Fatal(err)
	}
	wantUn, err := avail.AbsorptionProbability(0, horizon)
	if err != nil {
		t.Fatal(err)
	}
	gotUn := float64(res.GroupsWithUnavail) / float64(res.Iterations)
	if se := math.Sqrt(wantUn * (1 - wantUn) / iters); math.Abs(gotUn-wantUn) > 4*se {
		t.Errorf("P(unavail) = %v, path chain says %v (±%v)", gotUn, wantUn, 4*se)
	}

	// The served events include the onsets with cause 3, and they never
	// leak into the loss counters.
	unavail := 0
	for _, e := range res.Events {
		if e.Cause == 3 {
			unavail++
		}
	}
	if unavail != res.UnavailEvents {
		t.Errorf("wire events carry %d onsets, counter says %d", unavail, res.UnavailEvents)
	}
	if res.TotalDDFs+res.UnavailEvents != len(res.Events) {
		t.Errorf("event counts inconsistent: %d loss + %d unavail != %d events",
			res.TotalDDFs, res.UnavailEvents, len(res.Events))
	}
}

// TestHTTPOversizedBody checks both JSON endpoints refuse a body over the
// 1 MiB cap with 413 instead of buffering it, and still serve a normal
// request afterwards.
func TestHTTPOversizedBody(t *testing.T) {
	_, ts := newTestServer(t, Options{MaxConcurrent: 1, Workers: 1})
	pad := strings.Repeat("a", maxBodyBytes)
	for _, c := range []struct{ path, body string }{
		{"/v1/jobs", `{"params": {"group_size": 8}, "padding": "` + pad + `"}`},
		{"/v1/merge", `{"jobs": ["` + pad + `"]}`},
	} {
		resp, err := http.Post(ts.URL+c.path, "application/json", strings.NewReader(c.body))
		if err != nil {
			t.Fatalf("POST %s: %v", c.path, err)
		}
		var doc map[string]string
		decodeJSON(t, resp, &doc)
		if resp.StatusCode != http.StatusRequestEntityTooLarge {
			t.Errorf("POST %s with a %d-byte body = %d, want 413", c.path, len(c.body), resp.StatusCode)
		}
		if !strings.Contains(doc["error"], "exceeds") {
			t.Errorf("POST %s error %q does not name the limit", c.path, doc["error"])
		}
	}
	// A body just under the cap is decoded normally: an unknown merge job
	// is a 400, not a 413.
	resp := postJSON(t, ts.URL+"/v1/merge", map[string][]string{"jobs": {strings.Repeat("a", maxBodyBytes-64)}})
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("POST /v1/merge just under the cap = %d, want 400", resp.StatusCode)
	}
}

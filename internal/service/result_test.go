package service

import (
	"bufio"
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"strconv"
	"strings"
	"testing"
	"time"

	"raidrel/internal/campaign"
	"raidrel/internal/core"
	"raidrel/internal/sim"
)

// eventDoc is one DDF of the oracle result document.
type eventDoc struct {
	Group int     `json:"g"`
	Time  float64 `json:"t"`
	Cause int     `json:"c"`
	LogW  float64 `json:"lw,omitempty"`
}

// resultDoc is the oracle for the result body: the head followed by a
// copied events slice, encoded by encoding/json. encodeResult must write
// exactly the bytes oracleJSON writes for it. The HTTP tests also decode
// served bodies into it.
type resultDoc struct {
	resultHead
	Events []eventDoc `json:"events"`
}

func oracleDoc(j *Job, res *campaign.Result) resultDoc {
	doc := resultDoc{resultHead: newResultHead(j, res)}
	if run := res.Run; run != nil {
		doc.Events = make([]eventDoc, 0, len(run.Events))
		for _, e := range run.Events {
			doc.Events = append(doc.Events, eventDoc{Group: e.Group, Time: e.Time, Cause: int(e.Cause), LogW: e.LogW})
		}
	}
	return doc
}

// oracleJSON encodes v with a two-space-indent json.Encoder, the way the
// daemon encoded every response body before the direct result encoder.
func oracleJSON(v any) ([]byte, error) {
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetIndent("", "  ")
	err := enc.Encode(v)
	return buf.Bytes(), err
}

// getBody fetches url, checks the status and the Content-Length header,
// and returns the raw body.
func getBody(t *testing.T, method, url string, reqBody any, wantCode int) []byte {
	t.Helper()
	var resp *http.Response
	var err error
	if method == http.MethodPost {
		resp = postJSON(t, url, reqBody)
	} else if resp, err = http.Get(url); err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != wantCode {
		t.Fatalf("%s %s = %d, want %d: %s", method, url, resp.StatusCode, wantCode, body)
	}
	if got := resp.Header.Get("Content-Length"); got != strconv.Itoa(len(body)) {
		t.Fatalf("%s %s: Content-Length %q for a %d-byte body", method, url, got, len(body))
	}
	return body
}

// readDigests reads a "name sha256" file into a map.
func readDigests(t *testing.T, path string) map[string]string {
	t.Helper()
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	out := make(map[string]string)
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		name, digest, ok := strings.Cut(line, " ")
		if !ok {
			t.Fatalf("%s: malformed line %q", path, line)
		}
		out[name] = strings.TrimSpace(digest)
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return out
}

// TestResultBodyGolden serves one fixed job per result-body shape over
// HTTP and checks each body, result GETs and the merge response alike,
// against the encoding/json oracle byte for byte. With the wall-clock
// elapsed_s fixed, each body's SHA-256 is pinned in
// testdata/result_bodies.txt.
func TestResultBodyGolden(t *testing.T) {
	s, ts := newTestServer(t, Options{MaxConcurrent: 2, Workers: 2})

	cond := core.BaseCase()
	cond.VR = sim.VR{Antithetic: true, Stratify: true, CondVariate: true}
	biased := core.Params{
		GroupSize:          8,
		Redundancy:         1,
		MissionHours:       8760,
		TTOp:               core.WeibullSpec{Scale: 500000, Shape: 1},
		TTR:                core.WeibullSpec{Scale: 100, Shape: 1},
		ExponentialOp:      true,
		ExponentialRestore: true,
		Bias:               sim.Bias{Op: 8},
	}
	topo := core.Params{
		GroupSize:    8,
		Redundancy:   1,
		MissionHours: 87600,
		TTOp:         core.WeibullSpec{Scale: 50000, Shape: 1},
		TTR:          core.WeibullSpec{Scale: 200, Shape: 1},
		Topology: &core.TopologySpec{Components: []core.ComponentSpec{{
			Name:   "enclosure",
			Drives: []int{0, 1, 2, 3, 4, 5, 6, 7},
			TTOp:   core.WeibullSpec{Scale: 20000, Shape: 1},
			TTR:    core.WeibullSpec{Scale: 2000, Shape: 1},
		}}},
	}
	quiet := fastParams()
	quiet.TTOp.Scale = 1e12

	kinds := []struct {
		name  string
		spec  JobSpec
		check func(*campaign.Result) bool
	}{
		{"plain", JobSpec{Params: fastParams(), Seed: 81, Iterations: 2000},
			func(r *campaign.Result) bool { return len(r.Run.Events) > 0 }},
		{"biased", JobSpec{Params: biased, Seed: 5, Iterations: 4096},
			func(r *campaign.Result) bool { return len(r.Run.Events) > 0 && r.Run.Events[0].LogW != 0 }},
		{"cond-vr", JobSpec{Params: cond, Seed: 7, Iterations: 8192, BatchSize: 2048},
			func(r *campaign.Result) bool { return len(r.Run.Events) > 0 && r.VRByVariate != nil }},
		{"fleet", JobSpec{Params: fleetParams(), Seed: 7, Iterations: 1600},
			func(r *campaign.Result) bool { return r.Run.Fleet != nil }},
		{"topology", JobSpec{Params: topo, Seed: 4242, Iterations: 2000},
			func(r *campaign.Result) bool { return r.Run.UnavailEvents > 0 }},
		{"zero-events", JobSpec{Params: quiet, Seed: 1, Iterations: 256},
			func(r *campaign.Result) bool { return r.Run != nil && len(r.Run.Events) == 0 }},
	}
	type served struct {
		name string
		job  *Job
		body []byte
	}
	var bodies []served
	for _, k := range kinds {
		j, _, err := s.Submit(k.spec)
		if err != nil {
			t.Fatalf("%s: %v", k.name, err)
		}
		waitDone(t, j)
		res, err := j.Result()
		if err != nil || j.State() != JobDone {
			t.Fatalf("%s: job ended %s: %v", k.name, j.State(), err)
		}
		if !k.check(res) {
			t.Fatalf("%s: the result lacks the shape it stands for", k.name)
		}
		body := getBody(t, http.MethodGet, ts.URL+"/v1/jobs/"+j.ID+"/result", nil, http.StatusOK)
		bodies = append(bodies, served{k.name, j, body})
	}

	shards := JobSpec{Params: fastParams(), Seed: 71, Iterations: 3000}
	var ids []string
	for i := 0; i < 3; i++ {
		js := shards
		js.Shard = &Shard{Index: i, Count: 3}
		j, _, err := s.Submit(js)
		if err != nil {
			t.Fatal(err)
		}
		waitDone(t, j)
		ids = append(ids, j.ID)
	}
	body := getBody(t, http.MethodPost, ts.URL+"/v1/merge", mergeRequest{Jobs: ids}, http.StatusOK)
	var head resultHead
	if err := json.Unmarshal(body, &head); err != nil {
		t.Fatal(err)
	}
	merged, ok := s.Job(head.ID)
	if !ok || !merged.Merged {
		t.Fatalf("merge answered job %q, not a merged job", head.ID)
	}
	bodies = append(bodies, served{"merged", merged, body})

	for _, b := range bodies {
		res, _ := b.job.Result()
		want, err := oracleJSON(oracleDoc(b.job, res))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(b.body, want) {
			t.Errorf("%s: served body differs from the encoding/json oracle\ngot:\n%s\nwant:\n%s", b.name, b.body, want)
		}
	}

	// A result without a run (never produced by a finished campaign, but
	// the encoder's null branch) and every served result with its
	// wall-clock field fixed, which makes the bodies reproducible.
	type result struct {
		name string
		job  *Job
		res  *campaign.Result
	}
	pinned := []result{{"no-run", &Job{ID: "j000000", Fingerprint: "0000000000000000"}, &campaign.Result{RelErr: math.Inf(1)}}}
	for _, b := range bodies {
		res, _ := b.job.Result()
		fixed := *res
		fixed.Elapsed = 1500 * time.Millisecond
		pinned = append(pinned, result{b.name, b.job, &fixed})
	}
	digests := readDigests(t, "testdata/result_bodies.txt")
	for _, p := range pinned {
		got, err := encodeResult(p.job, p.res)
		if err != nil {
			t.Fatalf("%s: %v", p.name, err)
		}
		want, err := oracleJSON(oracleDoc(p.job, p.res))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Errorf("%s: encoded body differs from the encoding/json oracle\ngot:\n%s\nwant:\n%s", p.name, got, want)
		}
		sum := sha256.Sum256(got)
		if d := hex.EncodeToString(sum[:]); digests[p.name] != d {
			t.Errorf("%s: body digest changed; if intended: %s %s", p.name, p.name, d)
		}
	}
}

// TestWriteJSONUnencodable: a value with no JSON form answers 500 with a
// whole error body, never a cut-off 200; an encodable one keeps the
// encoder's bytes.
func TestWriteJSONUnencodable(t *testing.T) {
	check := func(rec *httptest.ResponseRecorder, wantCode int) {
		t.Helper()
		if rec.Code != wantCode {
			t.Fatalf("status %d, want %d: %s", rec.Code, wantCode, rec.Body)
		}
		if got := rec.Header().Get("Content-Length"); got != strconv.Itoa(rec.Body.Len()) {
			t.Fatalf("Content-Length %q for a %d-byte body", got, rec.Body.Len())
		}
	}
	rec := httptest.NewRecorder()
	writeJSON(rec, http.StatusOK, map[string]float64{"p": math.NaN()})
	check(rec, http.StatusInternalServerError)
	var e map[string]string
	if err := json.Unmarshal(rec.Body.Bytes(), &e); err != nil || e["error"] == "" {
		t.Fatalf("500 body %q is not an error document: %v", rec.Body, err)
	}

	rec = httptest.NewRecorder()
	doc := jobDoc{ID: "j000001", State: JobDone, Fingerprint: "<a&b>", Cached: true}
	writeJSON(rec, http.StatusAccepted, doc)
	check(rec, http.StatusAccepted)
	if want, _ := oracleJSON(doc); !bytes.Equal(rec.Body.Bytes(), want) {
		t.Fatalf("body %q, want the encoder's %q", rec.Body, want)
	}

	rec = httptest.NewRecorder()
	run := &sim.SparseResult{Events: []sim.GroupEvent{{Group: 3, DDF: sim.DDF{Time: math.Inf(1), Cause: sim.CauseOpOp}}}}
	writeResult(rec, &Job{ID: "j000002"}, &campaign.Result{Run: run, RelErr: math.Inf(1)})
	check(rec, http.StatusInternalServerError)
}

// FuzzResultEvents checks the result body's events array, appended
// directly from arbitrary (group, time, cause, log weight) tuples,
// against encoding/json's indented encoding of the copied eventDocs: the
// same bytes, and an error exactly when the oracle has one (NaN, ±Inf).
// Each input is two tuples, checked as arrays of zero, one and two events.
func FuzzResultEvents(f *testing.F) {
	f.Add(0, 1234.5678, 1, 0.0, 7, 87600.0, 2, 0.0)
	f.Add(12, 5e-324, 1, -2.5, 12, 1e-7, 2, -2.5)
	f.Add(-1, 1e21, 3, 1e-300, math.MaxInt64, 9.999999e-7, -4, -1e21)
	f.Add(3, math.Copysign(0, -1), 1, math.Copysign(0, -1), 4, 123456789012345678901234.0, 2, 2.2250738585072014e-308)
	f.Add(5, math.NaN(), 1, 0.0, 6, 1.0, 1, math.Inf(-1))
	f.Fuzz(func(t *testing.T, g1 int, t1 float64, c1 int, lw1 float64, g2 int, t2 float64, c2 int, lw2 float64) {
		events := []sim.GroupEvent{
			{Group: g1, LogW: lw1, DDF: sim.DDF{Time: t1, Cause: sim.Cause(c1)}},
			{Group: g2, LogW: lw2, DDF: sim.DDF{Time: t2, Cause: sim.Cause(c2)}},
		}
		for n := 0; n <= len(events); n++ {
			docs := make([]eventDoc, 0, n)
			for _, e := range events[:n] {
				docs = append(docs, eventDoc{Group: e.Group, Time: e.Time, Cause: int(e.Cause), LogW: e.LogW})
			}
			want, wantErr := oracleJSON(struct {
				Events []eventDoc `json:"events"`
			}{docs})
			arr, err := appendEvents(nil, events[:n])
			if (err != nil) != (wantErr != nil) {
				t.Fatalf("%d events: appender error %v, oracle error %v", n, err, wantErr)
			}
			if err != nil {
				continue
			}
			got := fmt.Appendf(nil, "{\n  \"events\": %s\n}\n", arr)
			if !bytes.Equal(got, want) {
				t.Fatalf("%d events differ from the oracle\ngot:\n%s\nwant:\n%s", n, got, want)
			}
		}
	})
}

package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"
)

// lineBuffer is a goroutine-safe io.Writer the test can poll for the
// daemon's startup line.
type lineBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *lineBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *lineBuffer) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.String()
}

// startDaemon runs the daemon on an ephemeral port and returns its base
// URL, the captured output, and a stop function that simulates SIGTERM
// (cancels the signal context) and waits for run to return.
func startDaemon(t *testing.T, extraArgs ...string) (string, *lineBuffer, func() error) {
	t.Helper()
	ctx, cancel := context.WithCancel(context.Background())
	out := &lineBuffer{}
	errc := make(chan error, 1)
	args := append([]string{"-addr", "127.0.0.1:0"}, extraArgs...)
	go func() { errc <- run(ctx, args, out) }()

	deadline := time.Now().Add(10 * time.Second)
	var addr string
	for addr == "" {
		if time.Now().After(deadline) {
			cancel()
			t.Fatalf("daemon never announced its address; output:\n%s", out.String())
		}
		for _, line := range strings.Split(out.String(), "\n") {
			if rest, ok := strings.CutPrefix(line, "raidreld: listening on "); ok {
				addr = rest
			}
		}
		select {
		case err := <-errc:
			t.Fatalf("daemon exited early: %v; output:\n%s", err, out.String())
		default:
		}
		time.Sleep(2 * time.Millisecond)
	}
	stop := func() error {
		cancel()
		select {
		case err := <-errc:
			return err
		case <-time.After(60 * time.Second):
			return fmt.Errorf("daemon did not exit after shutdown signal")
		}
	}
	return "http://" + addr, out, stop
}

func postSpec(t *testing.T, base string, spec string) map[string]any {
	t.Helper()
	resp, err := http.Post(base+"/v1/jobs", "application/json", strings.NewReader(spec))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var doc map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&doc); err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusAccepted && resp.StatusCode != http.StatusOK {
		t.Fatalf("submit = %d: %v", resp.StatusCode, doc)
	}
	return doc
}

// testSpec is a small fixed-size campaign in the daemon's wire format.
const testSpec = `{
	"params": {
		"group_size": 8, "redundancy": 1, "mission_hours": 87600,
		"tt_op": {"scale": 40000, "shape": 1},
		"ttr": {"scale": 10, "shape": 1}
	},
	"seed": 91, "iterations": 2000
}`

func TestDaemonEndToEnd(t *testing.T) {
	base, out, stop := startDaemon(t)

	var health map[string]any
	getDoc(t, base+"/healthz", &health)
	if health["status"] != "ok" {
		t.Fatalf("healthz: %v", health)
	}

	doc := postSpec(t, base, testSpec)
	id, _ := doc["id"].(string)
	if id == "" {
		t.Fatalf("submit doc: %v", doc)
	}
	deadline := time.Now().Add(30 * time.Second)
	for {
		var st map[string]any
		getDoc(t, base+"/v1/jobs/"+id, &st)
		if st["state"] == "done" {
			break
		}
		if st["state"] == "failed" || st["state"] == "canceled" {
			t.Fatalf("job ended %v: %v", st["state"], st["error"])
		}
		if time.Now().After(deadline) {
			t.Fatalf("job stuck: %v", st)
		}
		time.Sleep(5 * time.Millisecond)
	}
	var res map[string]any
	getDoc(t, base+"/v1/jobs/"+id+"/result", &res)
	if res["iterations"] != float64(2000) {
		t.Fatalf("result: %v", res)
	}

	// Identical resubmission is a cache hit on the same job.
	again := postSpec(t, base, testSpec)
	if again["id"] != id || again["cached"] != true {
		t.Fatalf("resubmit was not a cache hit: %v", again)
	}

	if err := stop(); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	if text := out.String(); !strings.Contains(text, "drained, all in-flight campaigns checkpointed") {
		t.Fatalf("no drain confirmation in output:\n%s", text)
	}
}

// TestDaemonDrainCheckpoints is the SIGTERM acceptance path through the
// real binary wiring: a termination signal while a campaign is in flight
// leaves a current checkpoint behind, and a restarted daemon resumes the
// resubmitted spec from it.
func TestDaemonDrainCheckpoints(t *testing.T) {
	dir := t.TempDir()
	base, _, stop := startDaemon(t, "-checkpoint-dir", dir, "-max-concurrent", "1")

	bigSpec := strings.Replace(testSpec, `"iterations": 2000`, `"iterations": 200000, "batch": 500`, 1)
	doc := postSpec(t, base, bigSpec)
	id, _ := doc["id"].(string)

	// Wait until the campaign has made progress (first batch reported).
	deadline := time.Now().Add(30 * time.Second)
	for {
		var st map[string]any
		getDoc(t, base+"/v1/jobs/"+id, &st)
		if st["progress"] != nil {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("no progress before drain: %v", st)
		}
		time.Sleep(2 * time.Millisecond)
	}
	if err := stop(); err != nil {
		t.Fatalf("drain: %v", err)
	}

	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var ckpt string
	for _, e := range entries {
		if strings.HasSuffix(e.Name(), ".ckpt.json") {
			ckpt = filepath.Join(dir, e.Name())
		}
	}
	if ckpt == "" {
		t.Fatalf("no checkpoint written by drain; dir: %v", entries)
	}

	// Restart over the same checkpoint dir and resubmit: the job must
	// resume from the checkpoint rather than start over.
	base2, _, stop2 := startDaemon(t, "-checkpoint-dir", dir, "-max-concurrent", "1")
	doc2 := postSpec(t, base2, bigSpec)
	id2, _ := doc2["id"].(string)
	deadline = time.Now().Add(60 * time.Second)
	for {
		var st map[string]any
		getDoc(t, base2+"/v1/jobs/"+id2, &st)
		if st["state"] == "done" {
			break
		}
		if st["state"] == "failed" || st["state"] == "canceled" {
			t.Fatalf("resumed job ended %v: %v", st["state"], st["error"])
		}
		if time.Now().After(deadline) {
			t.Fatalf("resumed job stuck: %v", st)
		}
		time.Sleep(5 * time.Millisecond)
	}
	var res2 map[string]any
	getDoc(t, base2+"/v1/jobs/"+id2+"/result", &res2)
	resumedFrom, _ := res2["resumed_from"].(float64)
	if resumedFrom <= 0 {
		t.Fatalf("restarted daemon did not resume from the checkpoint: %v", res2)
	}
	if res2["iterations"] != float64(200000) {
		t.Fatalf("resumed job iterations: %v", res2["iterations"])
	}
	if err := stop2(); err != nil {
		t.Fatalf("second drain: %v", err)
	}
}

func TestDaemonBadFlags(t *testing.T) {
	var out bytes.Buffer
	if err := run(context.Background(), []string{"-bogus"}, &out); err == nil {
		t.Fatal("bogus flag accepted")
	}
	if err := run(context.Background(), []string{"-addr", "127.0.0.1:0", "-checkpoint-dir", string([]byte{0})}, &out); err == nil {
		t.Fatal("unusable checkpoint dir accepted")
	}
}

func getDoc(t *testing.T, url string, v any) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s = %d", url, resp.StatusCode)
	}
	if err := json.NewDecoder(resp.Body).Decode(v); err != nil {
		t.Fatal(err)
	}
}

// TestServerTimeouts pins the daemon's slow-client bounds: header, request
// and idle timeouts are set, and no write timeout cuts off SSE streams.
func TestServerTimeouts(t *testing.T) {
	srv := newHTTPServer(http.NotFoundHandler())
	if srv.ReadHeaderTimeout <= 0 || srv.ReadTimeout <= 0 || srv.IdleTimeout <= 0 {
		t.Errorf("timeouts header=%v read=%v idle=%v, want all positive", srv.ReadHeaderTimeout, srv.ReadTimeout, srv.IdleTimeout)
	}
	if srv.ReadHeaderTimeout > srv.ReadTimeout {
		t.Errorf("header timeout %v exceeds the whole-request timeout %v", srv.ReadHeaderTimeout, srv.ReadTimeout)
	}
	if srv.WriteTimeout != 0 {
		t.Errorf("WriteTimeout = %v; SSE streams must not be cut off", srv.WriteTimeout)
	}
}

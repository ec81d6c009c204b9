package main

import (
	"bytes"
	"context"
	"encoding/json"
	"testing"
	"time"
)

// TestSmoke runs an untraced and a traced rep of every workload at a tiny
// size, in process, and checks that every result passes its checks and the
// summary line carries every declared metric with its unit.
func TestSmoke(t *testing.T) {
	ctx := context.Background()
	out := t.TempDir()
	o := benchOptions{seed: 1, workloads: workloads(), out: out}
	runs := map[string]*workloadRuns{}
	for i, w := range o.workloads {
		runs[w.name] = &workloadRuns{Samples: map[string][]float64{}, Raw: map[string][]float64{}}
		t.Run(w.name, func(t *testing.T) {
			for _, traced := range []bool{false, true} {
				env := repEnv{spawned: time.Now(), scratch: t.TempDir(), out: out, sz: smokeSizes}
				rr := runRep(ctx, w, repSeed(o.seed, i, 0), traced, env)
				if rr.Failed > 0 {
					t.Errorf("traced %v: %d of %d checks failed: %v", traced, rr.Failed, rr.Attempted, rr.Failures)
				}
				runs[w.name].add(rr, calibRefMs)
			}
		})
		runs[w.name].Layers["trace.overhead_frac"] = 0
	}

	for _, traced := range []bool{false, true} {
		o.trace = traced
		var buf bytes.Buffer
		if code := report(o, runs, nil, &buf); code != 0 {
			t.Errorf("report (traced %v) exited %d:\n%s", traced, code, buf.String())
		}
		lines := bytes.Split(bytes.TrimSpace(buf.Bytes()), []byte("\n"))
		var summary struct {
			Correct   bool                   `json:"correct"`
			Attempted int                    `json:"attempted"`
			Metrics   map[string]metricValue `json:"metrics"`
		}
		if err := json.Unmarshal(lines[len(lines)-1], &summary); err != nil {
			t.Fatalf("summary line: %v", err)
		}
		decls := endToEnd
		if traced {
			decls = perLayer
		}
		for _, w := range o.workloads {
			for _, d := range decls {
				m, ok := summary.Metrics[w.name+"/"+d.Name]
				if !ok || m.Unit != d.Unit {
					t.Errorf("%s/%s: emitted %+v (present %v), want unit %s", w.name, d.Name, m, ok, d.Unit)
				}
			}
		}
		if !summary.Correct || summary.Attempted < 1 {
			t.Errorf("summary correct=%v attempted=%d", summary.Correct, summary.Attempted)
		}
	}
}

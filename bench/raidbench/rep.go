package main

import (
	"context"
	"errors"
	"fmt"
	"runtime/metrics"
	"time"
)

// repResult is everything one rep reports: a child process prints it as
// one JSON line for the parent to aggregate.
type repResult struct {
	Workload  string             `json:"workload"`
	Seed      uint64             `json:"seed"`
	Traced    bool               `json:"traced"`
	Metrics   map[string]float64 `json:"metrics"`
	Layers    map[string]float64 `json:"layers,omitempty"`
	Attempted int                `json:"attempted"`
	Failed    int                `json:"failed"`
	Failures  []string           `json:"failures,omitempty"`
	Estimates []estimate         `json:"estimates,omitempty"`
	// Hits holds every hit latency in ms; a run pools them for its hit
	// percentiles.
	Hits []float64 `json:"hits,omitempty"`
}

// outcome counts one attempted campaign, job or hit, failed when any of
// its checks failed.
func (r *repResult) outcome(what string, errs ...error) {
	r.Attempted++
	if err := errors.Join(errs...); err != nil {
		r.Failed++
		r.Failures = append(r.Failures, fmt.Sprintf("%s: %v", what, err))
	}
}

// fatal records a rep that could not run to the end.
func (r *repResult) fatal(err error) repResult {
	r.outcome("rep", err)
	return *r
}

// repEnv is where and how big a rep runs.
type repEnv struct {
	// spawned is when the parent started this process, the zero point of
	// setup_s.
	spawned time.Time
	// scratch holds the rep's checkpoints; out receives trace-*.json.
	scratch, out string
	sz           sizes
}

// runRep runs one rep of w in this process.
func runRep(ctx context.Context, w workload, seed uint64, traced bool, env repEnv) repResult {
	rr := repResult{Workload: w.name, Seed: seed, Traced: traced, Metrics: map[string]float64{}}
	var tr *tracer
	if traced {
		tr = newTracer(w.name)
		rr.Layers = map[string]float64{}
	}
	var err error
	if w.daemon {
		err = daemonRep(ctx, &rr, w, seed, tr, env)
	} else {
		err = campaignRep(ctx, &rr, w, seed, tr, env)
	}
	if err != nil {
		return rr.fatal(err)
	}
	if traced {
		if err := tr.write(env.out, rr.Layers); err != nil {
			return rr.fatal(err)
		}
	}
	return rr
}

// liveHeapBytes reads the live heap after the most recent GC.
func liveHeapBytes() uint64 {
	s := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
	metrics.Read(s)
	if s[0].Value.Kind() != metrics.KindUint64 {
		return 0
	}
	return s[0].Value.Uint64()
}

func ms(d time.Duration) float64 { return float64(d) / 1e6 }

// repSeed derives the campaign seed of rep k of workload index w from the
// benchmark seed (SplitMix64 finalizer), so reps and workloads draw
// independent inputs and the same seed always gives the same inputs.
func repSeed(seed uint64, w, k int) uint64 {
	z := seed ^ uint64(w)<<48 ^ uint64(k)
	z += 0x9e3779b97f4a7c15
	z = (z ^ z>>30) * 0xbf58476d1ce4e5b9
	z = (z ^ z>>27) * 0x94d049bb133111eb
	return z ^ z>>31
}

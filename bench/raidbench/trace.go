package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"
)

// span is one timed call into a layer, recorded from outside the program.
// Start and End are nanoseconds since the tracer's epoch; Parent is 0 for
// a root span. Counts measured at the same boundary ride along as Attrs.
type span struct {
	ID     int                `json:"id"`
	Parent int                `json:"parent"`
	Name   string             `json:"name"`
	Start  int64              `json:"start_ns"`
	End    int64              `json:"end_ns"`
	SelfNS int64              `json:"self_ns"`
	Attrs  map[string]float64 `json:"attrs,omitempty"`
}

// attrs are span attributes.
type attrs map[string]float64

// tracer keeps one workload's spans in memory. A nil *tracer records
// nothing, so untraced reps pass nil through the same code.
type tracer struct {
	id    string
	epoch time.Time

	mu    sync.Mutex
	spans []span
}

func newTracer(id string) *tracer { return &tracer{id: id, epoch: time.Now()} }

// add records a span timed by the caller and returns its ID.
func (t *tracer) add(parent int, name string, start, end time.Time, a attrs) int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{
		ID: id, Parent: parent, Name: name,
		Start: start.Sub(t.epoch).Nanoseconds(),
		End:   end.Sub(t.epoch).Nanoseconds(),
		Attrs: a,
	})
	return id
}

// begin opens a span ending at the matching finish call.
func (t *tracer) begin(parent int, name string) int {
	now := time.Now()
	return t.add(parent, name, now, now, nil)
}

// finish closes a span opened by begin and merges in attributes.
func (t *tracer) finish(id int, a attrs) {
	if t == nil || id == 0 {
		return
	}
	end := time.Since(t.epoch).Nanoseconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	s := &t.spans[id-1]
	s.End = end
	if len(a) > 0 && s.Attrs == nil {
		s.Attrs = attrs{}
	}
	for k, v := range a {
		s.Attrs[k] = v
	}
}

// timed runs f inside a span.
func (t *tracer) timed(parent int, name string, f func()) {
	id := t.begin(parent, name)
	f()
	t.finish(id, nil)
}

// named returns the spans with the given name, in recording order.
func (t *tracer) named(name string) []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	var out []span
	for _, s := range t.spans {
		if s.Name == name {
			out = append(out, s)
		}
	}
	return out
}

// seconds returns the durations of the named spans in seconds.
func (t *tracer) seconds(name string) []float64 {
	var out []float64
	for _, s := range t.named(name) {
		out = append(out, float64(s.End-s.Start)/1e9)
	}
	return out
}

// total sums the durations of the named spans in seconds.
func (t *tracer) total(name string) float64 {
	sum := 0.0
	for _, d := range t.seconds(name) {
		sum += d
	}
	return sum
}

// attrSum sums one attribute over the named spans.
func (t *tracer) attrSum(name, key string) float64 {
	sum := 0.0
	for _, s := range t.named(name) {
		sum += s.Attrs[key]
	}
	return sum
}

// selfTimes returns each span's self time: its duration minus the part of
// its interval covered by the union of its children's intervals.
func selfTimes(spans []span) map[int]int64 {
	children := make(map[int][]span)
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	out := make(map[int]int64, len(spans))
	for _, s := range spans {
		kids := children[s.ID]
		sort.Slice(kids, func(i, j int) bool { return kids[i].Start < kids[j].Start })
		covered := int64(0)
		cur, curEnd := int64(-1), int64(-1)
		for _, k := range kids {
			lo, hi := max(k.Start, s.Start), min(k.End, s.End)
			if hi <= lo {
				continue
			}
			if lo > curEnd {
				covered += curEnd - cur
				cur, curEnd = lo, hi
			} else if hi > curEnd {
				curEnd = hi
			}
		}
		covered += curEnd - cur
		out[s.ID] = s.End - s.Start - covered
	}
	return out
}

// write stores the spans, with self times, and the rep's layer metrics as
// dir/trace-<id>.json.
func (t *tracer) write(dir string, layers map[string]float64) error {
	t.mu.Lock()
	spans := append([]span(nil), t.spans...)
	t.mu.Unlock()
	self := selfTimes(spans)
	for i := range spans {
		spans[i].SelfNS = self[spans[i].ID]
	}
	doc := struct {
		TraceID string             `json:"trace_id"`
		Epoch   time.Time          `json:"epoch"`
		Spans   []span             `json:"spans"`
		Layers  map[string]float64 `json:"layers"`
	}{t.id, t.epoch, spans, layers}
	data, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		return err
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, "trace-"+t.id+".json"), data, 0o644)
}

package main

import (
	"context"
	"testing"
)

func TestSelfTimesOverlappingChildren(t *testing.T) {
	spans := []span{
		{ID: 1, Name: "root", Start: 0, End: 100},
		// Children [10,40] and [30,60] overlap: together they cover 50.
		{ID: 2, Parent: 1, Name: "a", Start: 10, End: 40},
		{ID: 3, Parent: 1, Name: "b", Start: 30, End: 60},
		// Nested inside a: covered already, must not count twice.
		{ID: 4, Parent: 1, Name: "c", Start: 35, End: 38},
		// Sticks out past the parent: only [90,100] is covered.
		{ID: 5, Parent: 1, Name: "d", Start: 90, End: 120},
		// A grandchild reduces b's self time, not root's.
		{ID: 6, Parent: 3, Name: "e", Start: 30, End: 50},
	}
	got := selfTimes(spans)
	want := map[int]int64{1: 100 - 50 - 10, 2: 30, 3: 10, 4: 3, 5: 30, 6: 20}
	for id, w := range want {
		if got[id] != w {
			t.Errorf("span %d self time %d, want %d", id, got[id], w)
		}
	}
}

func TestTracerNilIsInert(t *testing.T) {
	var tr *tracer
	id := tr.begin(0, "x")
	tr.finish(id, attrs{"n": 1})
	tr.timed(id, "y", func() {})
	if id != 0 {
		t.Errorf("nil tracer returned span %d", id)
	}
}

// The traced replay re-runs the campaign batch by batch through a timed
// collector; its final summary must equal the campaign's own result bit
// for bit, which needs the collector to forward the VR block tallies.
func TestReplayReproducesCampaign(t *testing.T) {
	for _, c := range []struct {
		name   string
		target float64
		batch  int
	}{
		{"cond-scrub", 0.02, 1024},
		{"rare-bias", 0.1, 2048},
	} {
		t.Run(c.name, func(t *testing.T) {
			w, _ := workloadByName(c.name)
			spec := w.camp
			spec.target, spec.batch = c.target, c.batch
			cr, err := runCampaign(context.Background(), spec, 11, "", false)
			if err != nil {
				t.Fatal(err)
			}
			want := cr.res.Campaign
			if want.Batches < 3 {
				t.Fatalf("campaign ran %d batches; the replay is not exercised", want.Batches)
			}
			bounds := make([]int, len(cr.frames))
			for i, f := range cr.frames {
				bounds[i] = f.iterations
			}
			tr := newTracer(c.name)
			got, err := replay(tr, 0, cr.model, 11, spec, bounds)
			if err != nil {
				t.Fatal(err)
			}
			if err := sameSummary(got, want); err != nil {
				t.Error(err)
			}
			if w.camp.params.VR.Enabled() && !(got.VRFactor > 0) {
				t.Error("replayed VR campaign reports no VR factor")
			}
			if w.camp.params.Bias.Enabled() && !(got.ESS > 0) {
				t.Error("replayed biased campaign reports no ESS")
			}
			if n := len(tr.named("replay.batch")); n != want.Batches {
				t.Errorf("replay recorded %d batch spans, want %d", n, want.Batches)
			}
		})
	}
}

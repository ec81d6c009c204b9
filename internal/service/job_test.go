package service

import (
	"bytes"
	"encoding/json"
	"net/http/httptest"
	"testing"
)

// TestShardRangeOverflow: shard boundaries of campaigns whose Index·N
// exceeds the int range must still be exact, and a spec that validates
// must run exactly its slice. The products used to wrap, so these specs
// validated with ranges far from their true slices (the second one
// negative).
func TestShardRangeOverflow(t *testing.T) {
	for _, tc := range []struct {
		n, index, count int
		start, end      int
	}{
		{4239093734707132571, 18, 62, 1230704632656909456, 1299077112248959981},
		{4e9, 3e9, 4e9, 3e9, 3e9 + 1},
	} {
		sh := Shard{Index: tc.index, Count: tc.count}
		if start, end := sh.Range(tc.n); start != tc.start || end != tc.end {
			t.Errorf("shard %d/%d of %d: range [%d, %d), want [%d, %d)", tc.index, tc.count, tc.n, start, end, tc.start, tc.end)
		}
		js := JobSpec{Params: fastParams(), Seed: 1, Iterations: tc.n, Shard: &sh}
		if err := js.Validate(); err != nil {
			continue // rejecting such a spec is fine; running a wrong slice is not
		}
		spec, err := js.campaignSpec()
		if err != nil {
			t.Fatal(err)
		}
		if spec.Offset != tc.start || spec.MaxIterations != tc.end-tc.start {
			t.Errorf("shard %d/%d of %d: campaign offset %d, %d iterations; want %d, %d",
				tc.index, tc.count, tc.n, spec.Offset, spec.MaxIterations, tc.start, tc.end-tc.start)
		}
	}
}

// FuzzJobSpec feeds arbitrary bytes through the daemon's request decoder
// (decodeBody: unknown fields are an error) and JobSpec.Validate. Whatever
// validates must be runnable: a sharded spec's slice lies inside the
// campaign, 0 <= start < end <= Iterations, and the cache key derives
// without error.
func FuzzJobSpec(f *testing.F) {
	add := func(js JobSpec) {
		data, err := json.Marshal(js)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data)
	}
	add(JobSpec{Params: fastParams(), Seed: 1, Iterations: 1000})
	add(JobSpec{Params: fastParams(), Seed: 1, Iterations: 1000, Shard: &Shard{Index: 1, Count: 3}})
	add(JobSpec{Params: fastParams(), Seed: 1, Iterations: 4239093734707132571, Shard: &Shard{Index: 18, Count: 62}})
	add(JobSpec{Params: fastParams(), Seed: 1, Iterations: 4e9, Shard: &Shard{Index: 3e9, Count: 4e9}})
	add(JobSpec{Params: fastParams(), Seed: 1, TargetRelErr: 0.05, BatchSize: 500})
	add(JobSpec{Params: fastParams(), Seed: 1, Iterations: 2, Shard: &Shard{Index: 1, Count: 5}})
	f.Add([]byte(`{"iterations":10,"shard":{"index":-1,"count":2}}`))
	f.Add([]byte(`{"iterations":10,"bogus":1}`))
	f.Add([]byte(`{not json`))

	f.Fuzz(func(t *testing.T, data []byte) {
		var js JobSpec
		w := httptest.NewRecorder()
		if !decodeBody(w, httptest.NewRequest("POST", "/v1/jobs", bytes.NewReader(data)), &js, "job spec") {
			return
		}
		if js.Validate() != nil {
			return
		}
		if s := js.Shard; s != nil {
			if start, end := s.Range(js.Iterations); !(0 <= start && start < end && end <= js.Iterations) {
				t.Fatalf("valid shard %d/%d of %d has range [%d, %d)", s.Index, s.Count, js.Iterations, start, end)
			}
		}
		if _, err := js.CacheKey(); err != nil {
			t.Fatalf("valid spec has no cache key: %v", err)
		}
	})
}

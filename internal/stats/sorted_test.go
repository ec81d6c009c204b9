package stats

import (
	"math"
	"slices"
	"testing"

	"raidrel/internal/rng"
)

// randomWeight draws a nonnegative weight from a mix built to stress
// float summation order: exact zeros, subnormals, repeated values (ties),
// and normals spread over many orders of magnitude.
func randomWeight(r *rng.RNG) float64 {
	switch r.Intn(6) {
	case 0:
		return 0
	case 1:
		return math.SmallestNonzeroFloat64 * float64(1+r.Intn(1000))
	case 2:
		return []float64{1, 0.5, 1e-3, 3}[r.Intn(4)]
	default:
		return math.Exp(-40 * r.Float64() * r.Float64())
	}
}

// TestMergeSortedMatchesSortThenSum is the property behind the campaign's
// incremental weighted interval: folding chunks into a sorted slice with
// MergeSorted yields exactly the sorted concatenation, so its sorted-order
// sum — and NormalMeanCISorted over it — equal sort-then-sum
// (NormalMeanCISparse) over all the values, bit for bit.
func TestMergeSortedMatchesSortThenSum(t *testing.T) {
	r := rng.New(16)
	for trial := 0; trial < 300; trial++ {
		var sorted, all []float64
		chunks := 1 + r.Intn(12)
		for c := 0; c < chunks; c++ {
			chunk := make([]float64, r.Intn(40))
			for i := range chunk {
				chunk[i] = randomWeight(r)
			}
			all = append(all, chunk...)
			slices.Sort(chunk)
			sorted = MergeSorted(sorted, chunk)
		}
		want := slices.Clone(all)
		slices.Sort(want)
		if !slices.Equal(sorted, want) {
			t.Fatalf("trial %d: merged %v, want sorted %v", trial, sorted, want)
		}
		var got, ref float64
		for i := range sorted {
			got += sorted[i]
			ref += want[i]
		}
		if math.Float64bits(got) != math.Float64bits(ref) {
			t.Fatalf("trial %d: merged sum %v != sort-then-sum %v", trial, got, ref)
		}
		n := len(all) + 1 + r.Intn(100)
		ciMerged, err := NormalMeanCISorted(sorted, n, 0.95)
		if err != nil {
			t.Fatal(err)
		}
		ciSparse, err := NormalMeanCISparse(all, n, 0.95)
		if err != nil {
			t.Fatal(err)
		}
		if ciMerged != ciSparse {
			t.Fatalf("trial %d: merged CI %+v != sort-then-sum CI %+v", trial, ciMerged, ciSparse)
		}
	}
}

// TestCheckWeight pins the weight validation shared by WeightedBernoulliCI
// and incremental callers: NaN, ±Inf and negative weights are rejected,
// zero, subnormal and ordinary weights accepted.
func TestCheckWeight(t *testing.T) {
	for _, w := range []float64{math.NaN(), math.Inf(1), math.Inf(-1), -1, -math.SmallestNonzeroFloat64} {
		if CheckWeight(w) == nil {
			t.Errorf("CheckWeight(%v) accepted an invalid weight", w)
		}
		if _, err := WeightedBernoulliCI([]float64{1, w}, 10, 0.95); err == nil {
			t.Errorf("WeightedBernoulliCI accepted invalid weight %v", w)
		}
	}
	for _, w := range []float64{0, math.SmallestNonzeroFloat64, 1e-300, 1, 1e300} {
		if err := CheckWeight(w); err != nil {
			t.Errorf("CheckWeight(%v) = %v", w, err)
		}
	}
}

package rng

import (
	"math"
	"testing"
	"testing/quick"
)

// xoshiro256** reference vector: state seeded with s[0..3] = 1,2,3,4 must
// produce these first outputs (from the reference C implementation).
func TestXoshiroReferenceVector(t *testing.T) {
	r := &RNG{s: [4]uint64{1, 2, 3, 4}}
	want := []uint64{
		11520, 0, 1509978240,
		1215971899390074240, 1216172134540287360, 607988272756665600,
		16172922978634559625, 8476171486693032832, 10595114339597558777,
	}
	for i, w := range want {
		if got := r.Uint64(); got != w {
			t.Fatalf("output %d: got %d, want %d", i, got, w)
		}
	}
}

func TestNewDeterministic(t *testing.T) {
	a, b := New(42), New(42)
	for i := 0; i < 1000; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatalf("same seed diverged at draw %d", i)
		}
	}
	c := New(43)
	same := 0
	a.Reseed(42)
	for i := 0; i < 1000; i++ {
		if a.Uint64() == c.Uint64() {
			same++
		}
	}
	if same > 2 {
		t.Fatalf("different seeds agreed on %d of 1000 draws", same)
	}
}

func TestReseedMatchesNew(t *testing.T) {
	a := New(7)
	for i := 0; i < 17; i++ {
		a.Uint64()
	}
	a.NormFloat64() // may set the cached spare
	a.Reseed(99)
	b := New(99)
	for i := 0; i < 100; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatalf("Reseed state differs from New at draw %d", i)
		}
	}
	if a.NormFloat64() != b.NormFloat64() {
		t.Fatal("Reseed did not clear the cached normal spare")
	}
}

func TestFloat64Range(t *testing.T) {
	r := New(1)
	for i := 0; i < 100000; i++ {
		f := r.Float64()
		if f < 0 || f >= 1 {
			t.Fatalf("Float64 out of [0,1): %v", f)
		}
	}
}

func TestFloat64Moments(t *testing.T) {
	r := New(2)
	const n = 200000
	var sum, sumSq float64
	for i := 0; i < n; i++ {
		f := r.Float64()
		sum += f
		sumSq += f * f
	}
	mean := sum / n
	variance := sumSq/n - mean*mean
	if math.Abs(mean-0.5) > 0.005 {
		t.Errorf("uniform mean = %v, want ~0.5", mean)
	}
	if math.Abs(variance-1.0/12) > 0.005 {
		t.Errorf("uniform variance = %v, want ~%v", variance, 1.0/12)
	}
}

func TestExpFloat64Moments(t *testing.T) {
	r := New(3)
	const n = 200000
	var sum, sumSq float64
	for i := 0; i < n; i++ {
		e := r.ExpFloat64()
		if e < 0 {
			t.Fatalf("negative exponential variate %v", e)
		}
		sum += e
		sumSq += e * e
	}
	mean := sum / n
	variance := sumSq/n - mean*mean
	if math.Abs(mean-1) > 0.02 {
		t.Errorf("exp mean = %v, want ~1", mean)
	}
	if math.Abs(variance-1) > 0.05 {
		t.Errorf("exp variance = %v, want ~1", variance)
	}
}

func TestNormFloat64Moments(t *testing.T) {
	r := New(4)
	const n = 200000
	var sum, sumSq, sumCu float64
	for i := 0; i < n; i++ {
		x := r.NormFloat64()
		sum += x
		sumSq += x * x
		sumCu += x * x * x
	}
	mean := sum / n
	variance := sumSq/n - mean*mean
	skew := sumCu / n
	if math.Abs(mean) > 0.01 {
		t.Errorf("normal mean = %v, want ~0", mean)
	}
	if math.Abs(variance-1) > 0.02 {
		t.Errorf("normal variance = %v, want ~1", variance)
	}
	if math.Abs(skew) > 0.05 {
		t.Errorf("normal third moment = %v, want ~0", skew)
	}
}

func TestIntnBounds(t *testing.T) {
	r := New(5)
	for _, n := range []int{1, 2, 3, 7, 100, 1 << 20} {
		seen := make(map[int]bool)
		for i := 0; i < 200; i++ {
			v := r.Intn(n)
			if v < 0 || v >= n {
				t.Fatalf("Intn(%d) = %d out of range", n, v)
			}
			seen[v] = true
		}
		if n <= 3 && len(seen) != n {
			t.Errorf("Intn(%d) produced only %d distinct values in 200 draws", n, len(seen))
		}
	}
}

func TestIntnPanicsOnNonPositive(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Intn(0) did not panic")
		}
	}()
	New(1).Intn(0)
}

func TestIntnUniformity(t *testing.T) {
	r := New(6)
	const n, draws = 10, 100000
	counts := make([]int, n)
	for i := 0; i < draws; i++ {
		counts[r.Intn(n)]++
	}
	// Chi-squared with 9 dof; 99.9th percentile ~ 27.9.
	var chi2 float64
	expected := float64(draws) / n
	for _, c := range counts {
		d := float64(c) - expected
		chi2 += d * d / expected
	}
	if chi2 > 27.9 {
		t.Errorf("chi-squared = %v exceeds 27.9 (counts %v)", chi2, counts)
	}
}

func TestForStreamIndependence(t *testing.T) {
	// Distinct stream indices must give distinct sequences; same index must
	// reproduce exactly.
	a := ForStream(1, 0)
	b := ForStream(1, 1)
	c := ForStream(2, 0)
	again := ForStream(1, 0)
	matchAB, matchAC := 0, 0
	for i := 0; i < 5000; i++ {
		av := a.Uint64()
		if av != again.Uint64() {
			t.Fatal("same (seed, stream) diverged")
		}
		if av == b.Uint64() {
			matchAB++
		}
		if av == c.Uint64() {
			matchAC++
		}
	}
	if matchAB > 2 || matchAC > 2 {
		t.Fatalf("streams correlated: %d, %d matches", matchAB, matchAC)
	}
}

func TestForStreamAdjacentIndices(t *testing.T) {
	// Adjacent iteration indices are the common case; make sure their
	// uniform outputs look independent (no shared prefix).
	prev := ForStream(42, 100)
	next := ForStream(42, 101)
	same := 0
	for i := 0; i < 5000; i++ {
		if prev.Uint64() == next.Uint64() {
			same++
		}
	}
	if same > 2 {
		t.Fatalf("adjacent streams matched %d times", same)
	}
}

func TestMul64Property(t *testing.T) {
	// Cross-check mul64 against math/bits semantics via big-integer-free
	// identity: (a*b) mod 2^64 must equal the lo word.
	f := func(a, b uint64) bool {
		hi, lo := mul64(a, b)
		if lo != a*b {
			return false
		}
		// Verify hi via the schoolbook decomposition with 32-bit halves.
		aLo, aHi := a&0xffffffff, a>>32
		bLo, bHi := b&0xffffffff, b>>32
		carry := ((aLo*bLo)>>32 + (aHi*bLo)&0xffffffff + (aLo*bHi)&0xffffffff) >> 32
		wantHi := aHi*bHi + (aHi*bLo)>>32 + (aLo*bHi)>>32 + carry
		return hi == wantHi
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestFloat64OpenNeverZero(t *testing.T) {
	r := New(17)
	for i := 0; i < 100000; i++ {
		if u := r.Float64Open(); u <= 0 || u >= 1 {
			t.Fatalf("Float64Open returned %v", u)
		}
	}
}

func BenchmarkUint64(b *testing.B) {
	r := New(1)
	var sink uint64
	for i := 0; i < b.N; i++ {
		sink = r.Uint64()
	}
	_ = sink
}

func BenchmarkNormFloat64(b *testing.B) {
	r := New(1)
	var sink float64
	for i := 0; i < b.N; i++ {
		sink = r.NormFloat64()
	}
	_ = sink
}

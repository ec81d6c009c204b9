package rng

import "testing"

// TestUint64sMatchesSequential asserts the batched fill's contract: one
// Uint64s call produces exactly the values (and final generator state) of
// len(dst) sequential Uint64 calls.
func TestUint64sMatchesSequential(t *testing.T) {
	for _, n := range []int{0, 1, 2, 63, 64, 1000} {
		batch, seq := New(123), New(123)
		dst := make([]uint64, n)
		batch.Uint64s(dst)
		for i, got := range dst {
			if want := seq.Uint64(); got != want {
				t.Fatalf("n=%d: Uint64s[%d] = %#x, sequential Uint64 = %#x", n, i, got, want)
			}
		}
		if batch.s != seq.s {
			t.Fatalf("n=%d: generator states diverge after batch fill", n)
		}
	}
}

// TestUint64sAliasedState guards the state-hoisting optimization inside
// Uint64s: the loop keeps the xoshiro words in locals and writes them back
// once, which must stay correct for any destination slice.
func TestUint64sAliasedState(t *testing.T) {
	r := New(7)
	want := New(7)
	var wantVals [8]uint64
	for i := range wantVals {
		wantVals[i] = want.Uint64()
	}
	var dst [8]uint64
	r.Uint64s(dst[:4])
	r.Uint64s(dst[4:])
	if dst != wantVals {
		t.Fatalf("split batch fills: got %v, want %v", dst, wantVals)
	}
}

// TestAntitheticComplement pins the antithetic mode's contract: the same
// seed with antithetic on yields the bitwise complement of every output
// word — so each derived uniform u' = (2^53-1-u53)/2^53 ~ 1-u — with the
// state advance untouched, and the batched fill agrees with the scalar
// draws in both modes.
func TestAntitheticComplement(t *testing.T) {
	prim, anti := New(99), New(99)
	anti.SetAntithetic(true)
	if !anti.Antithetic() || prim.Antithetic() {
		t.Fatal("antithetic mode flags wrong")
	}
	for i := 0; i < 100; i++ {
		u, v := prim.Uint64(), anti.Uint64()
		if v != ^u {
			t.Fatalf("draw %d: antithetic %#x is not the complement of %#x", i, v, u)
		}
	}
	if prim.s != anti.s {
		t.Fatal("antithetic mode perturbed the state advance")
	}

	// Uniform-layer meaning: u + u' == 1 - 2^-53 exactly for every pair.
	for i := 0; i < 100; i++ {
		sum := prim.Float64() + anti.Float64()
		if sum != 1-0x1p-53 {
			t.Fatalf("pair %d: u+u' = %v, want 1-2^-53", i, sum)
		}
	}

	// The batched fill honours the mask and matches scalar draws.
	batch := New(99)
	batch.SetAntithetic(true)
	var us [16]uint64
	batch.Uint64s(us[:])
	seq := New(99)
	seq.SetAntithetic(true)
	for i, got := range us {
		if want := seq.Uint64(); got != want {
			t.Fatalf("antithetic Uint64s[%d] = %#x, want %#x", i, got, want)
		}
	}

	// SetAntithetic(false) restores the primary stream from the same state.
	anti.SetAntithetic(false)
	if anti.Uint64() != prim.Uint64() {
		t.Fatal("clearing antithetic mode did not restore the primary stream")
	}
}

// BenchmarkUint64s measures the batched fill, with -benchmem so an
// allocation regression is visible alongside the ns/op.
func BenchmarkUint64s(b *testing.B) {
	r := New(1)
	dst := make([]uint64, 1024)
	b.ReportAllocs()
	b.SetBytes(int64(len(dst) * 8))
	for i := 0; i < b.N; i++ {
		r.Uint64s(dst)
	}
}

package stats

import (
	"math"
	"testing"
)

func TestWilsonCIKnownValues(t *testing.T) {
	// Classical check: 10 successes in 100 trials at 95% gives the
	// well-tabulated Wilson interval [0.0552, 0.1744] (e.g. Newcombe 1998).
	iv, err := WilsonCI(10, 100, 0.95)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(iv.Lo-0.0552) > 0.002 || math.Abs(iv.Hi-0.1744) > 0.002 {
		t.Errorf("WilsonCI(10, 100, 0.95) = [%.4f, %.4f], want ~[0.0552, 0.1744]", iv.Lo, iv.Hi)
	}
	if iv.Level != 0.95 {
		t.Errorf("level = %v", iv.Level)
	}
}

func TestWilsonCIZeroSuccesses(t *testing.T) {
	// Rare-event regime: zero observed events must still give a finite,
	// non-degenerate upper bound (the "rule of three" neighbourhood).
	iv, err := WilsonCI(0, 1000, 0.95)
	if err != nil {
		t.Fatal(err)
	}
	if iv.Lo != 0 {
		t.Errorf("lower bound %v, want 0", iv.Lo)
	}
	if iv.Hi <= 0 || iv.Hi > 0.01 {
		t.Errorf("upper bound %v, want small positive (~3.8e-3)", iv.Hi)
	}
}

func TestWilsonCIBounds(t *testing.T) {
	for _, tc := range []struct{ s, n int }{
		{0, 1}, {1, 1}, {1, 2}, {999, 1000}, {1000, 1000},
	} {
		iv, err := WilsonCI(tc.s, tc.n, 0.99)
		if err != nil {
			t.Fatalf("WilsonCI(%d, %d): %v", tc.s, tc.n, err)
		}
		if iv.Lo < 0 || iv.Hi > 1 || iv.Lo > iv.Hi {
			t.Errorf("WilsonCI(%d, %d) = [%v, %v] escapes [0,1]", tc.s, tc.n, iv.Lo, iv.Hi)
		}
		p := float64(tc.s) / float64(tc.n)
		if p < iv.Lo-1e-12 || p > iv.Hi+1e-12 {
			t.Errorf("WilsonCI(%d, %d) = [%v, %v] excludes p̂ = %v", tc.s, tc.n, iv.Lo, iv.Hi, p)
		}
	}
}

func TestWilsonCINarrowsWithN(t *testing.T) {
	prev := math.Inf(1)
	for _, n := range []int{100, 1000, 10000, 100000} {
		iv, err := WilsonCI(n/100, n, 0.95) // p̂ = 0.01 throughout
		if err != nil {
			t.Fatal(err)
		}
		w := iv.Hi - iv.Lo
		if w >= prev {
			t.Errorf("width %v at n=%d did not shrink from %v", w, n, prev)
		}
		prev = w
	}
}

func TestWilsonCIErrors(t *testing.T) {
	if _, err := WilsonCI(1, 0, 0.95); err == nil {
		t.Error("zero trials accepted")
	}
	if _, err := WilsonCI(-1, 10, 0.95); err == nil {
		t.Error("negative successes accepted")
	}
	if _, err := WilsonCI(11, 10, 0.95); err == nil {
		t.Error("successes > trials accepted")
	}
	if _, err := WilsonCI(1, 10, 1.5); err == nil {
		t.Error("level outside (0,1) accepted")
	}
}

func TestRelativeHalfWidth(t *testing.T) {
	iv := Interval{Lo: 0.8, Hi: 1.2}
	if got := iv.RelativeHalfWidth(); math.Abs(got-0.2) > 1e-12 {
		t.Errorf("RelativeHalfWidth = %v, want 0.2", got)
	}
	zero := Interval{Lo: 0, Hi: 0}
	if !math.IsInf(zero.RelativeHalfWidth(), 1) {
		t.Error("degenerate zero interval should have infinite relative half-width")
	}
	// A zero, NaN or infinite half-width around a positive midpoint is a
	// degenerate variance estimate, never a met target.
	nan := math.NaN()
	for _, iv := range []Interval{
		{Lo: 0.122, Hi: 0.122},
		{Lo: nan, Hi: nan},
		{Lo: 0.1, Hi: nan},
		{Lo: 0.1, Hi: math.Inf(1)},
		{Lo: 0.2, Hi: 0.1},
	} {
		if got := iv.RelativeHalfWidth(); !math.IsInf(got, 1) {
			t.Errorf("%+v: RelativeHalfWidth = %v, want +Inf", iv, got)
		}
	}
}

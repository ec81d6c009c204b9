package stats

import (
	"fmt"
	"math"
)

// WilsonCI returns the Wilson score interval for a binomial proportion:
// `successes` out of `trials` at the given confidence level (e.g. 0.95).
// Unlike the normal approximation it never escapes [0, 1] and stays
// informative at zero counts, which makes it the right interval for
// rare-event Monte Carlo — the per-group DDF probability of a campaign is
// often of order 1e-4, where mean ± z·s/√n collapses or goes negative.
func WilsonCI(successes, trials int, level float64) (Interval, error) {
	if trials < 1 {
		return Interval{}, fmt.Errorf("stats: wilson interval needs >= 1 trial, got %d", trials)
	}
	if successes < 0 || successes > trials {
		return Interval{}, fmt.Errorf("stats: %d successes outside [0, %d]", successes, trials)
	}
	if level <= 0 || level >= 1 {
		return Interval{}, fmt.Errorf("stats: confidence level %v outside (0,1)", level)
	}
	z := ZScore(level)
	n := float64(trials)
	p := float64(successes) / n
	z2n := z * z / n
	center := (p + z2n/2) / (1 + z2n)
	half := z / (1 + z2n) * math.Sqrt(p*(1-p)/n+z2n/(4*n))
	lo := center - half
	hi := center + half
	if lo < 0 {
		lo = 0
	}
	if hi > 1 {
		hi = 1
	}
	return Interval{Lo: lo, Hi: hi, Level: level}, nil
}

// RelativeHalfWidth reports the interval's half-width relative to its
// midpoint — the campaign orchestrator's stopping statistic. It returns
// +Inf when the midpoint is not positive (no events observed yet: the
// estimate carries no relative precision at all) and when the half-width
// is not positive and finite: a zero-width interval comes from a
// degenerate variance estimate (say, a line fitted through two block
// means), not from a precise one, so it must never meet a target.
func (iv Interval) RelativeHalfWidth() float64 {
	mid := (iv.Lo + iv.Hi) / 2
	half := (iv.Hi - iv.Lo) / 2
	if !(mid > 0) || !(half > 0) || math.IsInf(half, 1) {
		return math.Inf(1)
	}
	return half / mid
}

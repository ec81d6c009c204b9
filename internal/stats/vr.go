package stats

import (
	"fmt"
	"math"

	"raidrel/internal/dist"
)

// This file holds the estimator side of the simulator's variance-reduction
// stack: the control-variate adjusted interval with its online covariance
// accumulator.

// ZScore returns the two-sided standard-normal critical value for a
// confidence level: the z with P(|N(0,1)| ≤ z) = level. It is the
// multiplier behind every normal-approximation interval in this package,
// exported so diagnostics (e.g. the campaign's variance-reduction factor)
// can reconstruct standard errors from reported half-widths.
func ZScore(level float64) float64 {
	return dist.StdNormalQuantile(0.5 + level/2)
}

// CVAccum accumulates the first and second co-moments of an observation y
// and its control variate z online (Welford form, numerically stable), so
// the optimal control coefficient ĉ = Cov(y,z)/Var(z) can be fitted in one
// pass without retaining the sample.
type CVAccum struct {
	n             int
	meanY, meanZ  float64
	syy, szz, syz float64 // centered co-moment sums Σ(y-ȳ)², Σ(z-z̄)², Σ(y-ȳ)(z-z̄)
}

// Add folds one (y, z) observation into the accumulator.
func (a *CVAccum) Add(y, z float64) {
	a.n++
	dy := y - a.meanY
	dz := z - a.meanZ
	a.meanY += dy / float64(a.n)
	a.meanZ += dz / float64(a.n)
	// Co-moment updates use the pre-update delta of one variable and the
	// post-update delta of the other.
	a.syy += dy * (y - a.meanY)
	a.szz += dz * (z - a.meanZ)
	a.syz += dy * (z - a.meanZ)
}

// N returns the observation count.
func (a *CVAccum) N() int { return a.n }

// MeanY and MeanZ return the running means.
func (a *CVAccum) MeanY() float64 { return a.meanY }
func (a *CVAccum) MeanZ() float64 { return a.meanZ }

// Coeff returns the fitted control coefficient ĉ = Cov(y,z)/Var(z), or 0
// when the control has no sample variance (no adjustment possible).
func (a *CVAccum) Coeff() float64 {
	if !(a.szz > 0) {
		return 0
	}
	return a.syz / a.szz
}

// R2 returns the squared sample correlation r² = Syz²/(Syy·Szz) between the
// observation and its control — the fraction of observation variance the
// control removes. The implied variance-reduction factor of the adjusted
// estimator is 1/(1-r²). Returns 0 when either side has no sample variance.
func (a *CVAccum) R2() float64 {
	if !(a.syy > 0) || !(a.szz > 0) {
		return 0
	}
	r2 := a.syz * a.syz / (a.syy * a.szz)
	if r2 > 1 {
		r2 = 1 // rounding guard
	}
	return r2
}

// Interval returns the normal-approximation confidence interval for E[y]
// from the control-variate adjusted estimator ŷ = ȳ - ĉ·(z̄ - ez), where
// ez is the control's known analytic expectation. The adjusted residual
// variance is s² = (Syy - Syz²/Szz)/(n-1) = Syy·(1-r²)/(n-1) ≤ the
// unadjusted sample variance — algebraically, fitting ĉ from the same
// sample can only shrink the interval, never widen it (at the price of an
// O(1/n) bias in ĉ that vanishes against the 1/√n interval width).
func (a *CVAccum) Interval(ez, level float64) (Interval, error) {
	if a.n < 2 {
		return Interval{}, fmt.Errorf("stats: need >= 2 observations, got %d", a.n)
	}
	if level <= 0 || level >= 1 {
		return Interval{}, fmt.Errorf("stats: confidence level %v outside (0,1)", level)
	}
	c := a.Coeff()
	center := a.meanY - c*(a.meanZ-ez)
	resid := a.syy
	if a.szz > 0 {
		resid = a.syy - a.syz*a.syz/a.szz
		if resid < 0 {
			resid = 0 // rounding guard; exact math keeps it non-negative
		}
	}
	n := float64(a.n)
	s := math.Sqrt(resid / (n - 1))
	z := ZScore(level)
	half := z * s / math.Sqrt(n)
	return Interval{Lo: center - half, Hi: center + half, Level: level}, nil
}

// ControlVariateCI computes the control-variate adjusted confidence
// interval for E[y] given paired observations ys, their controls zs, and
// the control's analytic expectation ez. It returns the interval and the
// fitted coefficient. The one-pass accumulator form is CVAccum.
func ControlVariateCI(ys, zs []float64, ez, level float64) (Interval, float64, error) {
	if len(ys) != len(zs) {
		return Interval{}, 0, fmt.Errorf("stats: control sample of unequal length (%d vs %d)", len(ys), len(zs))
	}
	var acc CVAccum
	for i := range ys {
		acc.Add(ys[i], zs[i])
	}
	iv, err := acc.Interval(ez, level)
	return iv, acc.Coeff(), err
}

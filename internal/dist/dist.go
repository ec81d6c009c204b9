// Package dist implements the lifetime distributions used by the RAID
// reliability model: the three-parameter Weibull family the paper fits to
// field data, plus the exponential (the distribution the MTTDL method
// implicitly assumes), the truncated normal of the §6.4 scrub-shape
// ablation, and the mixture and competing-risk constructions behind the
// Figs. 1-2 field populations.
//
// All sampling is by inverse-CDF transform against the package rng
// substrate, so every draw is reproducible from a seed.
package dist

import (
	"math"

	"raidrel/internal/rng"
)

// Distribution is a continuous lifetime distribution on [0, +inf).
//
// Implementations must be immutable after construction so they can be shared
// across concurrent Monte Carlo workers.
type Distribution interface {
	// PDF returns the probability density f(t). Zero outside support.
	PDF(t float64) float64
	// CDF returns P(T <= t).
	CDF(t float64) float64
	// Quantile returns the p-quantile, the inverse of CDF, for p in [0, 1).
	Quantile(p float64) float64
	// Mean returns E[T].
	Mean() float64
	// Variance returns Var[T].
	Variance() float64
	// Sample draws one variate using r.
	Sample(r *rng.RNG) float64
}

// Hazarder is implemented by distributions with a closed-form hazard
// (instantaneous failure) rate h(t) = f(t)/(1-F(t)).
type Hazarder interface {
	Hazard(t float64) float64
}

// Survival returns the survival function 1 - CDF(t) of d, clamped to [0, 1].
func Survival(d Distribution, t float64) float64 {
	s := 1 - d.CDF(t)
	switch {
	case s < 0:
		return 0
	case s > 1:
		return 1
	default:
		return s
	}
}

// Hazard returns the hazard rate of d at t, using the closed form when the
// distribution provides one and f/(1-F) otherwise. Returns +Inf where the
// survival function is zero but the density is not.
func Hazard(d Distribution, t float64) float64 {
	if h, ok := d.(Hazarder); ok {
		return h.Hazard(t)
	}
	s := Survival(d, t)
	f := d.PDF(t)
	if s == 0 {
		if f == 0 {
			return 0
		}
		return math.Inf(1)
	}
	return f / s
}

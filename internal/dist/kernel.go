package dist

import (
	"math"

	"raidrel/internal/rng"
)

// This file implements the sampler-compilation layer. A Kernel is a
// distribution "compiled" once at configuration time: the per-draw
// constants (1/β, the tilt's ln θ, ...) are precomputed and the draw
// routine is selected by a small tag, so the simulation hot loop pays
// neither dynamic dispatch nor a generic math.Pow per variate. The paper's
// base case uses exactly β = 1.12 (TTOp), β = 1 (TTLd), β = 2 (TTR) and
// β = 3 (TTScrub), so almost every draw of a campaign resolves to a plain
// exponential, a Sqrt, or a Cbrt.
//
// Correctness bar: a kernel must consume the RNG in exactly the same order
// as the Distribution it was compiled from and produce bit-identical
// variates. The engines mix kernel draws with interface draws (tracing,
// generic distributions), checkpoints resume mid-campaign from a stream
// index, and the worker-invariance guarantee replays stream i for
// iteration i — one flipped bit in one draw desynchronizes all of them.
// Bit-identity is guaranteed structurally: Kernel.Draw and the family's
// Sample method both evaluate the same weibullICDFExp helper with the same
// precomputed constants, so there is a single source of truth for the
// transform (see weibull.go).

// kernelKind tags the specialized draw routine a Kernel dispatches to.
type kernelKind uint8

const (
	// kindGeneric falls back to the Distribution interface.
	kindGeneric kernelKind = iota
	// kindWeibullExp is Weibull β = 1: γ + η·E, a shifted exponential.
	kindWeibullExp
	// kindWeibullSqrt is Weibull β = 2: γ + η·√E (math.Pow special-cases
	// exponent 0.5 to Sqrt, so this is bit-identical to the generic form).
	kindWeibullSqrt
	// kindWeibullCbrt is Weibull β = 3: γ + η·∛E. math.Cbrt is correctly
	// rounded where math.Pow(E, 1/3) can be several ulp off, so the cube
	// root is both the faster and the more accurate evaluation.
	kindWeibullCbrt
	// kindWeibullPow is the general Weibull: γ + η·E^(1/β) with 1/β cached.
	kindWeibullPow
	// kindExponential is Exponential(λ): E/λ.
	kindExponential
)

// weibullKindFor selects the specialization for a Weibull shape.
func weibullKindFor(shape float64) kernelKind {
	switch shape {
	case 1:
		return kindWeibullExp
	case 2:
		return kindWeibullSqrt
	case 3:
		return kindWeibullCbrt
	default:
		return kindWeibullPow
	}
}

// weibullICDFExp maps a standard exponential variate e (equivalently a
// cumulative hazard) to the Weibull value γ + η·e^(1/β) through the
// kind-selected specialization. Every Weibull sampling path — Sample,
// QuantileFromCumHazard, Kernel.Draw, TiltedKernel.DrawLR — funnels
// through this one function, which is what makes the kernel layer
// bit-identical to the interface layer by construction.
func weibullICDFExp(kind kernelKind, loc, scale, invShape, e float64) float64 {
	switch kind {
	case kindWeibullExp:
		return loc + scale*e
	case kindWeibullSqrt:
		return loc + scale*math.Sqrt(e)
	case kindWeibullCbrt:
		return loc + scale*math.Cbrt(e)
	default:
		return loc + scale*math.Pow(e, invShape)
	}
}

// Kernel is a compiled sampler for one distribution. Compile it once per
// configuration (not per draw); the zero value is not usable. Kernels are
// plain values — copying is cheap and a copy is as good as the original —
// and, like the distributions they compile, safe for concurrent use from
// multiple goroutines each holding its own RNG.
type Kernel struct {
	kind kernelKind
	// Weibull constants (γ, η, β, 1/β); for kindExponential, scale holds
	// the rate λ and the others are unused.
	loc, scale, shape, invShape float64
	// d retains the source distribution for the generic fallback and for
	// closed-form cumulative hazards the specialized kinds don't cover.
	d Distribution
}

// Compile returns the kernel for d. Weibull and Exponential — every
// transition distribution of the paper's model — compile to specialized
// direct code; any other distribution gets a generic kernel that draws
// through the interface, so Compile is total and always safe to use.
func Compile(d Distribution) Kernel {
	switch v := d.(type) {
	case Weibull:
		return Kernel{kind: v.kind, loc: v.loc, scale: v.scale, shape: v.shape, invShape: v.invShape, d: d}
	case Exponential:
		return Kernel{kind: kindExponential, scale: v.rate, d: d}
	default:
		return Kernel{kind: kindGeneric, d: d}
	}
}

// Distribution returns the distribution the kernel was compiled from.
func (k *Kernel) Distribution() Distribution { return k.d }

// Draw returns one variate, bit-identical to k.Distribution().Sample(r)
// (same RNG consumption, same value).
func (k *Kernel) Draw(r *rng.RNG) float64 {
	switch k.kind {
	case kindGeneric:
		return k.d.Sample(r)
	case kindExponential:
		return r.ExpFloat64() / k.scale
	default:
		return weibullICDFExp(k.kind, k.loc, k.scale, k.invShape, r.ExpFloat64())
	}
}

// Compiled reports whether the kernel has a specialized (non-generic) draw
// routine — i.e. whether FromExp and the hazard-domain helpers below are
// available. Weibull and Exponential distributions always compile.
func (k *Kernel) Compiled() bool { return k.kind != kindGeneric }

// FromExp maps a unit-exponential variate e to the kernel's variate,
// bit-identical to what Draw computes from the same e: batch consumers
// pre-fill exponential columns with rng.Uint64s and transform through
// FromExp, reproducing Draw's stream exactly. Panics on a generic kernel
// (no closed-form transform); guard with Compiled.
func (k *Kernel) FromExp(e float64) float64 {
	switch k.kind {
	case kindGeneric:
		panic("dist: FromExp on a generic kernel")
	case kindExponential:
		return e / k.scale
	default:
		return weibullICDFExp(k.kind, k.loc, k.scale, k.invShape, e)
	}
}

// CumHazard returns the base distribution's cumulative hazard H(t) — the
// exported form of cumHazard, bit-identical to CumHazardOf(Distribution(), t).
// Because Draw is exactly the inverse map e ↦ H⁻¹(e), H(x) is the
// exponential-domain image of a threshold x: Draw(e) > x ⟺ e > H(x) in
// exact arithmetic, which is what the block engine's lazy transforms
// compare against.
func (k *Kernel) CumHazard(t float64) float64 { return k.cumHazard(t) }

// Guard bands for the certain hazard-domain comparisons: wide enough to
// absorb every rounding step on both sides of the predicate (the surrogate
// hazard's few ulps, the draw transform's few ulps, and the caller's
// boundary arithmetic), narrow enough that the exact fallback fires with
// probability ~1e-6. See CompareExp for the margin analysis.
const (
	hazardRelBand = 1e-6
	hazardAbsBand = 1e-6
	// hazardHuge caps the banded comparison: beyond it the relative margin
	// arguments thin out, so only a factor-two separation is ruled certain.
	hazardHuge = 1e8
)

// CompareHazard reports how a unit-exponential variate e compares to a
// cumulative-hazard threshold h when the verdict is certain despite
// floating-point rounding on either side: +1 (e surely above), -1 (surely
// below), or 0 inside the guard band, where the caller must fall back to
// the exact transform-and-compare. Both e and h may carry a few ulps of
// rounding from their own computation.
func CompareHazard(e, h float64) int {
	if h > hazardHuge {
		switch {
		case e > 2*h:
			return 1
		case e < h/2:
			return -1
		default:
			return 0
		}
	}
	switch {
	case e > h*(1+hazardRelBand)+hazardAbsBand:
		return 1
	case e < h*(1-hazardRelBand)-hazardAbsBand:
		return -1
	default:
		return 0
	}
}

// CensorCut returns the uniform-domain image of CompareHazard's certain
// "above" verdict under a θ hazard tilt: every u in (0, cut) gives
// CompareHazard(-log(u)/θ, h) > 0, so a caller holding the raw uniform can
// rule a draw censored without taking its log. The cut sits a relative
// 1e-9 plus an absolute 1e-12 (in the exponential domain) inside the band
// edge θ·(h·(1+rel)+abs): the relative term absorbs the few-ulp rounding
// of that edge and of e/θ, the absolute term the ≤1-ulp errors of exp and
// log, which are absolute in the exponential domain and would otherwise
// dominate a tiny θ·abs. Returns 0 — no uniform qualifies — above
// hazardHuge, where CompareHazard only rules a factor-two separation.
func CensorCut(h, theta float64) float64 {
	if h > hazardHuge {
		return 0
	}
	return math.Exp(-(theta*(h*(1+hazardRelBand)+hazardAbsBand)*(1+1e-9) + 1e-12))
}

// CompareExp reports how the variate FromExp(e) compares to x when that is
// certain despite rounding: +1 (FromExp(e) > x surely), -1 (< x surely), or
// 0 when e lands inside the guard band around the exact boundary — or when
// the kernel has no cheap hazard surrogate (generic, or the general-β Pow
// kind whose surrogate would cost the same math.Pow it is meant to avoid).
// On 0 the caller computes FromExp(e) and compares directly.
//
// Margin sketch for the certain verdicts: the surrogate hazard h of x is
// exact-math-monotone-equivalent to the draw comparison and computed with
// ≤4 roundings, the draw transform chain carries ≤3 (no cancellation:
// loc, scale, e all non-negative), and the caller's boundary x may carry a
// few more — all O(ε) relative, dwarfed by the 1e-6 relative band. The
// absolute band covers the regime h → 0 where the relative band vanishes;
// the loc/scale term keeps the derived draw-domain margin above ε·loc even
// for extreme location/scale ratios.
func (k *Kernel) CompareExp(e, x float64) int {
	var h, abs float64
	switch k.kind {
	case kindExponential:
		if x <= 0 {
			if x < 0 {
				return 1 // draws are strictly positive
			}
			return 0
		}
		h = x * k.scale // scale holds the rate: e/rate > x ⟺ e > x·rate
		abs = hazardAbsBand
	case kindWeibullExp, kindWeibullSqrt, kindWeibullCbrt:
		z := (x - k.loc) / k.scale
		if z <= 0 {
			// x at or below the location. The draw loc + scale·g(e) with
			// g(e) > 0 certainly exceeds x when x is clearly below loc; at
			// the boundary the outer addition can round down to loc itself,
			// so stay uncertain there.
			if k.loc-x > hazardRelBand*k.scale+1e-12*k.loc {
				return 1
			}
			return 0
		}
		switch k.kind {
		case kindWeibullExp:
			h = z
		case kindWeibullSqrt:
			h = z * z
		default:
			h = z * z * z
		}
		abs = hazardAbsBand * (1 + k.loc/k.scale)
	default:
		return 0
	}
	if h > hazardHuge {
		switch {
		case e > 2*h:
			return 1
		case e < h/2:
			return -1
		default:
			return 0
		}
	}
	switch {
	case e > h*(1+hazardRelBand)+abs:
		return 1
	case e < h*(1-hazardRelBand)-abs:
		return -1
	default:
		return 0
	}
}

// cumHazard returns the base distribution's cumulative hazard H(t),
// bit-identical to CumHazardOf(k.Distribution(), t): the Weibull and
// exponential branches replicate those types' CumHazard methods exactly.
func (k *Kernel) cumHazard(t float64) float64 {
	switch k.kind {
	case kindGeneric:
		return CumHazardOf(k.d, t)
	case kindExponential:
		if t <= 0 {
			return 0
		}
		return k.scale * t
	default:
		if t <= k.loc {
			return 0
		}
		if k.kind == kindWeibullExp {
			return (t - k.loc) / k.scale
		}
		return math.Pow((t-k.loc)/k.scale, k.shape)
	}
}

// quantileFromCumHazard inverts the survival function at e^(-h),
// bit-identical to QuantileFromCumHazardOf(k.Distribution(), h).
func (k *Kernel) quantileFromCumHazard(h float64) float64 {
	switch k.kind {
	case kindGeneric:
		return QuantileFromCumHazardOf(k.d, h)
	case kindExponential:
		if h <= 0 {
			return 0
		}
		return h / k.scale
	default:
		if h <= 0 {
			return k.loc
		}
		return weibullICDFExp(k.kind, k.loc, k.scale, k.invShape, h)
	}
}

// TiltedKernel is a compiled sampler for the proportional-hazards tilt of
// a distribution by factor θ, fused with the per-draw log likelihood
// ratio: one DrawLR call replaces the SampleHazardScaled +
// HazardScale(Censored)LogRatio sequence of the interface layer, with
// ln θ and θ-1 precomputed. See tilt.go for the measure-change math.
type TiltedKernel struct {
	Kernel
	theta, thetaM1, logTheta float64
}

// CompileTilted returns the tilted kernel for d with factor theta > 0.
// theta = 1 is valid (the identity tilt with zero log ratios) but callers
// should prefer plain Compile for the unbiased case.
func CompileTilted(d Distribution, theta float64) TiltedKernel {
	return TiltedKernel{
		Kernel:   Compile(d),
		theta:    theta,
		thetaM1:  theta - 1,
		logTheta: math.Log(theta),
	}
}

// Theta returns the tilt factor.
func (k *TiltedKernel) Theta() float64 { return k.theta }

// DrawLR draws one variate x from the tilt of the base distribution and
// returns it with the draw's log likelihood ratio ln(f/g), censored at m:
// a draw landing beyond m contributes the ratio of survival masses
// ln(S_f(m)/S_g(m)) = (θ-1)·H_f(m) rather than the density ratio at x,
// because the caller discards such draws and the censored ratio is what
// keeps every weight factor bounded (the uncensored per-draw ratio has
// unbounded second moment for θ >= 2).
//
// DrawLR is bit-identical — same RNG consumption, same x, same ratio — to
// the interface sequence it fuses:
//
//	x, h := SampleHazardScaled(d, θ, r)
//	if x > m { lr = HazardScaleCensoredLogRatio(d, θ, m) }
//	else     { lr = (θ-1)*h - ln θ }
func (k *TiltedKernel) DrawLR(m float64, r *rng.RNG) (x, logLR float64) {
	return k.DrawLRFromExp(r.ExpFloat64(), m)
}

// DrawLRFromExp is DrawLR fed from an externally supplied unit-exponential
// variate e, bit-identical to DrawLR when e comes from the same stream
// position — the tilted counterpart of Kernel.FromExp for batch consumers
// that pre-fill exponential columns.
func (k *TiltedKernel) DrawLRFromExp(e, m float64) (x, logLR float64) {
	h := e / k.theta
	x = k.quantileFromCumHazard(h)
	if x > m {
		return x, k.thetaM1 * k.cumHazard(m)
	}
	return x, k.thetaM1*h - k.logTheta
}

// CensoredLogLR returns the log likelihood ratio of a draw censored at m —
// (θ-1)·H(m), exactly the value DrawLRFromExp returns for a draw landing
// past m. Callers that can prove censoring from the hazard domain alone
// (CompareHazard against CumHazard(m)) use it to skip the quantile
// transform entirely.
func (k *TiltedKernel) CensoredLogLR(m float64) float64 {
	return k.thetaM1 * k.cumHazard(m)
}

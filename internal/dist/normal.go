package dist

import (
	"fmt"
	"math"

	"raidrel/internal/rng"
)

// Normal is the Gaussian distribution. As a lifetime model it must be
// truncated at zero (see Truncated); it exists mainly to test the paper's
// §6.4 claim that a β = 3 Weibull "produces a Normal shaped distribution"
// for scrub completion times.
type Normal struct {
	mean, sd float64
}

var _ Distribution = Normal{}

// NewNormal returns a normal distribution with the given mean and
// standard deviation sd > 0.
func NewNormal(mean, sd float64) (Normal, error) {
	if !(sd > 0) || math.IsInf(sd, 0) || math.IsNaN(mean) || math.IsInf(mean, 0) {
		return Normal{}, fmt.Errorf("normal: invalid parameters mean=%v sd=%v", mean, sd)
	}
	return Normal{mean: mean, sd: sd}, nil
}

// MustNormal is NewNormal but panics on invalid parameters.
func MustNormal(mean, sd float64) Normal {
	n, err := NewNormal(mean, sd)
	if err != nil {
		panic(err)
	}
	return n
}

// Mean returns μ.
func (n Normal) Mean() float64 { return n.mean }

// Variance returns σ².
func (n Normal) Variance() float64 { return n.sd * n.sd }

// PDF returns the density at t.
func (n Normal) PDF(t float64) float64 {
	z := (t - n.mean) / n.sd
	return math.Exp(-z*z/2) / (n.sd * math.Sqrt(2*math.Pi))
}

// CDF returns Φ((t-μ)/σ).
func (n Normal) CDF(t float64) float64 {
	return stdNormalCDF((t - n.mean) / n.sd)
}

// Quantile returns μ + σΦ⁻¹(p).
func (n Normal) Quantile(p float64) float64 {
	if p <= 0 {
		return math.Inf(-1)
	}
	if p >= 1 {
		return math.Inf(1)
	}
	return n.mean + n.sd*StdNormalQuantile(p)
}

// Sample draws μ + σZ.
func (n Normal) Sample(r *rng.RNG) float64 {
	return n.mean + n.sd*r.NormFloat64()
}

// String implements fmt.Stringer.
func (n Normal) String() string { return fmt.Sprintf("Normal(μ=%g, σ=%g)", n.mean, n.sd) }

// Truncated restricts a distribution to [lo, hi] by conditioning: samples
// and probabilities are renormalized to the retained mass. It turns a
// Normal into a valid lifetime distribution (lo = 0) and models hard
// operational floors/caps like the paper's minimum and maximum
// reconstruction times (§6.2).
type Truncated struct {
	base   Distribution
	lo, hi float64
	pLo    float64 // base CDF at lo
	mass   float64 // base probability of [lo, hi]
}

var _ Distribution = Truncated{}

// NewTruncated returns base conditioned on [lo, hi]. The interval must
// retain positive probability.
func NewTruncated(base Distribution, lo, hi float64) (Truncated, error) {
	if base == nil {
		return Truncated{}, fmt.Errorf("truncated: nil base")
	}
	if !(lo < hi) {
		return Truncated{}, fmt.Errorf("truncated: need lo < hi, got [%v, %v]", lo, hi)
	}
	pLo := base.CDF(lo)
	mass := base.CDF(hi) - pLo
	if !(mass > 0) {
		return Truncated{}, fmt.Errorf("truncated: [%v, %v] has no probability mass", lo, hi)
	}
	return Truncated{base: base, lo: lo, hi: hi, pLo: pLo, mass: mass}, nil
}

// MustTruncated is NewTruncated but panics on invalid parameters.
func MustTruncated(base Distribution, lo, hi float64) Truncated {
	t, err := NewTruncated(base, lo, hi)
	if err != nil {
		panic(err)
	}
	return t
}

// PDF returns the renormalized density inside the window.
func (t Truncated) PDF(x float64) float64 {
	if x < t.lo || x > t.hi {
		return 0
	}
	return t.base.PDF(x) / t.mass
}

// CDF returns the conditioned CDF.
func (t Truncated) CDF(x float64) float64 {
	switch {
	case x <= t.lo:
		return 0
	case x >= t.hi:
		return 1
	default:
		return (t.base.CDF(x) - t.pLo) / t.mass
	}
}

// Quantile inverts by mapping p into the base quantile scale.
func (t Truncated) Quantile(p float64) float64 {
	switch {
	case p <= 0:
		return t.lo
	case p >= 1:
		return t.hi
	default:
		q := t.base.Quantile(t.pLo + p*t.mass)
		// Clamp against base-quantile numerical drift.
		return math.Min(math.Max(q, t.lo), t.hi)
	}
}

// span is the window Mean and Variance integrate over: [lo, hi] with an
// infinite bound clipped to the truncated law's own 1e-9 or 1-1e-9
// quantile, as survivalMean clips an unbounded support.
func (t Truncated) span() (lo, hi float64) {
	lo, hi = t.lo, t.hi
	if math.IsInf(lo, -1) {
		lo = t.Quantile(1e-9)
	}
	if math.IsInf(hi, 1) {
		hi = t.Quantile(1 - 1e-9)
	}
	return lo, hi
}

// Mean integrates the survival function over the window.
func (t Truncated) Mean() float64 {
	// E[T] = lo + ∫_{lo}^{hi} S(x) dx for the truncated variable.
	lo, hi := t.span()
	const n = 20000
	h := (hi - lo) / n
	sum := 0.5 * (Survival(t, lo) + Survival(t, hi))
	for i := 1; i < n; i++ {
		sum += Survival(t, lo+float64(i)*h)
	}
	return lo + sum*h
}

// Variance integrates numerically.
func (t Truncated) Variance() float64 {
	m := t.Mean()
	lo, hi := t.span()
	const n = 20000
	h := (hi - lo) / n
	var sum float64
	for i := 0; i <= n; i++ {
		x := lo + float64(i)*h
		w := 1.0
		if i == 0 || i == n {
			w = 0.5
		}
		d := x - m
		sum += w * d * d * t.PDF(x)
	}
	return sum * h
}

// Sample draws by inversion within the retained mass.
func (t Truncated) Sample(r *rng.RNG) float64 {
	return t.Quantile(r.Float64Open())
}

// String implements fmt.Stringer.
func (t Truncated) String() string {
	return fmt.Sprintf("Truncated(%v on [%g, %g])", t.base, t.lo, t.hi)
}

// stdNormalCDF is Φ(z), computed with the error function.
func stdNormalCDF(z float64) float64 {
	return 0.5 * math.Erfc(-z/math.Sqrt2)
}

// StdNormalQuantile is Φ⁻¹(p) for p in (0,1), computed with the
// Acklam/Wichura-style rational approximation followed by one Halley
// refinement step, accurate to ~1e-15 over the full open interval. It is
// the module's one Φ⁻¹: stats derives every interval z-score from it.
func StdNormalQuantile(p float64) float64 {
	if p <= 0 {
		return math.Inf(-1)
	}
	if p >= 1 {
		return math.Inf(1)
	}
	// Peter Acklam's rational approximation.
	const (
		pLow  = 0.02425
		pHigh = 1 - pLow
	)
	var (
		a = [6]float64{-3.969683028665376e+01, 2.209460984245205e+02,
			-2.759285104469687e+02, 1.383577518672690e+02,
			-3.066479806614716e+01, 2.506628277459239e+00}
		b = [5]float64{-5.447609879822406e+01, 1.615858368580409e+02,
			-1.556989798598866e+02, 6.680131188771972e+01,
			-1.328068155288572e+01}
		c = [6]float64{-7.784894002430293e-03, -3.223964580411365e-01,
			-2.400758277161838e+00, -2.549732539343734e+00,
			4.374664141464968e+00, 2.938163982698783e+00}
		d = [4]float64{7.784695709041462e-03, 3.224671290700398e-01,
			2.445134137142996e+00, 3.754408661907416e+00}
	)
	var x float64
	switch {
	case p < pLow:
		q := math.Sqrt(-2 * math.Log(p))
		x = (((((c[0]*q+c[1])*q+c[2])*q+c[3])*q+c[4])*q + c[5]) /
			((((d[0]*q+d[1])*q+d[2])*q+d[3])*q + 1)
	case p <= pHigh:
		q := p - 0.5
		r := q * q
		x = (((((a[0]*r+a[1])*r+a[2])*r+a[3])*r+a[4])*r + a[5]) * q /
			(((((b[0]*r+b[1])*r+b[2])*r+b[3])*r+b[4])*r + 1)
	default:
		q := math.Sqrt(-2 * math.Log(1-p))
		x = -(((((c[0]*q+c[1])*q+c[2])*q+c[3])*q+c[4])*q + c[5]) /
			((((d[0]*q+d[1])*q+d[2])*q+d[3])*q + 1)
	}
	// One Halley refinement against the exact CDF.
	e := stdNormalCDF(x) - p
	u := e * math.Sqrt(2*math.Pi) * math.Exp(x*x/2)
	x -= u / (1 + x*u/2)
	return x
}

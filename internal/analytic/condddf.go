package analytic

import "math"

// This file carries the math behind the block engine's conditional-DDF
// control variate (`cv=cond`, DESIGN.md §12): the probability that a
// first-generation operational failure at time t is "killed" — meets a
// second failure or a live latent defect — evaluated against the
// first-generation law of the other slots, and the exact expectation of
// the per-iteration variate built from it.
//
// The variate the engine reports is
//
//	z = Σ_s 1{T_s ≤ M} · κ_s(T_s)
//
// where T_s is slot s's drawn first-generation operational failure time
// and κ_s(t) is the drawn first-generation kill indicator: some mate m≠s
// either failed within the deterministic window (T_m ≤ t < T_m + W, with
// W the mean rebuild time, not the drawn one) or is still operational
// (T_m > t) with a latent defect alive at t. Restricting κ to
// first-generation structures and a deterministic window is what makes
// E[z] computable in closed quadrature while keeping z correlated with
// the DDF indicator: in the scrubbed regime the dominant loss path is
// exactly a first failure meeting a first-generation mate defect.
//
// Per mate m, with F_m the operational-failure CDF, S_m = 1-F_m, and μ(t)
// the expected number of live defects on an operational mate at t (a
// thinned-Poisson mean — see LiveDefectMean),
//
//	P(m does not kill at t) = F_m(t-W) + S_m(t)·e^{-μ(t)}
//
// (mate restored before the window reaches t; or mate never failed and
// its Poisson-thinned live-defect count is zero — defects die with their
// drive, so a failed-and-restored mate contributes nothing). Mates are
// independent, so
//
//	q_s(t) = P(κ_s = 1 | T_s = t) = 1 - Π_{m≠s} [F_m(t-W) + S_m(t)·e^{-μ(t)}]
//
// and, substituting u = H_s(t) (so dF_s = e^{-u}du),
//
//	E[z] = Σ_s ∫_0^{H_s(M)} e^{-u} · q_s(H_s^{-1}(u)) du ∈ [0, n].
type CondDDF struct {
	// Mission is the horizon M the first-generation failure must beat.
	Mission float64
	// Window is the deterministic kill window W after a mate's failure —
	// the mean rebuild time.
	Window float64
	// LiveMean is μ(t), the expected live-defect count on a mate still
	// operational at t; nil when the configuration has no defect process
	// (the variate then reduces to the pure second-failure-in-window
	// term).
	LiveMean func(t float64) float64
	// Slots holds each slot's base (untilted) operational-failure law.
	Slots []CondSlot
	// Identical marks a homogeneous group (every slot the same law), which
	// collapses EZ to n times one slot's integral.
	Identical bool
	// TKinks lists time-domain breakpoints where q(t) loses smoothness —
	// the window boundary, a scrub distribution's location shift — so the
	// quadrature can split pieces there. Unsorted and unclipped is fine.
	TKinks []float64
}

// CondSlot is one slot's base operational-failure law in the two forms the
// quadrature needs: the cumulative hazard H and its inverse.
type CondSlot struct {
	CumHazard func(t float64) float64
	// Quantile inverts the cumulative hazard: Quantile(H(t)) = t.
	Quantile func(u float64) float64
}

// NoKill returns P(mate j does not kill a failure at time t):
// F_j(t-Window) + S_j(t)·exp(-μ(t)).
func (m *CondDDF) NoKill(j int, t float64) float64 {
	restored := 0.0
	if t > m.Window {
		restored = -math.Expm1(-m.Slots[j].CumHazard(t - m.Window))
	}
	mu := 0.0
	if m.LiveMean != nil {
		mu = m.LiveMean(t)
	}
	return restored + math.Exp(-m.Slots[j].CumHazard(t)-mu)
}

// Q returns q_s(t) = P(κ_s = 1 | T_s = t), the conditional kill
// probability of a first-generation failure of slot s at time t.
func (m *CondDDF) Q(s int, t float64) float64 {
	if len(m.Slots) < 2 {
		return 0
	}
	if m.Identical {
		// Homogeneous mates: one NoKill, raised to the mate count.
		return 1 - math.Pow(m.NoKill(0, t), float64(len(m.Slots)-1))
	}
	p := 1.0
	for j := range m.Slots {
		if j == s {
			continue
		}
		p *= m.NoKill(j, t)
	}
	return 1 - p
}

// EZ returns the exact expectation of the variate,
// Σ_s ∫_0^{H_s(M)} e^{-u}·q_s(H_s^{-1}(u)) du, by piecewise composite
// Gauss–Legendre quadrature with pieces split at the TKinks images.
func (m *CondDDF) EZ() float64 {
	if len(m.Slots) < 2 {
		return 0
	}
	if m.Identical {
		return float64(len(m.Slots)) * m.slotEZ(0)
	}
	total := 0.0
	for s := range m.Slots {
		total += m.slotEZ(s)
	}
	return total
}

func (m *CondDDF) slotEZ(s int) float64 {
	sl := &m.Slots[s]
	hm := sl.CumHazard(m.Mission)
	if !(hm > 0) {
		return 0
	}
	// Breakpoints in the u domain: the kink images, clipped to (0, hm),
	// plus a geometric grading toward u = 0 — Quantile(u) ~ u^{1/β} has an
	// unbounded derivative there for β > 1, and log-uniform pieces keep the
	// Gauss–Legendre error at machine precision through the boundary layer.
	breaks := make([]float64, 0, len(m.TKinks)+10)
	breaks = append(breaks, 0)
	for _, t := range m.TKinks {
		if u := sl.CumHazard(t); u > 0 && u < hm {
			breaks = append(breaks, u)
		}
	}
	for u := hm / 10; u > 1e-9*hm; u /= 10 {
		breaks = append(breaks, u)
	}
	breaks = append(breaks, hm)
	sortFloats(breaks)
	f := func(u float64) float64 {
		return math.Exp(-u) * m.Q(s, sl.Quantile(u))
	}
	total := 0.0
	for i := 1; i < len(breaks); i++ {
		total += glComposite(f, breaks[i-1], breaks[i], 4)
	}
	return total
}

// LiveDefectMean builds μ(t) for a homogeneous Poisson defect process of
// the given rate whose defects die (are scrubbed) after an iid duration
// with the given survival function: by Poisson thinning the live count at
// t on a drive operational since 0 is Poisson with mean
//
//	μ(t) = rate · ∫_0^t S(u) du.
//
// survival may be nil (defects never die, e.g. no scrubbing): μ(t) =
// rate·t. kinks lists points where S loses smoothness (a location-shifted
// scrub law); support is a point beyond which S is negligible, +Inf for
// none — the integral saturates there, matching a mean defect lifetime.
func LiveDefectMean(rate float64, survival func(float64) float64, kinks []float64, support float64) func(float64) float64 {
	if survival == nil {
		return func(t float64) float64 { return rate * t }
	}
	return func(t float64) float64 {
		upper := t
		if upper > support {
			upper = support
		}
		if !(upper > 0) {
			return 0
		}
		breaks := make([]float64, 0, len(kinks)+2)
		breaks = append(breaks, 0)
		for _, k := range kinks {
			if k > 0 && k < upper {
				breaks = append(breaks, k)
			}
		}
		breaks = append(breaks, upper)
		sortFloats(breaks)
		total := 0.0
		for i := 1; i < len(breaks); i++ {
			total += glComposite(survival, breaks[i-1], breaks[i], 2)
		}
		return rate * total
	}
}

// gl16 holds the positive half of the 16-point Gauss–Legendre rule on
// [-1, 1]; nodes mirror with equal weights.
var gl16 = [8][2]float64{
	{0.0950125098376374, 0.1894506104550685},
	{0.2816035507792589, 0.1826034150449236},
	{0.4580167776572274, 0.1691565193950025},
	{0.6178762444026438, 0.1495959888165767},
	{0.7554044083550030, 0.1246289712555339},
	{0.8656312023878318, 0.0951585116824928},
	{0.9445750230732326, 0.0622535239386479},
	{0.9894009349916499, 0.0271524594117541},
}

// glComposite integrates f over [a, b] with `panels` equal panels of
// 16-point Gauss–Legendre — exact to machine precision for the smooth
// analytic integrands above once kinks are split out.
func glComposite(f func(float64) float64, a, b float64, panels int) float64 {
	if !(b > a) {
		return 0
	}
	h := (b - a) / float64(panels)
	total := 0.0
	for p := 0; p < panels; p++ {
		mid := a + (float64(p)+0.5)*h
		half := h / 2
		sum := 0.0
		for _, nw := range gl16 {
			sum += nw[1] * (f(mid+half*nw[0]) + f(mid-half*nw[0]))
		}
		total += sum * half
	}
	return total
}

// sortFloats is a tiny insertion sort: breakpoint lists are a handful of
// entries, not worth the sort package's interface machinery here.
func sortFloats(xs []float64) {
	for i := 1; i < len(xs); i++ {
		for j := i; j > 0 && xs[j] < xs[j-1]; j-- {
			xs[j], xs[j-1] = xs[j-1], xs[j]
		}
	}
}

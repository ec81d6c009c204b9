package analytic

import (
	"math"
	"testing"
)

// weibullSlot builds a CondSlot for a Weibull(shape, scale) law:
// H(t) = (t/scale)^shape, H^{-1}(u) = scale·u^{1/shape}.
func weibullSlot(shape, scale float64) CondSlot {
	return CondSlot{
		CumHazard: func(t float64) float64 {
			if t <= 0 {
				return 0
			}
			return math.Pow(t/scale, shape)
		},
		Quantile: func(u float64) float64 {
			if u <= 0 {
				return 0
			}
			return scale * math.Pow(u, 1/shape)
		},
	}
}

// condRef integrates EZ by brute force: a dense midpoint rule in the
// u = H_s(t) domain, independent of the production quadrature's panel and
// breakpoint machinery. Accurate to ~1e-8 at this resolution for the smooth
// integrands below.
func condRef(m *CondDDF) float64 {
	const steps = 200000
	total := 0.0
	for s := range m.Slots {
		sl := &m.Slots[s]
		hm := sl.CumHazard(m.Mission)
		h := hm / steps
		sum := 0.0
		for i := 0; i < steps; i++ {
			u := (float64(i) + 0.5) * h
			sum += math.Exp(-u) * m.Q(s, sl.Quantile(u))
		}
		total += sum * h
	}
	return total
}

// TestCondDDFQuadrature pins the production EZ quadrature against the
// brute-force reference on the paper's scrubbed base-case law — homogeneous
// and with a heterogeneous slot mix — at the quadrature's claimed accuracy.
func TestCondDDFQuadrature(t *testing.T) {
	mission := 87600.0
	window := 16.6
	// μ(t) for exponential defects at rate 1/9259 scrubbed after a mean
	// life of ~155 h: the saturating closed form.
	tau := 155.0
	live := func(tt float64) float64 {
		return (1.0 / 9259) * tau * -math.Expm1(-tt/tau)
	}

	homo := &CondDDF{
		Mission:   mission,
		Window:    window,
		LiveMean:  live,
		Slots:     make([]CondSlot, 8),
		Identical: true,
		TKinks:    []float64{window, tau},
	}
	for i := range homo.Slots {
		homo.Slots[i] = weibullSlot(1.12, 461386)
	}
	got, want := homo.EZ(), condRef(homo)
	if math.Abs(got-want) > 1e-6 {
		t.Errorf("homogeneous EZ = %.12f, reference %.12f", got, want)
	}
	if !(got > 0) || got > 8 {
		t.Errorf("EZ = %v outside (0, drives]", got)
	}

	hetero := &CondDDF{
		Mission:  mission,
		Window:   window,
		LiveMean: live,
		Slots: []CondSlot{
			weibullSlot(1.12, 461386),
			weibullSlot(1.0, 300000),
			weibullSlot(1.3, 600000),
			weibullSlot(1.12, 461386),
		},
		TKinks: []float64{window, tau},
	}
	got, want = hetero.EZ(), condRef(hetero)
	if math.Abs(got-want) > 1e-6 {
		t.Errorf("heterogeneous EZ = %.12f, reference %.12f", got, want)
	}
}

// TestCondDDFNoKillBounds: NoKill is a probability, decreasing in defect
// pressure, and exactly the survival-only form before the window opens.
func TestCondDDFNoKillBounds(t *testing.T) {
	m := &CondDDF{
		Mission:  87600,
		Window:   20,
		LiveMean: func(t float64) float64 { return 1e-4 * t },
		Slots:    []CondSlot{weibullSlot(1.12, 461386), weibullSlot(1.12, 461386)},
	}
	for _, tt := range []float64{1, 10, 19.9, 20.1, 100, 10000, 87600} {
		nk := m.NoKill(0, tt)
		if nk < 0 || nk > 1 {
			t.Errorf("NoKill(%v) = %v outside [0,1]", tt, nk)
		}
		q := m.Q(0, tt)
		if q < 0 || q > 1 {
			t.Errorf("Q(%v) = %v outside [0,1]", tt, q)
		}
	}
	// Before the window opens there is no restored mass: NoKill must equal
	// S(t)·e^{-μ(t)} exactly.
	tt := 15.0
	want := math.Exp(-m.Slots[0].CumHazard(tt) - 1e-4*tt)
	if got := m.NoKill(0, tt); math.Abs(got-want) > 1e-15 {
		t.Errorf("pre-window NoKill = %v, want %v", got, want)
	}
	// A single-slot model has no mates to kill anything.
	solo := &CondDDF{Mission: 87600, Window: 20, Slots: []CondSlot{weibullSlot(1.12, 461386)}}
	if ez := solo.EZ(); ez != 0 {
		t.Errorf("single-slot EZ = %v, want 0", ez)
	}
}

// TestLiveDefectMeanClosedForm checks μ(t) against the exponential-survival
// closed form rate·τ·(1-e^{-t/τ}) and the nil-survival linear form.
func TestLiveDefectMeanClosedForm(t *testing.T) {
	rate, tau := 1.0/9259, 750.0
	surv := func(u float64) float64 { return math.Exp(-u / tau) }
	mu := LiveDefectMean(rate, surv, nil, math.Inf(1))
	for _, tt := range []float64{0, 1, 100, 1000, 20000} {
		want := rate * tau * -math.Expm1(-tt/tau)
		if got := mu(tt); math.Abs(got-want) > 1e-10*(1+want) {
			t.Errorf("mu(%v) = %v, want %v", tt, got, want)
		}
	}
	lin := LiveDefectMean(rate, nil, nil, math.Inf(1))
	if got, want := lin(5000), rate*5000; math.Abs(got-want) > 1e-12 {
		t.Errorf("nil-survival mu(5000) = %v, want %v", got, want)
	}
	// Finite support saturates the integral: beyond it μ is constant.
	sup := LiveDefectMean(rate, surv, nil, 3000)
	if a, b := sup(5000), sup(50000); math.Abs(a-b) > 1e-12 {
		t.Errorf("mu past support not constant: %v vs %v", a, b)
	}
}

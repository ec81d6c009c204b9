package sim

import (
	"fmt"
	"math"
)

// Bias configures failure-biased importance sampling (Greenan's standard
// rare-event fix, arXiv:1310.4702 §6): during sampling, selected hazards
// are scaled up by a factor θ so DDFs become orders of magnitude more
// frequent, and every iteration carries a likelihood-ratio weight
// W = Π f(x)/g(x) that keeps the weighted estimator unbiased.
//
// A factor of 0 or 1 leaves that process unbiased (plain Monte Carlo).
type Bias struct {
	// Op scales the operational-failure (TTOp) hazard. This is the
	// effective lever: a DDF needs an operational failure inside another
	// failure's restore window (rate ∝ θ²) or on top of a latent defect
	// (rate ∝ θ), and operational failures are genuinely rare over a
	// mission, so the weights stay well-behaved.
	Op float64 `json:"op,omitempty"`
	// Ld scales the renewal latent-defect (TTLd) hazard. Use cautiously:
	// at the paper's parameters defects are not rare (≈9.5 arrivals per
	// drive-mission), so tilting them inflates weight variance
	// exponentially in the arrival count and usually hurts.
	Ld float64 `json:"ld,omitempty"`
}

// Enabled reports whether any hazard is tilted.
func (b Bias) Enabled() bool { return b.opEnabled() || b.ldEnabled() }

func (b Bias) opEnabled() bool { return b.Op != 0 && b.Op != 1 }
func (b Bias) ldEnabled() bool { return b.Ld != 0 && b.Ld != 1 }

// validate checks the factors in isolation; cross-field rules (Ld needs
// TTLd) live in Config.Validate.
func (b Bias) validate() error {
	for _, f := range []struct {
		name string
		v    float64
	}{{"op", b.Op}, {"ld", b.Ld}} {
		if f.v == 0 {
			continue
		}
		if !(f.v > 0) || math.IsInf(f.v, 0) {
			return fmt.Errorf("sim: %s bias factor must be positive and finite, got %v", f.name, f.v)
		}
	}
	return nil
}

// The tilted draws themselves live in the compiled-kernel layer: both
// engines resolve their tilted distributions to dist.TiltedKernel values
// (see kernels.go), whose DrawLR fuses the hazard-scaled draw with the
// per-draw log likelihood ratio, censored at each engine's discard
// horizon. Censoring is what keeps every weight factor bounded — the
// uncensored per-draw ratio has unbounded second moment for theta >= 2,
// which would make the weighted estimator's variance infinite.

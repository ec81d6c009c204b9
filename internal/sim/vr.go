package sim

// This file defines the variance-reduction (VR) configuration and the
// per-block tallies it produces. The techniques stack multiplicatively
// with importance sampling (Bias): the tilt makes DDFs common, and the
// block-level schemes below then squeeze the variance of the now-frequent
// weighted observations.
//
//   - Antithetic stream pairs: iterations 2j and 2j+1 share RNG stream j,
//     the odd member drawing the bitwise-complemented outputs (u ↦ ~u at
//     the 64-bit layer, i.e. u' ~ 1-u for every derived uniform). Pair
//     members are negatively correlated, so the pair mean has less than
//     half the single-draw variance.
//   - Stratified first-failure quantile: within each block, iteration
//     (pair) k overrides the first uniform consumed — the one driving slot
//     0's first operational-failure draw — with (k + u)/K, forcing one
//     sample per stratum of that quantile per block and removing the
//     between-stratum variance of the dominant input dimension.
//   - Analytic control variate: each iteration also reports the indicator
//     z = 1{any first-generation operational failure within the mission},
//     whose expectation EZ = 1 - exp(-Σ_s H_s(M)) is known in closed form
//     from the compiled kernels. The estimator subtracts c·(z̄ - EZ) with
//     the optimal c fitted online (stats.CVAccum).
//   - Conditional-DDF variate (cond): z counts the first-generation
//     failures whose drawn mate state would kill them — a mate failed
//     within the mean-rebuild window or carrying a live drawn defect —
//     with EZ the exact analytic.CondDDF quadrature over the Poisson
//     defect process. Strong exactly where the indicator variate is weak:
//     the scrubbed regime, where defects do not persist and almost all
//     variance is the defect-coincidence coin flip.
//
// All three act strictly within a block of BlockSize consecutive
// iterations, so block sums are iid observations: the campaign CI is a
// normal interval over block means, checkpoints serialize completed blocks
// verbatim, and resume is bit-exact by construction.

import "fmt"

// DefaultVRBlock is the block size used without an explicit BlockSize —
// the VR block and the runner's unit of dispatch for every non-fleet run:
// large enough for stable within-block stratification, small enough that a
// campaign accumulates many iid block means quickly.
const DefaultVRBlock = 256

// VR configures variance reduction for block-engine runs. The zero value
// disables every technique (plain Monte Carlo); BlockSize alone does not
// change results — bit-identity with the scalar engines holds whenever
// Enabled() is false — it only sets the batching granularity.
type VR struct {
	// Antithetic pairs iterations (2j, 2j+1) on RNG stream j with
	// complementary uniforms.
	Antithetic bool `json:"antithetic,omitempty"`
	// Stratify spreads each block's iterations (pairs, when Antithetic)
	// across equi-probable strata of the first operational-failure draw.
	Stratify bool `json:"stratify,omitempty"`
	// ControlVariate subtracts the analytic first-generation-failure
	// indicator with an online-fitted coefficient.
	ControlVariate bool `json:"control_variate,omitempty"`
	// CondVariate replaces the indicator control with the conditional-DDF
	// variate: the first-generation kill count z = Σ_s 1{T_s ≤ M}·κ_s,
	// evaluated from the drawn failure times and defect states, whose
	// exact expectation is the analytic.CondDDF quadrature (DESIGN.md
	// §12). It predicts the DDF indicator even when scrubbing erases
	// defect persistence — the regime where the plain indicator variate
	// is powerless. Mutually exclusive with ControlVariate; requires a
	// memoryless defect process (exponential TTLd or an NHPP rate).
	CondVariate bool `json:"cond_variate,omitempty"`
	// BlockSize is the iterations per VR block (0 = DefaultVRBlock). Must
	// be even when Antithetic is on.
	BlockSize int `json:"block_size,omitempty"`
}

// Enabled reports whether any variance-reduction technique is on. A bare
// BlockSize does not count: it changes scheduling, not the estimator.
func (v VR) Enabled() bool { return v.Antithetic || v.Stratify || v.ControlVariate || v.CondVariate }

// AnyControl reports whether either control-variate flavour is active —
// the paths that fit a coefficient and need the analytic expectation EZ.
func (v VR) AnyControl() bool { return v.ControlVariate || v.CondVariate }

// EffectiveBlock returns the block size actually used: BlockSize, or
// DefaultVRBlock when unset. Campaign-level schedulers align batches and
// shard offsets to multiples of this.
func (v VR) EffectiveBlock() int {
	if v.BlockSize > 0 {
		return v.BlockSize
	}
	return DefaultVRBlock
}

// validate checks the VR knobs in isolation.
func (v VR) validate() error {
	if v.BlockSize < 0 {
		return fmt.Errorf("sim: VR block size %d negative", v.BlockSize)
	}
	if v.Antithetic && v.EffectiveBlock()%2 != 0 {
		return fmt.Errorf("sim: antithetic pairing needs an even VR block size, got %d", v.EffectiveBlock())
	}
	if v.ControlVariate && v.CondVariate {
		return fmt.Errorf("sim: ControlVariate and CondVariate are mutually exclusive — pick one control")
	}
	return nil
}

// stream maps a global iteration index to its RNG stream and antithetic
// flag: with antithetic pairing, iterations 2j and 2j+1 both draw stream j,
// the odd member complemented. The map depends only on the global index, so
// results are invariant to worker count, batching, and resume points.
func (v VR) stream(global int) (stream uint64, anti bool) {
	if v.Antithetic {
		return uint64(global / 2), global%2 == 1
	}
	return uint64(global), false
}

// stratum returns the stratum index and stratum count for a global
// iteration, or (0, 0) when stratification is off. Antithetic pair members
// share a stratum (the complemented uniform folds into the same subcell).
func (v VR) stratum(global int) (j, k int) {
	if !v.Stratify {
		return 0, 0
	}
	b := v.EffectiveBlock()
	if v.Antithetic {
		return (global / 2) % (b / 2), b / 2
	}
	return global % b, b
}

// VRBlock is one completed block's tallies: plain sums, so blocks merge,
// serialize, and resume exactly.
type VRBlock struct {
	// Y is the sum of per-iteration observations y_i = w_i·1{group i had a
	// DDF} (w_i = 1 unbiased); Z the sum of the weighted control-variate
	// indicators z_i.
	Y float64 `json:"y"`
	Z float64 `json:"z,omitempty"`
	// Y2 is Σ y_i² — the naive (unblocked) variance diagnostic.
	Y2 float64 `json:"y2,omitempty"`
	// C is Σ y_even·y_odd over the block's antithetic pairs and P counts
	// them — the pair-level tally behind the negative-correlation
	// diagnostic.
	C float64 `json:"c,omitempty"`
	P int     `json:"p,omitempty"`
	// N is the number of iterations in the block (== BlockSize except for
	// clipped edge blocks of unaligned runs).
	N int `json:"n"`
}

// VRTally accumulates a run's variance-reduction state: the per-block sums
// plus the analytic control-variate expectation. It rides on SparseResult,
// merges in offset order like the event index, and is what campaign
// checkpoints persist for bit-exact resume.
type VRTally struct {
	// BlockSize is the block length the sums were accumulated under.
	BlockSize int
	// EZ is the analytic expectation of the control variate under the true
	// (untilted) measure: in [0, 1] for the indicator variate, in
	// [0, drives] for the conditional-DDF count.
	EZ float64
	// Blocks holds every completed (or edge-clipped) block in iteration
	// order.
	Blocks []VRBlock
}

// merge appends another tally's blocks; both sides must come from the same
// configuration (equal block size and EZ), which every runner/campaign path
// guarantees by construction.
func (t *VRTally) merge(o *VRTally) {
	if t.BlockSize == 0 {
		t.BlockSize, t.EZ = o.BlockSize, o.EZ
	}
	t.Blocks = append(t.Blocks, o.Blocks...)
}

// Iterations returns the total iteration count across blocks.
func (t *VRTally) Iterations() int {
	n := 0
	for _, b := range t.Blocks {
		n += b.N
	}
	return n
}

// Pairs returns the total antithetic pair count across blocks.
func (t *VRTally) Pairs() int {
	n := 0
	for _, b := range t.Blocks {
		n += b.P
	}
	return n
}

// VRBlockObserver is implemented by collectors that want the block-level
// variance-reduction tallies alongside the per-iteration Observe stream.
// The runner calls it once per block, in block order, after the block's
// iterations have been observed; blockSize and ez are constant over a run.
type VRBlockObserver interface {
	ObserveVRBlock(blockSize int, ez float64, b VRBlock)
}

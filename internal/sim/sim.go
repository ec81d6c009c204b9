// Package sim implements the paper's sequential Monte Carlo simulation of
// an N+1 RAID group (§5). Each iteration simulates one group's chronology
// over the mission: every drive slot carries its own time-to-operational-
// failure, time-to-restore, time-to-latent-defect, and time-to-scrub
// distributions; the engine detects double-disk failures (DDFs) under the
// paper's ordering rules:
//
//   - two overlapping operational failures are a DDF;
//   - an operational failure while another drive carries an uncorrected
//     latent defect is a DDF (defect first, failure second);
//   - an operational failure followed by a latent defect is NOT a DDF,
//     nor are multiple coexisting latent defects;
//   - once a DDF occurs, another cannot occur until the first is restored;
//   - a DDF involving a defective drive clears that defect at the same
//     restore time as the concomitant operational failure.
//
// Two independent implementations of these semantics, cross-validated
// statistically in tests and each pinned by golden per-stream digests
// (testdata/stream_digests.txt), make up three simulators:
//
//   - one discrete-event chronology core with two drivers. EventEngine
//     (and SimulateTraced, which streams Fig.-5 timing diagrams from it)
//     is the one-group driver: the only single-group engine that models
//     finite spare pools and coupled component topologies. The fleet
//     engine (SimulateFleetInto, RunSpec.Fleet) is the many-group driver,
//     coupling groups through a shared spare pool and a bounded repair
//     server. In both, a rebuild that has not started when its DDF occurs
//     — waiting for a spare, a repair slot or component access — carries
//     the DDF's suppression window and concomitant defect repair to the
//     instant it does start;
//   - BlockEngine, a per-slot interval sweep patterned on the paper's
//     Fig. 5 timing diagram, batched in structure-of-arrays form: the
//     default wherever it can run a configuration, and the only engine
//     implementing variance reduction (VR).
//
// RunBatches (and RunCollect, its one-batch call) drives any of them
// through one ordered dispatch loop.
package sim

import (
	"fmt"
	"math"

	"raidrel/internal/dist"
	"raidrel/internal/rng"
)

// Cause discriminates the two double-disk-failure scenarios.
type Cause int

const (
	// CauseOpOp is two simultaneous operational failures.
	CauseOpOp Cause = iota + 1
	// CauseLdOp is an operational failure striking while another drive
	// carries an uncorrected latent defect.
	CauseLdOp
	// CauseUnavail marks the onset of a data-unavailability episode: more
	// drive slots than the redundancy covers are simultaneously lost, with
	// at least one lost to a shared-component failure rather than a drive
	// failure. Unlike the DDF causes it is not data loss — the data comes
	// back when the component is repaired — so every loss statistic
	// (TotalDDFs, cause splits, the campaign CI) excludes it. Only coupled
	// topologies produce it.
	CauseUnavail
)

// String implements fmt.Stringer.
func (c Cause) String() string {
	switch c {
	case CauseOpOp:
		return "op+op"
	case CauseLdOp:
		return "ld+op"
	case CauseUnavail:
		return "unavail"
	default:
		return fmt.Sprintf("cause(%d)", int(c))
	}
}

// DDF is one double-disk-failure event in a group chronology.
type DDF struct {
	Time  float64 // hours into the mission
	Cause Cause
}

// Transitions bundles the four per-drive distributions of the paper's
// Fig. 4. TTLd may be nil to disable latent defects entirely (the Fig. 6
// variants); TTScrub may be nil to model a system that never scrubs (the
// "no scrub" rows of Table 3).
type Transitions struct {
	TTOp    dist.Distribution // time to operational failure of a (new) drive
	TTR     dist.Distribution // time to restore an operational failure
	TTLd    dist.Distribution // time to the next latent defect on a drive
	TTScrub dist.Distribution // time from defect creation to scrub correction
}

// Config describes one simulated RAID group.
type Config struct {
	// Drives is the total number of drives in the group (the paper's N+1).
	Drives int
	// Redundancy is the number of simultaneous drive losses the group
	// tolerates: 1 for RAID 4/5 (the paper's subject), 2 for the RAID 6
	// extension the paper's conclusion anticipates.
	Redundancy int
	// Mission is the simulated horizon in hours (the paper uses 87,600).
	Mission float64
	// Trans are the per-drive transition distributions.
	Trans Transitions
	// SlotTTOp optionally overrides the operational-failure distribution
	// per drive slot — groups assembled from mixed manufacturing vintages
	// (Fig. 2) have genuinely heterogeneous drives. When non-nil its
	// length must equal Drives; nil entries fall back to Trans.TTOp.
	SlotTTOp []dist.Distribution
	// Spares optionally bounds the spare-drive pool; nil means a spare is
	// always on hand (the paper's assumption). Only the event engine
	// supports finite spares: the pool couples the drive slots, which the
	// per-slot block engine cannot express.
	Spares *SparePolicy
	// Topology optionally couples the drive slots through shared
	// components (enclosures, expanders, controllers): a component failure
	// renders every covered slot inaccessible — pausing in-flight rebuilds
	// — until the component is repaired, and sustained inaccessibility
	// beyond the redundancy is recorded as a CauseUnavail onset event. A
	// nil (or component-free) topology is the flat per-drive model and
	// changes nothing; coupled topologies run on the event engine only.
	Topology *Topology
	// Bias optionally turns on failure-biased importance sampling: hazards
	// are scaled up during sampling and each iteration carries a
	// likelihood-ratio weight so the weighted estimator stays unbiased.
	// The zero value is plain (unbiased) Monte Carlo.
	Bias Bias
	// VR optionally turns on block-level variance reduction — antithetic
	// stream pairs, stratified first-failure draws, and/or the analytic
	// control variate — stacking multiplicatively with Bias. Requires the
	// block engine (BlockEngine); the runner enforces this. The zero value
	// is plain independent sampling.
	VR VR
}

// Validate checks the configuration.
func (c Config) Validate() error {
	if c.Drives < 2 {
		return fmt.Errorf("sim: need >= 2 drives, got %d", c.Drives)
	}
	if c.Redundancy < 1 || c.Redundancy >= c.Drives {
		return fmt.Errorf("sim: redundancy %d invalid for %d drives", c.Redundancy, c.Drives)
	}
	if !(c.Mission > 0) || math.IsInf(c.Mission, 0) {
		return fmt.Errorf("sim: mission must be positive and finite, got %v", c.Mission)
	}
	if c.Trans.TTOp == nil {
		return fmt.Errorf("sim: TTOp distribution is required")
	}
	if c.Trans.TTR == nil {
		return fmt.Errorf("sim: TTR distribution is required")
	}
	if c.Trans.TTScrub != nil && c.Trans.TTLd == nil {
		return fmt.Errorf("sim: TTScrub set but latent defects disabled (TTLd nil)")
	}
	if c.SlotTTOp != nil && len(c.SlotTTOp) != c.Drives {
		return fmt.Errorf("sim: %d slot TTOp overrides for %d drives", len(c.SlotTTOp), c.Drives)
	}
	if err := c.Spares.Validate(); err != nil {
		return err
	}
	if err := c.Topology.Validate(c.Drives); err != nil {
		return err
	}
	if c.Topology.Coupled() && c.Spares != nil {
		return fmt.Errorf("sim: a finite spare pool cannot be combined with a coupled component topology")
	}
	if c.Topology.Coupled() && c.VR.Enabled() {
		return fmt.Errorf("sim: variance reduction requires the block engine, which cannot run a coupled component topology; use the event engine without VR")
	}
	if err := c.Bias.validate(); err != nil {
		return err
	}
	if err := c.VR.validate(); err != nil {
		return err
	}
	if c.Bias.ldEnabled() && c.Trans.TTLd == nil {
		return fmt.Errorf("sim: latent-defect bias set but latent defects disabled (TTLd nil)")
	}
	if c.VR.CondVariate && c.Trans.TTLd != nil {
		// The cond variate's analytic expectation integrates a
		// Poisson-thinned live-defect count; a non-memoryless renewal
		// defect process would silently bias EZ.
		if _, ok := dist.AsPoissonRate(c.Trans.TTLd); !ok {
			return fmt.Errorf("sim: the conditional-DDF variate requires a memoryless defect process (exponential TTLd), got TTLd %v", c.Trans.TTLd)
		}
	}
	return nil
}

// ttopFor returns the operational-failure distribution for a slot,
// honouring per-slot overrides.
func (c Config) ttopFor(slot int) dist.Distribution {
	if c.SlotTTOp != nil && c.SlotTTOp[slot] != nil {
		return c.SlotTTOp[slot]
	}
	return c.Trans.TTOp
}

// Engine simulates one RAID-group chronology. SimulateInto appends the
// chronology's DDFs, in chronological order, to buf (which may be nil) and
// returns the extended slice, reusing internal scratch between calls. In
// the paper's rare-event regime almost every iteration returns len(buf)
// unchanged, so a runner that reuses one buffer per worker simulates in a
// zero-allocation steady state.
//
// logW is the iteration's importance-sampling log likelihood-ratio weight,
// the sum of ln(f/g) over every variate drawn from a tilted distribution;
// exactly 0 when cfg.Bias is disabled.
type Engine interface {
	SimulateInto(cfg Config, r *rng.RNG, buf []DDF) (out []DDF, logW float64, err error)
}

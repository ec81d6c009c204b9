// Package cosim bridges the repository's two halves: it replays a
// Monte Carlo group chronology from the reliability model (internal/sim)
// onto a block-level array with real parity (internal/raid) and compares
// verdicts — every statistical DDF should correspond to physically
// unrecoverable stripes, and vice versa. This grounds the model's event
// algebra in actual reconstruction arithmetic.
//
// The correspondence carries the paper's own approximations (§4.2): the
// model decides data loss instantaneously at the failure instant, ignores
// defects created during rebuild windows, and lets scrubs "correct"
// defects even while the group is degraded. Physically those corners play
// out over the rebuild window. Replay counts how often each corner occurs
// so tests can assert exact agreement outside them.
package cosim

import (
	"errors"
	"fmt"
	"math"
	"sort"

	"raidrel/internal/raid"
	"raidrel/internal/rng"
	"raidrel/internal/sim"
)

// PhysicalLoss is one data-loss event observed on the array, after
// applying the model's suppression rule (one loss per outstanding
// restore).
type PhysicalLoss struct {
	// FailTime is the chronology time of the drive failure whose handling
	// exposed the loss — directly comparable to sim.DDF.Time.
	FailTime float64
	// LostSets counts stripe sets that could not be reconstructed
	// (StripeSets for whole-array double failures).
	LostSets int
	// DoubleFailure reports whether the loss came from overlapping
	// whole-disk failures rather than a latent defect met during rebuild.
	DoubleFailure bool
}

// Result compares one chronology's model verdicts with the physical
// replay.
type Result struct {
	ModelDDFs      []sim.DDF
	PhysicalLosses []PhysicalLoss
	// DefectsInjected counts corruptions actually placed on the array.
	DefectsInjected int
	// DefectsRepaired counts scrub corrections applied on a fully
	// healthy array.
	DefectsRepaired int
	// CornerEvents counts chronology events that fell into one of the
	// documented model/physics divergence corners (defects created or
	// scrubs applied while a rebuild was in flight).
	CornerEvents int
	// RepairAnomalies counts scrub corrections that could not be applied
	// physically (stripe unrecoverable at scrub time).
	RepairAnomalies int
}

// Agrees reports whether model and array reached the same verdict. When
// no chronology event hit a divergence corner, the loss events must match
// the model's DDFs one for one (count and, within tolerance, times).
func (r *Result) Agrees() bool {
	if r.CornerEvents > 0 || r.RepairAnomalies > 0 {
		return true // no strict claim inside the documented corners
	}
	if len(r.ModelDDFs) != len(r.PhysicalLosses) {
		return false
	}
	for i, d := range r.ModelDDFs {
		if math.Abs(d.Time-r.PhysicalLosses[i].FailTime) > 1e-9 {
			return false
		}
	}
	return true
}

// Config parameterizes a replay.
type Config struct {
	Sim        sim.Config
	Level      raid.Level
	StripeSets int
	BlockSize  int
}

// location addresses one block on one drive.
type location struct{ set, row int }

// lossCandidate is a physical loss before suppression filtering.
type lossCandidate struct {
	failTime   float64
	restoreEnd float64
	lostSets   int
	double     bool
}

// Replay simulates one traced chronology and replays it on a fresh array.
func Replay(cfg Config, seed uint64) (*Result, error) {
	if cfg.Sim.Drives < 3 {
		return nil, fmt.Errorf("cosim: need >= 3 drives, got %d", cfg.Sim.Drives)
	}
	array, err := raid.New(cfg.Level, cfg.Sim.Drives, cfg.StripeSets, cfg.BlockSize)
	if err != nil {
		return nil, err
	}
	if array.Redundancy() != cfg.Sim.Redundancy {
		return nil, fmt.Errorf("cosim: %v tolerates %d losses but the model assumes %d",
			cfg.Level, array.Redundancy(), cfg.Sim.Redundancy)
	}
	r := rng.ForStream(seed, 0)
	if err := fillArray(array, cfg.BlockSize, r); err != nil {
		return nil, err
	}
	var trace sim.Trace
	ddfs, err := sim.SimulateTraced(cfg.Sim, rng.ForStream(seed, 1), &trace)
	if err != nil {
		return nil, err
	}
	res := &Result{ModelDDFs: ddfs}

	var (
		pending    = make(map[int][]location, cfg.Sim.Drives) // slot -> FIFO of live corruptions
		live       = make(map[location]int)                   // corruption refcount by place
		downSince  = make(map[int]float64, cfg.Sim.Drives)
		overlapped = make(map[int]bool, cfg.Sim.Drives) // rebuild window shared with another failure
		candidates []lossCandidate
		openLoss   = make(map[int]int) // slot -> candidate index awaiting restoreEnd
	)
	rows := array.RowsPerSet()

	for _, e := range trace.Events {
		switch e.Kind {
		case sim.TraceDefect:
			if len(downSince) > 0 {
				// Defect during some rebuild window — the paper's carve-out
				// (on the rebuilding drive itself or a survivor).
				res.CornerEvents++
				if _, isDown := downSince[e.Slot]; isDown {
					continue // cannot corrupt a failed disk
				}
			}
			loc, ok := pickLocation(r, cfg.StripeSets, rows, live)
			if !ok {
				res.CornerEvents++ // array saturated with corruption
				continue
			}
			if err := array.CorruptBlock(e.Slot, loc.set, loc.row); err != nil {
				return nil, fmt.Errorf("cosim: inject defect: %w", err)
			}
			pending[e.Slot] = append(pending[e.Slot], loc)
			live[loc]++
			res.DefectsInjected++

		case sim.TraceScrub:
			queue := pending[e.Slot]
			if len(queue) == 0 {
				continue // defect belonged to a replaced drive
			}
			loc := queue[0]
			pending[e.Slot] = queue[1:]
			releaseLocation(live, loc)
			if len(downSince) > 0 {
				// Scrubbing while degraded: physically the repair may
				// succeed (RAID 6) or fail (RAID 5); either way the model's
				// instantaneous-verdict assumption no longer binds.
				res.CornerEvents++
			}
			if err := array.RepairBlock(e.Slot, loc.set, loc.row); err != nil {
				res.RepairAnomalies++
				continue
			}
			res.DefectsRepaired++

		case sim.TraceOpFail:
			if len(downSince) >= cfg.Sim.Redundancy {
				// Too many drives down at once: whole-array loss.
				candidates = append(candidates, lossCandidate{
					failTime:   e.Time,
					restoreEnd: math.Inf(1), // filled at this slot's restore
					lostSets:   cfg.StripeSets,
					double:     true,
				})
				openLoss[e.Slot] = len(candidates) - 1
			}
			if err := array.FailDisk(e.Slot); err != nil {
				return nil, fmt.Errorf("cosim: fail disk: %w", err)
			}
			// Overlapping failures: rebuild losses in shared windows are
			// consequences of the double failure, not separate events.
			if len(downSince) > 0 {
				overlapped[e.Slot] = true
				for k := range downSince {
					overlapped[k] = true
				}
				// If corruption is also outstanding, defect losses and the
				// double failure entangle in one rebuild window and cannot
				// be attributed to single events physically.
				for _, queue := range pending {
					if len(queue) > 0 {
						res.CornerEvents++
						break
					}
				}
			}
			downSince[e.Slot] = e.Time
			// The dead drive's corruptions die with it.
			for _, loc := range pending[e.Slot] {
				releaseLocation(live, loc)
			}
			delete(pending, e.Slot)

		case sim.TraceOpRestore:
			failTime := downSince[e.Slot]
			delete(downSince, e.Slot)
			rep, err := array.ReplaceDisk(e.Slot)
			if err != nil {
				return nil, fmt.Errorf("cosim: rebuild: %w", err)
			}
			wasOverlapped := overlapped[e.Slot]
			delete(overlapped, e.Slot)
			if idx, ok := openLoss[e.Slot]; ok {
				candidates[idx].restoreEnd = e.Time
				delete(openLoss, e.Slot)
				// Any rebuild losses are consequences of the same event.
			} else if len(rep.LostSets) > 0 && !wasOverlapped {
				candidates = append(candidates, lossCandidate{
					failTime:   failTime,
					restoreEnd: e.Time,
					lostSets:   len(rep.LostSets),
				})
				if len(rep.LostSets) > 1 {
					// Multiple coexisting defects: physics destroys every
					// affected stripe in this one rebuild, while the model
					// truncates only the oldest defect and charges the rest
					// to subsequent failures. Another documented corner.
					res.CornerEvents++
				}
			}
			if len(rep.LostSets) > 0 {
				dropLostSets(pending, live, rep.LostSets)
			}
		}
	}

	// Apply the model's suppression rule: losses whose triggering failure
	// falls inside an earlier loss's restore window are not counted.
	sort.Slice(candidates, func(i, j int) bool { return candidates[i].failTime < candidates[j].failTime })
	suppressUntil := 0.0
	for _, c := range candidates {
		if c.failTime < suppressUntil {
			continue
		}
		res.PhysicalLosses = append(res.PhysicalLosses, PhysicalLoss{
			FailTime:      c.failTime,
			LostSets:      c.lostSets,
			DoubleFailure: c.double,
		})
		suppressUntil = c.restoreEnd
	}
	return res, nil
}

// pickLocation draws an uncorrupted (set, row), avoiding double-XOR
// cancellation at already-corrupt places. Gives up after a few tries on a
// saturated array.
func pickLocation(r *rng.RNG, sets, rows int, live map[location]int) (location, bool) {
	for attempt := 0; attempt < 16; attempt++ {
		loc := location{set: r.Intn(sets), row: r.Intn(rows)}
		if live[loc] == 0 {
			return loc, true
		}
	}
	return location{}, false
}

func releaseLocation(live map[location]int, loc location) {
	if live[loc] > 1 {
		live[loc]--
	} else {
		delete(live, loc)
	}
}

// dropLostSets clears corruption bookkeeping for stripe sets that were
// zero-filled after a loss.
func dropLostSets(pending map[int][]location, live map[location]int, lostSets []int) {
	lost := make(map[int]bool, len(lostSets))
	for _, s := range lostSets {
		lost[s] = true
	}
	for slot, queue := range pending {
		kept := queue[:0]
		for _, loc := range queue {
			if lost[loc.set] {
				releaseLocation(live, loc)
			} else {
				kept = append(kept, loc)
			}
		}
		pending[slot] = kept
	}
}

// fillArray writes random data to every stripe set.
func fillArray(a *raid.Array, blockSize int, r *rng.RNG) error {
	for set := 0; set < a.StripeSets(); set++ {
		data := make([][]byte, a.DataBlocksPerSet())
		for i := range data {
			blk := make([]byte, blockSize)
			for j := range blk {
				blk[j] = byte(r.Intn(256))
			}
			data[i] = blk
		}
		if err := a.WriteStripe(set, data); err != nil {
			return err
		}
	}
	return nil
}

// ErrMismatch is returned by Check when verdicts disagree outside the
// documented carve-outs.
var ErrMismatch = errors.New("cosim: model and physical verdicts disagree")

// Check replays count chronologies and returns an error describing the
// first disagreement outside the carve-outs.
func Check(cfg Config, seed uint64, count int) error {
	for i := 0; i < count; i++ {
		res, err := Replay(cfg, seed+uint64(i))
		if err != nil {
			return err
		}
		if !res.Agrees() {
			return fmt.Errorf("%w: iteration %d: model %d DDFs, physical %d losses",
				ErrMismatch, i, len(res.ModelDDFs), len(res.PhysicalLosses))
		}
	}
	return nil
}

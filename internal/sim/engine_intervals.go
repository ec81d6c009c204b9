package sim

import (
	"math"
	"slices"
	"sort"
	"sync"

	"raidrel/internal/rng"
)

// IntervalEngine is the second, independent implementation of the group
// chronology, patterned directly on the paper's Fig. 5 timing diagram: each
// slot's alternating TTF/TTR sequence and defect intervals are laid out
// first, then the merged failure sequence is swept for DDFs. It must agree
// statistically with EventEngine; the pair cross-validate in tests.
type IntervalEngine struct{}

var _ Engine = IntervalEngine{}

// opInterval is one failure episode of a slot: the drive fails at Fail and
// the replacement is fully restored at RestoreEnd.
type opInterval struct {
	Fail, RestoreEnd float64
}

// defectInterval is one latent defect's lifetime: created at Start,
// corrected (scrub or drive replacement) at End.
type defectInterval struct {
	Start, End float64
}

// slotChronology is a slot's precomputed timeline.
type slotChronology struct {
	ops     []opInterval
	defects []defectInterval
}

// intervalFailure is one operational failure tagged with its slot, for the
// merged fleet-wide sweep.
type intervalFailure struct {
	slot int
	op   opInterval
}

// intervalScratch is the reusable per-worker state of the interval engine:
// per-slot chronologies, the merged failure sequence, and the compiled
// sampler kernels keep their backing arrays across iterations.
type intervalScratch struct {
	chrons []slotChronology
	fails  []intervalFailure
	kern   cfgKernels
}

var intervalScratchPool = sync.Pool{New: func() any { return new(intervalScratch) }}

// SimulateInto implements Engine: one chronology, DDFs appended to
// buf, internal scratch pooled and reused across calls. The returned logW
// is the iteration's importance-sampling log weight (0 when unbiased).
func (IntervalEngine) SimulateInto(cfg Config, r *rng.RNG, buf []DDF) ([]DDF, float64, error) {
	if err := cfg.Validate(); err != nil {
		return buf, 0, err
	}
	if cfg.Spares != nil {
		return buf, 0, errUnsupported("interval", "a finite spare pool")
	}
	if cfg.Topology.Coupled() {
		return buf, 0, errUnsupported("interval", "a coupled component topology")
	}
	sc := intervalScratchPool.Get().(*intervalScratch)
	defer func() {
		sc.kern.release()
		intervalScratchPool.Put(sc)
	}()
	sc.kern.compile(&cfg)
	if cap(sc.chrons) < cfg.Drives {
		grown := make([]slotChronology, cfg.Drives)
		copy(grown, sc.chrons[:cap(sc.chrons)])
		sc.chrons = grown
	}
	sc.chrons = sc.chrons[:cfg.Drives]
	chrons := sc.chrons
	logW := 0.0
	for i := range chrons {
		chrons[i].ops = chrons[i].ops[:0]
		chrons[i].defects = chrons[i].defects[:0]
		logW += buildSlotChronology(&cfg, &sc.kern, i, r, &chrons[i])
	}

	// Merge every operational failure, tagged with its slot.
	fails := sc.fails[:0]
	for slot := range chrons {
		for _, op := range chrons[slot].ops {
			fails = append(fails, intervalFailure{slot: slot, op: op})
		}
	}
	sc.fails = fails
	// slices.SortFunc rather than sort.Slice: the latter builds a
	// reflection-based swapper, one heap allocation per call — the only
	// allocation this engine's hot path had left.
	slices.SortFunc(fails, func(a, b intervalFailure) int {
		switch {
		case a.op.Fail < b.op.Fail:
			return -1
		case a.op.Fail > b.op.Fail:
			return 1
		default:
			return 0
		}
	})

	var suppressUntil float64
	for _, f := range fails {
		t := f.op.Fail
		if t > cfg.Mission {
			break
		}
		if t < suppressUntil {
			continue
		}
		failedOthers := 0
		defectSlot, defectIdx := -1, -1
		defectStart := math.Inf(1)
		for k := range chrons {
			if k == f.slot {
				continue
			}
			if opFailedAt(chrons[k].ops, t) {
				failedOthers++
				continue
			}
			for di, d := range chrons[k].defects {
				if d.Start <= t && t < d.End && d.Start < defectStart {
					defectStart = d.Start
					defectSlot, defectIdx = k, di
				}
			}
		}
		switch {
		case failedOthers >= cfg.Redundancy:
			buf = append(buf, DDF{Time: t, Cause: CauseOpOp})
			suppressUntil = f.op.RestoreEnd
		case failedOthers == cfg.Redundancy-1 && defectSlot >= 0:
			buf = append(buf, DDF{Time: t, Cause: CauseLdOp})
			suppressUntil = f.op.RestoreEnd
			// The defective drive is repaired with the failed one: its
			// defect ends at the concomitant restore rather than running to
			// its natural scrub time.
			if f.op.RestoreEnd < chrons[defectSlot].defects[defectIdx].End {
				chrons[defectSlot].defects[defectIdx].End = f.op.RestoreEnd
			}
		}
	}
	return buf, logW, nil
}

// opFailedAt reports whether the slot is inside a failure episode at t.
// Episodes are chronological and non-overlapping by construction.
func opFailedAt(ops []opInterval, t float64) bool {
	i := sort.Search(len(ops), func(i int) bool { return ops[i].Fail > t })
	return i > 0 && t < ops[i-1].RestoreEnd
}

// buildSlotChronology lays out one slot's alternating up/down episodes and
// its defect intervals into ch, mirroring the event engine's semantics:
// drive generation g runs from its installation (the previous drive's
// failure time) to its own failure; defects arrive by renewal within that
// window and end at scrub completion or the drive's own failure, whichever
// is first. Returns the slot's importance-sampling log weight.
//
// Under bias the two engines censor defect chains at different horizons
// (this engine at the generation window, the event engine at the mission),
// so per-iteration weights differ between engines even on the same stream;
// both weightings are valid for their own chronology construction and the
// weighted estimates agree statistically.
func buildSlotChronology(cfg *Config, kern *cfgKernels, slot int, r *rng.RNG, ch *slotChronology) float64 {
	logW := 0.0
	genStart := 0.0 // installation time of the current drive
	upFrom := 0.0   // operational-clock start of the current drive
	for {
		// Under bias the draw is censored at the residual mission: a drive
		// whose failure lands past the mission contributes no further
		// in-mission episodes, matching the event engine's discard boundary.
		dt, logLR := kern.drawTTOp(cfg, slot, upFrom, r)
		logW += logLR
		fail := upFrom + dt
		end := fail
		if end > cfg.Mission {
			end = cfg.Mission
		}
		if cfg.Trans.latentEnabled() {
			logW += appendDefects(cfg, kern, r, ch, genStart, end, fail)
		}
		if fail > cfg.Mission {
			break
		}
		restore := fail + kern.ttr.Draw(r)
		ch.ops = append(ch.ops, opInterval{Fail: fail, RestoreEnd: restore})
		genStart = fail
		upFrom = restore
		if restore > cfg.Mission {
			// Defects on the replacement during a rebuild that outlives the
			// mission cannot affect any in-mission failure check.
			break
		}
	}
	return logW
}

// appendDefects renewal-samples defect arrivals on [genStart, windowEnd)
// and records their lifetimes, truncated at driveFail (the drive's own
// failure clears its defects). Returns the chain's importance-sampling
// log weight; biased arrivals are censored at windowEnd, the boundary
// past which the chain stops.
func appendDefects(cfg *Config, kern *cfgKernels, r *rng.RNG, ch *slotChronology, genStart, windowEnd, driveFail float64) float64 {
	logW := 0.0
	t := genStart
	if kern.plainTTLd {
		// The dominant configuration — plain renewal defects — resolved
		// once, keeping nextDefect's process dispatch out of the arrival
		// loop. Draw-for-draw identical to the generic path below.
		hasScrub := cfg.Trans.TTScrub != nil
		for {
			t += kern.ttld.Draw(r)
			if t >= windowEnd {
				return 0
			}
			end := math.Inf(1)
			if hasScrub {
				end = t + kern.scrub.Draw(r)
			}
			if end > driveFail {
				end = driveFail
			}
			ch.defects = append(ch.defects, defectInterval{Start: t, End: end})
		}
	}
	for {
		next, logLR := kern.nextDefect(cfg, t, windowEnd, r)
		logW += logLR
		t = next
		if t >= windowEnd {
			return logW
		}
		end := math.Inf(1)
		if cfg.Trans.TTScrub != nil {
			end = t + kern.scrub.Draw(r)
		}
		if end > driveFail {
			end = driveFail
		}
		ch.defects = append(ch.defects, defectInterval{Start: t, End: end})
	}
}

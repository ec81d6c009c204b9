package campaign

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"time"

	"raidrel/internal/stats"
)

// Snapshot is one telemetry frame, emitted after every batch and once
// more when the campaign stops.
type Snapshot struct {
	// Iterations completed so far (== next RNG stream index).
	Iterations int
	// Batches executed so far, including restored ones.
	Batches int
	// TotalDDFs, OpOpDDFs, LdOpDDFs are the running event counts by cause.
	TotalDDFs, OpOpDDFs, LdOpDDFs int
	// UnavailEvents is the running count of unavailability onsets (coupled
	// topologies only); never part of the loss counts above.
	UnavailEvents int
	// GroupsWithDDF is the binomial numerator of the stopping statistic.
	GroupsWithDDF int
	// CI is the current interval on the per-group DDF probability (Wilson,
	// or weighted-normal under importance sampling).
	CI stats.Interval
	// RelErr is CI's relative half-width (+Inf until a DDF is seen).
	RelErr float64
	// ESS is the effective sample size of the importance weights; zero for
	// unbiased campaigns.
	ESS float64
	// VRPairs, VRCoeff, VRFactor mirror the Result diagnostics of a
	// variance-reduced campaign: completed antithetic pairs, the fitted
	// control-variate coefficient, and the estimated variance-reduction
	// factor. All zero when VR is off.
	VRPairs  int
	VRCoeff  float64
	VRFactor float64
	// VRByVariate attributes VRFactor to the individual techniques; nil
	// until the factor is measurable or when VR is off.
	VRByVariate *VRBreakdown
	// Rate is iterations per second in this process (0 until measurable).
	Rate float64
	// Elapsed is wall-clock time in this process's campaign loop.
	Elapsed time.Duration
	// ETA estimates the remaining time until some stopping rule fires;
	// negative when no estimate is possible yet.
	ETA time.Duration
	// Done marks the final snapshot; Reason says why the campaign ended.
	Done   bool
	Reason StopReason
}

// snapshotJSON is the wire form of a Snapshot: flat, machine-readable, and
// free of JSON-hostile values (`+Inf` relative errors and negative "unknown"
// ETAs are omitted rather than encoded). It is the line format of
// JSONProgress and the frame format of the raidreld streaming endpoint.
type snapshotJSON struct {
	Iterations    int          `json:"iterations"`
	Batches       int          `json:"batches"`
	TotalDDFs     int          `json:"ddfs"`
	OpOpDDFs      int          `json:"ddfs_op_op"`
	LdOpDDFs      int          `json:"ddfs_ld_op"`
	UnavailEvents int          `json:"unavail,omitempty"`
	GroupsWithDDF int          `json:"groups_with_ddf"`
	P             float64      `json:"p"`
	CILo          float64      `json:"ci_lo"`
	CIHi          float64      `json:"ci_hi"`
	Confidence    float64      `json:"confidence,omitempty"`
	RelErr        *float64     `json:"rel_err,omitempty"`
	ESS           float64      `json:"ess,omitempty"`
	VRPairs       int          `json:"vr_pairs,omitempty"`
	VRCoeff       float64      `json:"vr_coeff,omitempty"`
	VRFactor      float64      `json:"vr_factor,omitempty"`
	VRBreakdown   *VRBreakdown `json:"vr_breakdown,omitempty"`
	Rate          float64      `json:"rate,omitempty"`
	ElapsedS      float64      `json:"elapsed_s"`
	ETAS          *float64     `json:"eta_s,omitempty"`
	Done          bool         `json:"done,omitempty"`
	Reason        string       `json:"reason,omitempty"`
}

// MarshalJSON implements json.Marshaler with the snapshotJSON wire form.
func (s Snapshot) MarshalJSON() ([]byte, error) {
	doc := snapshotJSON{
		Iterations:    s.Iterations,
		Batches:       s.Batches,
		TotalDDFs:     s.TotalDDFs,
		OpOpDDFs:      s.OpOpDDFs,
		LdOpDDFs:      s.LdOpDDFs,
		UnavailEvents: s.UnavailEvents,
		GroupsWithDDF: s.GroupsWithDDF,
		P:             phat(s),
		CILo:          s.CI.Lo,
		CIHi:          s.CI.Hi,
		Confidence:    s.CI.Level,
		ESS:           s.ESS,
		VRPairs:       s.VRPairs,
		VRCoeff:       s.VRCoeff,
		VRFactor:      s.VRFactor,
		VRBreakdown:   s.VRByVariate,
		Rate:          s.Rate,
		ElapsedS:      s.Elapsed.Seconds(),
		Done:          s.Done,
	}
	if !math.IsInf(s.RelErr, 1) {
		doc.RelErr = &s.RelErr
	}
	if !s.Done && s.ETA >= 0 {
		etas := s.ETA.Seconds()
		doc.ETAS = &etas
	}
	if s.Done {
		doc.Reason = s.Reason.String()
	}
	return json.Marshal(doc)
}

// UnmarshalJSON inverts MarshalJSON, so Go clients of the wire form (a
// raidsim -progress=json log, a raidreld SSE frame or status document) can
// decode frames back into Snapshots. Omitted fields take their "unknown"
// in-memory values: a missing rel_err is +Inf, a missing eta_s is -1.
func (s *Snapshot) UnmarshalJSON(data []byte) error {
	var doc snapshotJSON
	if err := json.Unmarshal(data, &doc); err != nil {
		return err
	}
	*s = Snapshot{
		Iterations:    doc.Iterations,
		Batches:       doc.Batches,
		TotalDDFs:     doc.TotalDDFs,
		OpOpDDFs:      doc.OpOpDDFs,
		LdOpDDFs:      doc.LdOpDDFs,
		UnavailEvents: doc.UnavailEvents,
		GroupsWithDDF: doc.GroupsWithDDF,
		CI:            stats.Interval{Lo: doc.CILo, Hi: doc.CIHi, Level: doc.Confidence},
		RelErr:        math.Inf(1),
		ESS:           doc.ESS,
		VRPairs:       doc.VRPairs,
		VRCoeff:       doc.VRCoeff,
		VRFactor:      doc.VRFactor,
		VRByVariate:   doc.VRBreakdown,
		Rate:          doc.Rate,
		Elapsed:       time.Duration(doc.ElapsedS * float64(time.Second)),
		ETA:           -1,
		Done:          doc.Done,
		Reason:        parseStopReason(doc.Reason),
	}
	if doc.RelErr != nil {
		s.RelErr = *doc.RelErr
	}
	if doc.ETAS != nil {
		s.ETA = time.Duration(*doc.ETAS * float64(time.Second))
	}
	if s.Done {
		s.ETA = 0
	}
	return nil
}

// parseStopReason inverts StopReason.String; unknown strings (including
// the empty in-flight frame) map to StopNone.
func parseStopReason(text string) StopReason {
	for r := StopNone; r <= StopCancelled; r++ {
		if r.String() == text {
			return r
		}
	}
	return StopNone
}

// Progress receives campaign telemetry. Implementations must tolerate
// being called from the orchestrator goroutine between batches; a slow
// sink slows the campaign.
type Progress interface {
	Report(Snapshot)
}

// ProgressFunc adapts a function to the Progress interface.
type ProgressFunc func(Snapshot)

// Report implements Progress.
func (f ProgressFunc) Report(s Snapshot) { f(s) }

// report builds a Snapshot from the result view and forwards it.
func report(spec Spec, res *Result, start time.Time, done bool) {
	if spec.Progress == nil {
		return
	}
	s := Snapshot{
		Iterations:    res.Iterations,
		Batches:       res.Batches,
		GroupsWithDDF: res.GroupsWithDDF,
		CI:            res.CI,
		RelErr:        res.RelErr,
		ESS:           res.ESS,
		VRPairs:       res.VRPairs,
		VRCoeff:       res.VRCoeff,
		VRFactor:      res.VRFactor,
		VRByVariate:   res.VRByVariate,
		Elapsed:       res.Elapsed,
		ETA:           -1,
		Done:          done,
		Reason:        res.Reason,
	}
	if res.Run != nil {
		s.TotalDDFs = res.Run.TotalDDFs
		s.OpOpDDFs = res.Run.OpOpDDFs
		s.LdOpDDFs = res.Run.LdOpDDFs
		s.UnavailEvents = res.Run.UnavailEvents
	}
	if secs := res.Elapsed.Seconds(); secs > 0 && res.Iterations > res.ResumedFrom {
		s.Rate = float64(res.Iterations-res.ResumedFrom) / secs
	}
	if !done {
		s.ETA = eta(spec, s)
	} else {
		s.ETA = 0
	}
	spec.Progress.Report(s)
}

// eta estimates time to the nearest stopping rule, or -1 when unknown.
// The precision rule scales like 1/√n: reaching target t from relative
// half-width r at n iterations needs roughly n·(r/t)² total iterations.
func eta(spec Spec, s Snapshot) time.Duration {
	best := time.Duration(-1)
	consider := func(d time.Duration) {
		if d < 0 {
			return
		}
		if best < 0 || d < best {
			best = d
		}
	}
	if s.Rate > 0 {
		if spec.TargetRelErr > 0 && !math.IsInf(s.RelErr, 1) && s.RelErr > spec.TargetRelErr {
			ratio := s.RelErr / spec.TargetRelErr
			needed := float64(s.Iterations) * ratio * ratio
			consider(time.Duration((needed - float64(s.Iterations)) / s.Rate * float64(time.Second)))
		}
		if spec.MaxIterations > 0 {
			consider(time.Duration(float64(spec.MaxIterations-s.Iterations) / s.Rate * float64(time.Second)))
		}
	}
	if spec.MaxDuration > 0 {
		remaining := spec.MaxDuration - s.Elapsed
		if remaining < 0 {
			// Elapsed already past the budget: the stop fires at the next
			// batch boundary. Clamp to 0 rather than letting the negative
			// value be discarded as "unknown".
			remaining = 0
		}
		consider(remaining)
	}
	return best
}

// WriterProgress returns a Progress sink that prints one status line per
// snapshot to w. It is the default reporter behind raidsim -progress. The
// final "done" line repeats the estimate, CI, and relative error of the
// in-flight lines, so a log's last line carries the campaign's verdict.
func WriterProgress(w io.Writer) Progress {
	return ProgressFunc(func(s Snapshot) {
		if s.Done {
			fmt.Fprintf(w, "campaign: done (%s): %d iterations in %d batches, %s: %d DDFs (%d op+op, %d ld+op) p=%.3g ci%.0f=[%.3g, %.3g] relerr=%s%s\n",
				s.Reason, s.Iterations, s.Batches, s.Elapsed.Round(time.Millisecond),
				s.TotalDDFs, s.OpOpDDFs, s.LdOpDDFs,
				phat(s), s.CI.Level*100, s.CI.Lo, s.CI.Hi, relErrString(s.RelErr), essString(s)+vrString(s)+unavailString(s))
			return
		}
		fmt.Fprintf(w, "campaign: %d iters (%.0f/s) ddf=%d (%d op+op, %d ld+op) p=%.3g ci%.0f=[%.3g, %.3g] relerr=%s%s eta=%s\n",
			s.Iterations, s.Rate, s.TotalDDFs, s.OpOpDDFs, s.LdOpDDFs,
			phat(s), s.CI.Level*100, s.CI.Lo, s.CI.Hi, relErrString(s.RelErr), essString(s)+vrString(s)+unavailString(s), etaString(s.ETA))
	})
}

// StderrProgress returns the default reporter writing to standard error.
func StderrProgress() Progress { return WriterProgress(os.Stderr) }

// JSONProgress returns a Progress sink that writes one JSON object per
// snapshot to w, newline-delimited — the machine-readable counterpart of
// WriterProgress, behind raidsim -progress=json and the raidreld streaming
// endpoint. Encoding errors are swallowed: telemetry must never abort a
// campaign.
func JSONProgress(w io.Writer) Progress {
	enc := json.NewEncoder(w)
	return ProgressFunc(func(s Snapshot) {
		_ = enc.Encode(s) // Encode appends the newline
	})
}

// phat is the snapshot's Result.PointEstimate.
func phat(s Snapshot) float64 {
	r := Result{Iterations: s.Iterations, GroupsWithDDF: s.GroupsWithDDF, CI: s.CI, ESS: s.ESS, VRFactor: s.VRFactor}
	return r.PointEstimate()
}

func vrString(s Snapshot) string {
	if s.VRFactor <= 0 {
		return ""
	}
	out := fmt.Sprintf(" vr=%.2gx", s.VRFactor)
	if bd := s.VRByVariate; bd != nil {
		parts := ""
		appendPart := func(name string, f float64) {
			if f > 0 {
				if parts != "" {
					parts += " "
				}
				parts += fmt.Sprintf("%s=%.2gx", name, f)
			}
		}
		appendPart("anti", bd.Antithetic)
		appendPart("strat", bd.Stratified)
		appendPart("cv", bd.Control)
		appendPart("cond", bd.Cond)
		if parts != "" {
			out += " (" + parts + ")"
		}
	}
	return out
}

func unavailString(s Snapshot) string {
	if s.UnavailEvents > 0 {
		return fmt.Sprintf(" unavail=%d", s.UnavailEvents)
	}
	return ""
}

func essString(s Snapshot) string {
	if s.ESS > 0 {
		return fmt.Sprintf(" ess=%.1f", s.ESS)
	}
	return ""
}

func relErrString(r float64) string {
	if math.IsInf(r, 1) {
		return "inf"
	}
	return fmt.Sprintf("%.3f", r)
}

func etaString(d time.Duration) string {
	if d < 0 {
		return "unknown"
	}
	return d.Round(time.Second).String()
}

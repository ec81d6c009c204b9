package service

import (
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"net/http"
	"strconv"
	"time"

	"raidrel/internal/campaign"
	"raidrel/internal/sim"
)

// Handler returns raidreld's HTTP/JSON API:
//
//	POST   /v1/jobs            submit a JobSpec; identical specs coalesce
//	GET    /v1/jobs            list jobs
//	GET    /v1/jobs/{id}        job status + latest progress
//	GET    /v1/jobs/{id}/result final result (events included)
//	GET    /v1/jobs/{id}/stream live progress, one SSE frame per batch
//	DELETE /v1/jobs/{id}        cancel (checkpoint stays current)
//	POST   /v1/merge           merge completed shard jobs exactly
//	GET    /healthz            liveness + drain state
//	GET    /metrics            counter snapshot
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/jobs", s.handleSubmit)
	mux.HandleFunc("GET /v1/jobs", s.handleList)
	mux.HandleFunc("GET /v1/jobs/{id}", s.handleStatus)
	mux.HandleFunc("GET /v1/jobs/{id}/result", s.handleResult)
	mux.HandleFunc("GET /v1/jobs/{id}/stream", s.handleStream)
	mux.HandleFunc("DELETE /v1/jobs/{id}", s.handleCancel)
	mux.HandleFunc("POST /v1/merge", s.handleMerge)
	mux.HandleFunc("GET /healthz", s.handleHealth)
	mux.HandleFunc("GET /metrics", s.handleMetrics)
	return mux
}

// jobDoc is the wire view of a job's status.
type jobDoc struct {
	ID          string             `json:"id"`
	State       JobState           `json:"state"`
	Fingerprint string             `json:"fingerprint"`
	Priority    int                `json:"priority,omitempty"`
	Shard       *Shard             `json:"shard,omitempty"`
	Merged      bool               `json:"merged,omitempty"`
	Cached      bool               `json:"cached,omitempty"`
	Coalesced   bool               `json:"coalesced,omitempty"`
	SubmittedAt string             `json:"submitted_at,omitempty"`
	StartedAt   string             `json:"started_at,omitempty"`
	FinishedAt  string             `json:"finished_at,omitempty"`
	Progress    *campaign.Snapshot `json:"progress,omitempty"`
	Error       string             `json:"error,omitempty"`
}

func stamp(t time.Time) string {
	if t.IsZero() {
		return ""
	}
	return t.UTC().Format(time.RFC3339Nano)
}

func (s *Server) jobDoc(j *Job) jobDoc {
	j.mu.Lock()
	defer j.mu.Unlock()
	doc := jobDoc{
		ID:          j.ID,
		State:       j.state,
		Fingerprint: j.Fingerprint,
		Priority:    j.Spec.Priority,
		Shard:       j.Spec.Shard,
		Merged:      j.Merged,
		SubmittedAt: stamp(j.submitted),
		StartedAt:   stamp(j.started),
		FinishedAt:  stamp(j.finished),
	}
	if j.hasSnap {
		snap := j.last
		doc.Progress = &snap
	}
	if j.err != nil {
		doc.Error = j.err.Error()
	}
	return doc
}

// resultHead is the wire view of a finished campaign minus its events:
// every key of the result body but the last, "events", which
// encodeResult appends after it.
type resultHead struct {
	ID            string `json:"id"`
	Fingerprint   string `json:"fingerprint"`
	Iterations    int    `json:"iterations"`
	ResumedFrom   int    `json:"resumed_from,omitempty"`
	Batches       int    `json:"batches,omitempty"`
	GroupsWithDDF int    `json:"groups_with_ddf"`
	TotalDDFs     int    `json:"ddfs"`
	OpOpDDFs      int    `json:"ddfs_op_op"`
	LdOpDDFs      int    `json:"ddfs_ld_op"`
	// Unavailability statistics of coupled-topology campaigns: onset
	// events, groups with at least one episode, and the onset rate per
	// 1,000 groups. All omitted for flat campaigns, keeping the legacy
	// wire form byte-identical.
	UnavailEvents     int     `json:"unavail,omitempty"`
	GroupsWithUnavail int     `json:"groups_with_unavail,omitempty"`
	UnavailPer1000    float64 `json:"unavail_per_1000_groups,omitempty"`
	// Fleet carries the heal-backlog tally of fleet campaigns (coupled
	// groups sharing spares and repair bandwidth); omitted for
	// independent-group campaigns, keeping the legacy wire form intact.
	Fleet      *sim.FleetTally `json:"fleet,omitempty"`
	P          float64         `json:"p"`
	CILo       float64         `json:"ci_lo"`
	CIHi       float64         `json:"ci_hi"`
	Confidence float64         `json:"confidence"`
	RelErr     *float64        `json:"rel_err,omitempty"`
	ESS        float64         `json:"ess,omitempty"`
	VRPairs    int             `json:"vr_pairs,omitempty"`
	VRCoeff    float64         `json:"vr_coeff,omitempty"`
	VRFactor   float64         `json:"vr_factor,omitempty"`
	// VRBreakdown attributes vr_factor to the individual techniques;
	// omitted until measurable or when VR is off.
	VRBreakdown *campaign.VRBreakdown `json:"vr_breakdown,omitempty"`
	DDFsPer1000 float64               `json:"ddfs_per_1000_groups"`
	Reason      string                `json:"reason"`
	ElapsedS    float64               `json:"elapsed_s"`
}

func newResultHead(j *Job, res *campaign.Result) resultHead {
	head := resultHead{
		ID:            j.ID,
		Fingerprint:   j.Fingerprint,
		Iterations:    res.Iterations,
		ResumedFrom:   res.ResumedFrom,
		Batches:       res.Batches,
		GroupsWithDDF: res.GroupsWithDDF,
		P:             res.PointEstimate(),
		Confidence:    res.CI.Level,
		CILo:          res.CI.Lo,
		CIHi:          res.CI.Hi,
		ESS:           res.ESS,
		VRPairs:       res.VRPairs,
		VRCoeff:       res.VRCoeff,
		VRFactor:      res.VRFactor,
		VRBreakdown:   res.VRByVariate,
		Reason:        res.Reason.String(),
		ElapsedS:      res.Elapsed.Seconds(),
	}
	if j.Merged {
		head.Reason = "merged"
	}
	if !math.IsInf(res.RelErr, 1) {
		relErr := res.RelErr
		head.RelErr = &relErr
	}
	if run := res.Run; run != nil {
		head.TotalDDFs = run.TotalDDFs
		head.OpOpDDFs = run.OpOpDDFs
		head.LdOpDDFs = run.LdOpDDFs
		head.UnavailEvents = run.UnavailEvents
		head.GroupsWithUnavail = res.GroupsWithUnavail
		if run.Fleet != nil {
			fleet := *run.Fleet
			head.Fleet = &fleet
		}
		head.DDFsPer1000, head.UnavailPer1000 = j.rates.ddfs, j.rates.unavail
	}
	return head
}

// resultRates are the importance-weighted rates per 1,000 groups of a
// finished result's events, fixed once its run is: computed when the job
// finishes or is merged, not on every result request.
type resultRates struct {
	ddfs, unavail float64
}

// ratesOf scans res's events for its weighted rates; zero without a run
// or iterations.
func ratesOf(res *campaign.Result) resultRates {
	if res == nil || res.Run == nil || res.Iterations == 0 {
		return resultRates{}
	}
	total, _, _ := res.Run.WeightedCauseTotals()
	n := float64(res.Iterations)
	return resultRates{ddfs: total * 1000 / n, unavail: res.Run.WeightedUnavailTotal() * 1000 / n}
}

// eventBytes is a typical indented event's size in the result body, the
// per-event share of encodeResult's initial buffer.
const eventBytes = 80

// encodeResult renders a finished job's result body: the indented
// resultHead with an "events" key spliced in last (null when the result
// has no run), then a newline. The bytes are exactly what encoding/json
// writes, under a two-space indent, for the head with an events slice of
// {"g", "t", "c", "lw" omitempty} objects appended as its last field; the
// tests hold that encoder as the oracle. The events are appended straight
// from the run, with no per-event copy and no reflection.
func encodeResult(j *Job, res *campaign.Result) ([]byte, error) {
	head, err := json.MarshalIndent(newResultHead(j, res), "", "  ")
	if err != nil {
		return nil, err
	}
	var events []sim.GroupEvent
	if res.Run != nil {
		events = res.Run.Events
	}
	const key = ",\n  \"events\": "
	body := make([]byte, 0, len(head)+len(key)+len(events)*eventBytes+len("null\n}\n"))
	body = append(body, head[:len(head)-len("\n}")]...)
	body = append(body, key...)
	if res.Run == nil {
		body = append(body, "null"...)
	} else if body, err = appendEvents(body, events); err != nil {
		return nil, err
	}
	return append(body, "\n}\n"...), nil
}

// appendEvents appends events as the indented JSON array under the
// result body's top-level "events" key: one object per DDF in the
// checkpoint file's flat key scheme (group, time, cause, and, when
// importance sampling, the group's log likelihood-ratio weight "lw",
// left out when 0).
func appendEvents(dst []byte, events []sim.GroupEvent) ([]byte, error) {
	if len(events) == 0 {
		return append(dst, "[]"...), nil
	}
	dst = append(dst, '[')
	var err error
	for i, e := range events {
		if i > 0 {
			dst = append(dst, ',')
		}
		dst = append(dst, "\n    {\n      \"g\": "...)
		dst = strconv.AppendInt(dst, int64(e.Group), 10)
		dst = append(dst, ",\n      \"t\": "...)
		if dst, err = campaign.AppendJSONFloat(dst, e.Time); err != nil {
			return nil, err
		}
		dst = append(dst, ",\n      \"c\": "...)
		dst = strconv.AppendInt(dst, int64(e.Cause), 10)
		if e.LogW != 0 {
			dst = append(dst, ",\n      \"lw\": "...)
			if dst, err = campaign.AppendJSONFloat(dst, e.LogW); err != nil {
				return nil, err
			}
		}
		dst = append(dst, "\n    }"...)
	}
	return append(dst, "\n  ]"...), nil
}

// writeResult answers with a finished job's result body, or 500 when it
// has no JSON form.
func writeResult(w http.ResponseWriter, j *Job, res *campaign.Result) {
	body, err := encodeResult(j, res)
	if err != nil {
		writeErr(w, http.StatusInternalServerError, fmt.Errorf("encode result of job %s: %w", j.ID, err))
		return
	}
	writeBody(w, http.StatusOK, body)
}

// writeJSON answers code with v as indented JSON and a trailing newline,
// or 500 when v has no JSON form: the body is encoded whole before the
// status line goes out, so a failed encoding never yields a cut-off 200.
func writeJSON(w http.ResponseWriter, code int, v any) {
	body, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		writeErr(w, http.StatusInternalServerError, fmt.Errorf("encode response: %w", err))
		return
	}
	writeBody(w, code, append(body, '\n'))
}

// writeBody answers code with an encoded JSON body and its length.
func writeBody(w http.ResponseWriter, code int, body []byte) {
	h := w.Header()
	h.Set("Content-Type", "application/json")
	h.Set("Content-Length", strconv.Itoa(len(body)))
	w.WriteHeader(code)
	_, _ = w.Write(body)
}

func writeErr(w http.ResponseWriter, code int, err error) {
	writeJSON(w, code, map[string]string{"error": err.Error()})
}

// maxBodyBytes caps a request body (job spec or merge manifest). Real
// bodies are a few KiB — a large component topology stays well under
// 64 KiB — so 1 MiB only ever stops a client that would otherwise make the
// decoder buffer an unbounded body in memory.
const maxBodyBytes = 1 << 20

// decodeBody decodes r's JSON body into v, rejecting unknown fields and
// bodies over maxBodyBytes. On failure it writes the error response — 413
// for an oversized body, 400 otherwise — and returns false.
func decodeBody(w http.ResponseWriter, r *http.Request, v any, what string) bool {
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxBodyBytes))
	dec.DisallowUnknownFields()
	err := dec.Decode(v)
	if err == nil {
		return true
	}
	var tooBig *http.MaxBytesError
	if errors.As(err, &tooBig) {
		writeErr(w, http.StatusRequestEntityTooLarge, fmt.Errorf("%s exceeds %d bytes", what, tooBig.Limit))
		return false
	}
	writeErr(w, http.StatusBadRequest, fmt.Errorf("bad %s: %w", what, err))
	return false
}

func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	var spec JobSpec
	if !decodeBody(w, r, &spec, "job spec") {
		return
	}
	j, reused, err := s.Submit(spec)
	switch {
	case errors.Is(err, ErrDraining):
		writeErr(w, http.StatusServiceUnavailable, err)
		return
	case err != nil:
		writeErr(w, http.StatusBadRequest, err)
		return
	}
	doc := s.jobDoc(j)
	code := http.StatusAccepted
	if reused {
		if doc.State == JobDone {
			doc.Cached = true
			code = http.StatusOK
		} else {
			doc.Coalesced = true
		}
	}
	writeJSON(w, code, doc)
}

func (s *Server) handleList(w http.ResponseWriter, r *http.Request) {
	jobs := s.Jobs()
	docs := make([]jobDoc, 0, len(jobs))
	for _, j := range jobs {
		docs = append(docs, s.jobDoc(j))
	}
	writeJSON(w, http.StatusOK, docs)
}

func (s *Server) handleStatus(w http.ResponseWriter, r *http.Request) {
	j, ok := s.Job(r.PathValue("id"))
	if !ok {
		writeErr(w, http.StatusNotFound, fmt.Errorf("unknown job %s", r.PathValue("id")))
		return
	}
	writeJSON(w, http.StatusOK, s.jobDoc(j))
}

func (s *Server) handleResult(w http.ResponseWriter, r *http.Request) {
	j, ok := s.Job(r.PathValue("id"))
	if !ok {
		writeErr(w, http.StatusNotFound, fmt.Errorf("unknown job %s", r.PathValue("id")))
		return
	}
	// State first: a job's result and error are set together with its
	// terminal state and never cleared, so a done job's result is there.
	state := j.State()
	res, err := j.Result()
	switch state {
	case JobDone:
		writeResult(w, j, res)
	case JobFailed:
		writeErr(w, http.StatusInternalServerError, fmt.Errorf("job %s failed: %v", j.ID, err))
	default:
		writeErr(w, http.StatusConflict, fmt.Errorf("job %s is %s, result not available", j.ID, state))
	}
}

func (s *Server) handleCancel(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	j, ok := s.Job(id)
	if !ok {
		writeErr(w, http.StatusNotFound, fmt.Errorf("unknown job %s", id))
		return
	}
	if err := s.Cancel(id); err != nil {
		writeErr(w, http.StatusConflict, err)
		return
	}
	writeJSON(w, http.StatusOK, s.jobDoc(j))
}

// handleStream serves live campaign progress as Server-Sent Events: one
// `data:` frame per batch in the campaign.Snapshot JSON schema (the same
// line format as raidsim -progress=json), then a terminal `event: end`
// frame carrying the job's final state.
func (s *Server) handleStream(w http.ResponseWriter, r *http.Request) {
	j, ok := s.Job(r.PathValue("id"))
	if !ok {
		writeErr(w, http.StatusNotFound, fmt.Errorf("unknown job %s", r.PathValue("id")))
		return
	}
	flusher, ok := w.(http.Flusher)
	if !ok {
		writeErr(w, http.StatusInternalServerError, fmt.Errorf("streaming unsupported by connection"))
		return
	}
	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-store")
	w.WriteHeader(http.StatusOK)
	flusher.Flush()

	ch := j.Subscribe()
	defer j.Unsubscribe(ch)

	frame := func(snap campaign.Snapshot) bool {
		data, err := json.Marshal(snap)
		if err != nil {
			return false
		}
		fmt.Fprintf(w, "data: %s\n\n", data)
		flusher.Flush()
		return true
	}
	for {
		select {
		case snap := <-ch:
			if !frame(snap) {
				return
			}
		case <-j.Done():
			// Flush any frames published before the job went terminal,
			// then send the end event.
			for {
				select {
				case snap := <-ch:
					if !frame(snap) {
						return
					}
					continue
				default:
				}
				break
			}
			fmt.Fprintf(w, "event: end\ndata: {\"state\":%q}\n\n", j.State())
			flusher.Flush()
			return
		case <-r.Context().Done():
			return
		}
	}
}

// mergeRequest is the body of POST /v1/merge.
type mergeRequest struct {
	// Jobs lists the completed shard jobs to merge, in any order.
	Jobs []string `json:"jobs"`
}

func (s *Server) handleMerge(w http.ResponseWriter, r *http.Request) {
	var req mergeRequest
	if !decodeBody(w, r, &req, "merge request") {
		return
	}
	j, err := s.MergeJobs(req.Jobs)
	if err != nil {
		writeErr(w, http.StatusBadRequest, err)
		return
	}
	res, _ := j.Result()
	writeResult(w, j, res)
}

func (s *Server) handleHealth(w http.ResponseWriter, r *http.Request) {
	m := s.Metrics()
	status := "ok"
	if m.Draining {
		status = "draining"
	}
	writeJSON(w, http.StatusOK, map[string]any{
		"status":   status,
		"draining": m.Draining,
		"running":  m.Running,
		"queued":   m.QueueDepth,
	})
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, s.Metrics())
}

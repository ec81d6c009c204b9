package campaign

import (
	"bytes"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"math"
	"os"
	"path/filepath"
	"strconv"

	"raidrel/internal/sim"
)

// CheckpointVersion is the current on-disk checkpoint format version.
// Version 2 is an append-only journal: a full document on the first line,
// then one checkpointFrame line per later batch. Loaders accept version 1
// (a journal without frames) and 2, and reject others rather than
// guessing.
const CheckpointVersion = 2

// checkpointEvent is one DDF in flat form: group index within the
// campaign, event time, cause, and (for importance-sampled campaigns) the
// group's log likelihood-ratio weight. Groups without events are implied
// by NextStream, which keeps the file small in the rare-event regime where
// almost every group is empty. LogW is omitted when zero, so unbiased
// campaigns write exactly the format older readers expect.
type checkpointEvent struct {
	Group int     `json:"g"`
	Time  float64 `json:"t"`
	Cause int     `json:"c"`
	LogW  float64 `json:"lw,omitempty"`
}

// checkpointFile is the journal's header line: the full campaign state as
// of the batch that started the journal.
type checkpointFile struct {
	Version     int    `json:"version"`
	Fingerprint string `json:"fingerprint"`
	Seed        uint64 `json:"seed"`
	// NextStream is the next RNG stream index — equal to the number of
	// completed iterations, since stream i always drives iteration i.
	NextStream int `json:"next_stream"`
	Batches    int `json:"batches"`
	// Events lists every DDF observed so far, in (group, time) order.
	Events []checkpointEvent `json:"events"`
	// VR holds the block-level variance-reduction tallies of a VR campaign.
	// Omitted (and absent from the digest surface) for plain campaigns, so
	// pre-VR checkpoints and readers are unaffected.
	VR *checkpointVR `json:"vr,omitempty"`
	// Fleet holds the accumulated heal-backlog tally of a fleet campaign,
	// verbatim, so a resumed campaign's backlog statistics continue from
	// exactly where the interrupted one stopped. Omitted for scalar
	// campaigns, mirroring VR: pre-fleet checkpoints stay byte-compatible.
	Fleet *sim.FleetTally `json:"fleet,omitempty"`
}

// checkpointFrame is one journal line after the header: what one batch
// added. Events and VRBlocks hold only the batch's new entries, in order;
// Fleet is the cumulative tally (a handful of counters and maxima, not
// additive field by field).
type checkpointFrame struct {
	NextStream int               `json:"next_stream"`
	Batches    int               `json:"batches"`
	Events     []checkpointEvent `json:"events"`
	VRBlocks   []sim.VRBlock     `json:"vr_blocks,omitempty"`
	Fleet      *sim.FleetTally   `json:"fleet,omitempty"`
}

// checkpointVR serializes sim.VRTally: the analytic control expectation
// plus every completed block's sums, verbatim. Restoring them verbatim is
// what makes a resumed VR campaign's estimator bit-exact.
type checkpointVR struct {
	BlockSize int           `json:"block_size"`
	EZ        float64       `json:"ez"`
	Blocks    []sim.VRBlock `json:"blocks"`
}

// engineName names the campaign's effective engine for fingerprinting:
// Engine, or for nil the engine it resolves to, sim.DefaultEngine. Fleet
// campaigns run the fleet engine, which is not an Engine; they keep the
// event engine's name, as they always have.
func (s Spec) engineName() string {
	e := s.Engine
	if e == nil {
		e = sim.EventEngine{}
		if s.Fleet == nil {
			e = sim.DefaultEngine(s.Config)
		}
	}
	return fmt.Sprintf("%T", e)
}

// LegacyFingerprint returns the fingerprint this campaign's checkpoints
// carried when a nil engine meant the event engine, or "" when it equals
// Fingerprint or never applied: an explicit engine or a fleet campaign.
func (s Spec) LegacyFingerprint() string {
	if s.Engine != nil || s.Fleet != nil {
		return ""
	}
	legacy := s
	legacy.Engine = sim.EventEngine{}
	if fp := legacy.Fingerprint(); fp != s.Fingerprint() {
		return fp
	}
	return ""
}

// resumeEngine returns the engine a campaign restoring a checkpoint with
// fingerprint fp continues on: its own when fp is its fingerprint, and
// the event engine when fp is its LegacyFingerprint, bit-identical to the
// uninterrupted run that wrote the checkpoint. Any other fingerprint is
// an error.
func (s Spec) resumeEngine(fp string) (sim.Engine, error) {
	want := s.Fingerprint()
	if fp == want {
		return s.Engine, nil
	}
	if legacy := s.LegacyFingerprint(); legacy != "" && fp == legacy {
		return sim.EventEngine{}, nil
	}
	return nil, fmt.Errorf("checkpoint fingerprint %s does not match campaign %s (config, seed, or engine changed)", fp, want)
}

// Fingerprint digests the campaign identity — configuration, seed, engine,
// and shard offset — so a checkpoint is only ever resumed into the campaign
// that wrote it. The same digest keys the raidreld result cache and shard
// manifests: one config identity shared by every layer that must agree on
// "is this the same campaign?". Distribution parameters are captured via
// their value formatting.
//
// The digest is stable across releases (pinned by TestFingerprintStability):
// changing it would silently orphan every on-disk checkpoint and cached
// result. A nil engine names the engine it resolves to; checkpoints from
// when nil meant the event engine still resume, through LegacyFingerprint.
func (s Spec) Fingerprint() string {
	cfg := s.Config
	h := fnv.New64a()
	fmt.Fprintf(h, "drives=%d;red=%d;mission=%g;seed=%d;engine=%s;",
		cfg.Drives, cfg.Redundancy, cfg.Mission, s.Seed, s.engineName())
	fmt.Fprintf(h, "ttop=%v;ttr=%v;ttld=%v;ttscrub=%v;",
		cfg.Trans.TTOp, cfg.Trans.TTR, cfg.Trans.TTLd, cfg.Trans.TTScrub)
	// Literal bytes of a retired defect process's fields (a time-varying
	// rate and its bound), as they printed when unset: every cache key and
	// on-disk checkpoint written while they existed stays valid.
	fmt.Fprint(h, "nhpp=false;nhppmax=0;")
	fmt.Fprintf(h, "slots=%v;spares=%v;", cfg.SlotTTOp, cfg.Spares)
	if cfg.Bias.Enabled() {
		// Included only when biasing is on: checkpoints written before the
		// importance-sampling feature keep their fingerprints and remain
		// resumable, while a biased campaign never resumes an unbiased
		// checkpoint (or one biased differently) — the weights would be
		// inconsistent.
		fmt.Fprintf(h, "bias=%v;", cfg.Bias)
	}
	if cfg.VR.Enabled() {
		// Included only when variance reduction is on, mirroring the bias
		// component: legacy fingerprints stay stable, and a VR campaign can
		// only resume a checkpoint with the identical technique stack and
		// block size — the block tallies would otherwise be incompatible.
		fmt.Fprintf(h, "vr=%v;", cfg.VR)
	}
	if cfg.Topology.Coupled() {
		// Included only for coupled topologies, so every flat campaign's
		// fingerprint (and checkpoint) predating the component layer stays
		// valid, while a coupled campaign never resumes a flat checkpoint or
		// one with a different component tree. Topology.String renders the
		// components deterministically for exactly this purpose.
		fmt.Fprintf(h, "topology=%v;", cfg.Topology)
	}
	if s.Offset != 0 {
		// Included only for shard campaigns, so every pre-sharding
		// fingerprint (and checkpoint) stays valid, while shard i's
		// checkpoint can never be resumed into shard j.
		fmt.Fprintf(h, "offset=%d;", s.Offset)
	}
	if s.Fleet != nil {
		// Included only for fleet campaigns, keeping every scalar
		// fingerprint stable. The fleet size, repair-slot cap, and spare
		// policy all change which streams feed which chronology and how
		// contention unfolds, so any difference must orphan the checkpoint.
		fmt.Fprintf(h, "fleet=%d/%d;", s.Fleet.Groups, s.Fleet.MaxConcurrentRebuilds)
		if s.Fleet.SharedSpares != nil {
			fmt.Fprintf(h, "fleetspares=%v;", *s.Fleet.SharedSpares)
		}
	}
	return fmt.Sprintf("%016x", h.Sum64())
}

// journal writes a campaign's checkpoint file. The first save of a
// campaign run writes the whole state as the header line, atomically: to a
// temporary file in the same directory, renamed over the destination, so a
// kill mid-write leaves the previous checkpoint intact. Every later save
// appends one checkpointFrame line holding only what the batch added, so a
// batch costs O(batch events) instead of O(all events). A kill mid-append
// leaves a last line without its newline, which the loader ignores — the
// file still decodes to the previous batch, as tmp+rename guaranteed.
type journal struct {
	path string
	spec Spec
	// f is the journal file, open for appends, once the header is written.
	f *os.File
	// events and blocks count the events and VR blocks already on disk.
	events, blocks int
}

// save records the campaign state after a batch.
func (j *journal) save(run *sim.SparseResult, batches int) error {
	if j.f == nil {
		return j.start(run, batches)
	}
	var blocks []sim.VRBlock
	if run.VR != nil {
		blocks = run.VR.Blocks[j.blocks:]
	}
	data, err := encodeFrame(run.Groups, batches, run.Events[j.events:], blocks, run.Fleet)
	if err != nil {
		return err
	}
	if _, err := j.f.Write(data); err != nil {
		return err
	}
	j.mark(run)
	return nil
}

// Per-entry shares of a frame's buffer: the fixed keys and counters, one
// compact event, one VR block.
const (
	frameBytes      = 64
	frameEventBytes = 48
	frameBlockBytes = 96
)

// encodeFrame renders one journal frame line: exactly the bytes
// json.Marshal writes for the checkpointFrame of these fields, then a
// newline. The events are appended straight from the run's index, with
// no per-event copy and no reflection; the VR blocks and the fleet tally
// go through encoding/json. The buffer is sized for this frame alone and
// not kept, so no frame's size outlives its write.
func encodeFrame(nextStream, batches int, events []sim.GroupEvent, blocks []sim.VRBlock, fleet *sim.FleetTally) ([]byte, error) {
	buf := make([]byte, 0, frameBytes+len(events)*frameEventBytes+len(blocks)*frameBlockBytes)
	buf = append(buf, `{"next_stream":`...)
	buf = strconv.AppendInt(buf, int64(nextStream), 10)
	buf = append(buf, `,"batches":`...)
	buf = strconv.AppendInt(buf, int64(batches), 10)
	buf = append(buf, `,"events":[`...)
	var err error
	for i, e := range events {
		if i > 0 {
			buf = append(buf, ',')
		}
		buf = append(buf, `{"g":`...)
		buf = strconv.AppendInt(buf, int64(e.Group), 10)
		buf = append(buf, `,"t":`...)
		if buf, err = AppendJSONFloat(buf, e.Time); err != nil {
			return nil, err
		}
		buf = append(buf, `,"c":`...)
		buf = strconv.AppendInt(buf, int64(e.Cause), 10)
		if e.LogW != 0 {
			buf = append(buf, `,"lw":`...)
			if buf, err = AppendJSONFloat(buf, e.LogW); err != nil {
				return nil, err
			}
		}
		buf = append(buf, '}')
	}
	buf = append(buf, ']')
	if len(blocks) > 0 {
		if buf, err = appendJSONField(buf, `,"vr_blocks":`, blocks); err != nil {
			return nil, err
		}
	}
	if fleet != nil {
		if buf, err = appendJSONField(buf, `,"fleet":`, fleet); err != nil {
			return nil, err
		}
	}
	return append(buf, "}\n"...), nil
}

// appendJSONField appends key and v's encoding/json form.
func appendJSONField(dst []byte, key string, v any) ([]byte, error) {
	data, err := json.Marshal(v)
	if err != nil {
		return nil, err
	}
	return append(append(dst, key...), data...), nil
}

// AppendJSONFloat appends f the way encoding/json writes a float64: the
// shortest round-tripping 'f' form, switching to 'e' below 1e-6 and at
// 1e21 and above in magnitude, with a two-digit negative exponent trimmed
// (1e-07 becomes 1e-7). NaN and the infinities have no JSON form. The
// checkpoint journal and raidreld's result bodies both write their event
// floats through it.
func AppendJSONFloat(dst []byte, f float64) ([]byte, error) {
	if math.IsNaN(f) || math.IsInf(f, 0) {
		return nil, fmt.Errorf("json: unsupported value: %v", f)
	}
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	dst = strconv.AppendFloat(dst, f, format, -1, 64)
	if n := len(dst); format == 'e' && dst[n-4] == 'e' && dst[n-3] == '-' && dst[n-2] == '0' {
		dst[n-2] = dst[n-1]
		dst = dst[:n-1]
	}
	return dst, nil
}

// start writes the full state as the journal's header line via
// tmp+rename, keeping the file open for the frames that follow.
func (j *journal) start(run *sim.SparseResult, batches int) error {
	doc := checkpointFile{
		Version:     CheckpointVersion,
		Fingerprint: j.spec.Fingerprint(),
		Seed:        j.spec.Seed,
		NextStream:  run.Groups,
		Batches:     batches,
		Events:      encodeEvents(run.Events),
	}
	if run.VR != nil {
		doc.VR = &checkpointVR{BlockSize: run.VR.BlockSize, EZ: run.VR.EZ, Blocks: run.VR.Blocks}
	}
	doc.Fleet = run.Fleet
	data, err := json.Marshal(doc)
	if err != nil {
		return err
	}
	tmp, err := os.CreateTemp(filepath.Dir(j.path), filepath.Base(j.path)+".tmp*")
	if err != nil {
		return err
	}
	tmpName := tmp.Name()
	if _, err := tmp.Write(append(data, '\n')); err != nil {
		tmp.Close()
		os.Remove(tmpName)
		return err
	}
	if err := os.Rename(tmpName, j.path); err != nil {
		tmp.Close()
		os.Remove(tmpName)
		return err
	}
	// The descriptor follows the renamed file, and its offset sits at the
	// end of the header: frames written through it append.
	j.f = tmp
	j.mark(run)
	return nil
}

// mark records how much of run is on disk.
func (j *journal) mark(run *sim.SparseResult) {
	j.events = len(run.Events)
	if run.VR != nil {
		j.blocks = len(run.VR.Blocks)
	}
}

// close releases the journal file; later calls are no-ops.
func (j *journal) close() error {
	if j.f == nil {
		return nil
	}
	err := j.f.Close()
	j.f = nil
	return err
}

// encodeEvents converts events to their checkpoint form. The sparse
// accumulator and the file share the same representation — events in
// (group, time) order — so this is a direct copy.
func encodeEvents(evs []sim.GroupEvent) []checkpointEvent {
	out := make([]checkpointEvent, len(evs))
	for i, e := range evs {
		out[i] = checkpointEvent{Group: e.Group, Time: e.Time, Cause: int(e.Cause), LogW: e.LogW}
	}
	return out
}

// restored is a decoded checkpoint: the accumulated run, its batch count,
// and the engine the campaign continues on (see Spec.resumeEngine).
type restored struct {
	run     *sim.SparseResult
	batches int
	engine  sim.Engine
}

// loadCheckpoint restores the campaign state from path.
func loadCheckpoint(path string, spec Spec) (restored, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return restored{}, fmt.Errorf("campaign: resume: %w", err)
	}
	ck, err := decodeCheckpoint(data, spec)
	if err != nil {
		return restored{}, fmt.Errorf("campaign: resume %s: %w", path, err)
	}
	return ck, nil
}

// decodeCheckpoint parses a checkpoint journal (parseJournal) and fully
// validates the folded state: that the checkpoint belongs to this (config,
// seed, engine), and that every event is well-formed — group inside
// [0, NextStream), time finite and within the mission, cause one of the
// defined values, events sorted by (group, time), log weights finite and
// identical within a group. A corrupted or hand-edited file yields a
// descriptive error, never a panic or a silently inconsistent accumulator.
func decodeCheckpoint(data []byte, spec Spec) (restored, error) {
	doc, err := parseJournal(data)
	if err != nil {
		return restored{}, err
	}
	engine, err := spec.resumeEngine(doc.Fingerprint)
	if err != nil {
		return restored{}, err
	}
	if doc.Seed != spec.Seed {
		return restored{}, fmt.Errorf("checkpoint seed %d, campaign seed %d", doc.Seed, spec.Seed)
	}
	if doc.NextStream < 0 {
		return restored{}, fmt.Errorf("negative stream index %d", doc.NextStream)
	}
	run := &sim.SparseResult{
		Groups: doc.NextStream,
		Events: make([]sim.GroupEvent, 0, len(doc.Events)),
	}
	for i, e := range doc.Events {
		if e.Group < 0 || e.Group >= doc.NextStream {
			return restored{}, fmt.Errorf("event %d: group %d outside [0, %d)", i, e.Group, doc.NextStream)
		}
		if math.IsNaN(e.Time) || e.Time < 0 || e.Time > spec.Config.Mission {
			return restored{}, fmt.Errorf("event %d: time %v outside [0, %v]", i, e.Time, spec.Config.Mission)
		}
		c := sim.Cause(e.Cause)
		if c != sim.CauseOpOp && c != sim.CauseLdOp && c != sim.CauseUnavail {
			return restored{}, fmt.Errorf("event %d: unknown cause %d", i, e.Cause)
		}
		if math.IsNaN(e.LogW) || math.IsInf(e.LogW, 0) {
			return restored{}, fmt.Errorf("event %d: log weight %v not finite", i, e.LogW)
		}
		if i > 0 {
			prev := doc.Events[i-1]
			if e.Group < prev.Group || (e.Group == prev.Group && e.Time < prev.Time) {
				return restored{}, fmt.Errorf("event %d: events not sorted by (group, time)", i)
			}
			if e.Group == prev.Group && e.LogW != prev.LogW {
				// The weight is a per-group quantity repeated on each event;
				// a mismatch means the file was corrupted or edited.
				return restored{}, fmt.Errorf("event %d: log weight %v differs from group %d's %v", i, e.LogW, e.Group, prev.LogW)
			}
		}
		run.Events = append(run.Events, sim.GroupEvent{Group: e.Group, LogW: e.LogW, DDF: sim.DDF{Time: e.Time, Cause: c}})
	}
	if spec.Config.VR.Enabled() && doc.VR == nil && doc.NextStream > 0 {
		return restored{}, fmt.Errorf("variance-reduced campaign, but the checkpoint carries no VR tallies")
	}
	if doc.VR != nil {
		if doc.VR.BlockSize <= 0 {
			return restored{}, fmt.Errorf("vr: block size %d not positive", doc.VR.BlockSize)
		}
		// The indicator control is a probability; the conditional-DDF
		// variate is a per-group count bounded by the drive count.
		ezMax := 1.0
		if spec.Config.VR.CondVariate {
			ezMax = float64(spec.Config.Drives)
		}
		if math.IsNaN(doc.VR.EZ) || doc.VR.EZ < 0 || doc.VR.EZ > ezMax {
			return restored{}, fmt.Errorf("vr: control expectation %v outside [0, %v]", doc.VR.EZ, ezMax)
		}
		total := 0
		for i, b := range doc.VR.Blocks {
			if b.N <= 0 || b.N > doc.VR.BlockSize {
				return restored{}, fmt.Errorf("vr block %d: %d iterations outside (0, %d]", i, b.N, doc.VR.BlockSize)
			}
			if b.P < 0 || 2*b.P > b.N {
				return restored{}, fmt.Errorf("vr block %d: %d pairs inconsistent with %d iterations", i, b.P, b.N)
			}
			for _, v := range [...]float64{b.Y, b.Z, b.Y2, b.C} {
				if math.IsNaN(v) || math.IsInf(v, 0) {
					return restored{}, fmt.Errorf("vr block %d: non-finite tally", i)
				}
			}
			total += b.N
		}
		if total != doc.NextStream {
			return restored{}, fmt.Errorf("vr blocks cover %d iterations, checkpoint has %d", total, doc.NextStream)
		}
		run.VR = &sim.VRTally{BlockSize: doc.VR.BlockSize, EZ: doc.VR.EZ, Blocks: doc.VR.Blocks}
	}
	if spec.Fleet != nil && doc.Fleet == nil && doc.NextStream > 0 {
		return restored{}, fmt.Errorf("fleet campaign, but the checkpoint carries no fleet tally")
	}
	if doc.Fleet != nil {
		f := doc.Fleet
		if spec.Fleet == nil {
			return restored{}, fmt.Errorf("fleet: checkpoint carries a fleet tally, but the campaign is scalar")
		}
		if f.GroupsPer != spec.Fleet.Groups {
			return restored{}, fmt.Errorf("fleet: checkpoint fleet size %d, campaign %d", f.GroupsPer, spec.Fleet.Groups)
		}
		if f.Chronologies < 0 || f.Chronologies*f.GroupsPer != doc.NextStream {
			return restored{}, fmt.Errorf("fleet: %d chronologies of %d groups inconsistent with %d iterations",
				f.Chronologies, f.GroupsPer, doc.NextStream)
		}
		if f.Failures < 0 || f.Rebuilds < 0 || f.Waited < 0 || f.ActiveAtEnd < 0 || f.QueuedAtEnd < 0 || f.MaxQueueDepth < 0 {
			return restored{}, fmt.Errorf("fleet: negative count in tally %+v", *f)
		}
		if f.Failures != f.Rebuilds+f.ActiveAtEnd+f.QueuedAtEnd {
			return restored{}, fmt.Errorf("fleet: %d failures != %d rebuilds + %d active + %d queued",
				f.Failures, f.Rebuilds, f.ActiveAtEnd, f.QueuedAtEnd)
		}
		for _, v := range [...]float64{f.TotalWaitHours, f.MaxWaitHours, f.MeanDepthSum, f.MaxExposureHours} {
			if math.IsNaN(v) || math.IsInf(v, 0) || v < 0 {
				return restored{}, fmt.Errorf("fleet: non-finite or negative hours in tally %+v", *f)
			}
		}
		fleet := *f
		run.Fleet = &fleet
	}
	run.Tally()
	return restored{run: run, batches: doc.Batches, engine: engine}, nil
}

// parseJournal folds a checkpoint journal into one document. The first
// line is the header document; a version-1 file is a header alone. Every
// later complete line is a frame, folded into the header's state, that
// must advance its stream index and batch count. A last line without its
// newline is an append cut short by a kill and is ignored, so the journal
// reads as of the previous batch.
func parseJournal(data []byte) (checkpointFile, error) {
	header, rest, _ := bytes.Cut(data, []byte{'\n'})
	var doc checkpointFile
	if err := json.Unmarshal(header, &doc); err != nil {
		return doc, err
	}
	if doc.Version != 1 && doc.Version != CheckpointVersion {
		return doc, fmt.Errorf("checkpoint version %d, want 1 or %d", doc.Version, CheckpointVersion)
	}
	for n := 1; ; n++ {
		line, tail, complete := bytes.Cut(rest, []byte{'\n'})
		if !complete {
			return doc, nil
		}
		rest = tail
		if doc.Version == 1 {
			return doc, fmt.Errorf("version 1 checkpoint followed by journal frames")
		}
		var fr checkpointFrame
		if err := json.Unmarshal(line, &fr); err != nil {
			return doc, fmt.Errorf("frame %d: %w", n, err)
		}
		if err := doc.fold(fr); err != nil {
			return doc, fmt.Errorf("frame %d: %w", n, err)
		}
	}
}

// fold applies one journal frame to the header's state.
func (d *checkpointFile) fold(fr checkpointFrame) error {
	if fr.NextStream <= d.NextStream || fr.Batches <= d.Batches {
		return fmt.Errorf("stream index %d and batch count %d do not advance past %d and %d",
			fr.NextStream, fr.Batches, d.NextStream, d.Batches)
	}
	for i, e := range fr.Events {
		if e.Group < d.NextStream || e.Group >= fr.NextStream {
			return fmt.Errorf("event %d: group %d outside the frame's streams [%d, %d)", i, e.Group, d.NextStream, fr.NextStream)
		}
	}
	if len(fr.VRBlocks) > 0 {
		if d.VR == nil {
			return fmt.Errorf("vr blocks, but the checkpoint header carries no VR tallies")
		}
		d.VR.Blocks = append(d.VR.Blocks, fr.VRBlocks...)
	}
	d.Events = append(d.Events, fr.Events...)
	if fr.Fleet != nil {
		d.Fleet = fr.Fleet
	}
	d.NextStream, d.Batches = fr.NextStream, fr.Batches
	return nil
}

package campaign

import (
	"encoding/json"
	"testing"
)

// FuzzCheckpointDecode feeds arbitrary bytes to the checkpoint parser. The
// decoder must never panic — a corrupted or hand-edited checkpoint file
// yields a descriptive error — and anything it does accept must satisfy
// the SparseResult invariants the campaign loop relies on.
func FuzzCheckpointDecode(f *testing.F) {
	spec := Spec{Config: fastConfig(), Seed: 7, MaxIterations: 100}.withDefaults()

	// Seed corpus: a genuine checkpoint, then targeted corruptions of the
	// fields the decoder validates.
	valid := checkpointFile{
		Version:     CheckpointVersion,
		Fingerprint: spec.Fingerprint(),
		Seed:        7,
		NextStream:  100,
		Batches:     1,
		Events: []checkpointEvent{
			{Group: 3, Time: 100.5, Cause: 1},
			{Group: 3, Time: 200.25, Cause: 2},
			{Group: 42, Time: 50, Cause: 2},
		},
	}
	if data, err := json.Marshal(valid); err == nil {
		f.Add(data)
	}
	corrupt := func(mutate func(*checkpointFile)) {
		doc := valid
		doc.Events = append([]checkpointEvent(nil), valid.Events...)
		mutate(&doc)
		if data, err := json.Marshal(doc); err == nil {
			f.Add(data)
		}
	}
	corrupt(func(d *checkpointFile) { d.Events[0].Group = -1 })
	corrupt(func(d *checkpointFile) { d.Events[0].Group = d.NextStream })
	corrupt(func(d *checkpointFile) { d.Events[0].Cause = 99 })
	corrupt(func(d *checkpointFile) { d.Events[0].Time = -5 })
	corrupt(func(d *checkpointFile) { d.Events[0].Time = 1e12 })
	corrupt(func(d *checkpointFile) { d.Events[0], d.Events[2] = d.Events[2], d.Events[0] })
	corrupt(func(d *checkpointFile) { d.NextStream = -4 })
	corrupt(func(d *checkpointFile) { d.Version = CheckpointVersion + 1 })
	f.Add([]byte("{not json"))
	f.Add([]byte(`{"version":1,"events":[{"g":1e99,"t":"x"}]}`))

	// Version-2 journals: the header line, then one frame per later batch.
	header, err := json.Marshal(valid)
	if err != nil {
		f.Fatal(err)
	}
	journal := func(frames ...string) []byte {
		out := append(append([]byte(nil), header...), '\n')
		for _, fr := range frames {
			out = append(out, fr...)
		}
		return out
	}
	const frame2 = `{"next_stream":200,"batches":2,"events":[{"g":150,"t":10,"c":1}]}` + "\n"
	f.Add(journal(frame2))
	f.Add(journal(frame2, `{"next_stream":300,"batches":3,"events":[{"g":2`))                // torn tail
	f.Add(journal(frame2, "\x00\x17garbage frame\n"))                                        // complete garbage frame
	f.Add(journal(`{"next_stream":100,"batches":2,"events":[]}` + "\n"))                     // next_stream does not advance
	f.Add(journal(frame2, `{"next_stream":300,"batches":2,"events":[]}`+"\n"))               // batches do not advance
	f.Add(journal(`{"next_stream":200,"batches":2,"events":[{"g":2,"t":10,"c":1}]}` + "\n")) // event sorts before earlier ones
	f.Add(journal(`{"next_stream":200,"batches":2,"events":[{"g":160,"t":9,"c":1},{"g":150,"t":1,"c":2}]}` + "\n"))
	f.Add(journal(`{"next_stream":200,"batches":2,"vr_blocks":[{"y":1,"n":100}],"events":[]}` + "\n"))

	f.Fuzz(func(t *testing.T, data []byte) {
		ck, err := decodeCheckpoint(data, spec)
		if err != nil {
			return
		}
		run, batches := ck.run, ck.batches
		// Accepted documents must be internally consistent.
		if batches < 0 {
			t.Fatalf("accepted checkpoint with %d batches", batches)
		}
		if run.Groups < 0 {
			t.Fatalf("accepted checkpoint with %d groups", run.Groups)
		}
		if run.TotalDDFs+run.UnavailEvents != len(run.Events) || run.TotalDDFs != run.OpOpDDFs+run.LdOpDDFs {
			t.Fatalf("inconsistent tallies: total=%d unavail=%d events=%d opop=%d ldop=%d",
				run.TotalDDFs, run.UnavailEvents, len(run.Events), run.OpOpDDFs, run.LdOpDDFs)
		}
		for i, e := range run.Events {
			if e.Group < 0 || e.Group >= run.Groups {
				t.Fatalf("event %d: group %d outside [0, %d)", i, e.Group, run.Groups)
			}
			if !(e.Time >= 0) || e.Time > spec.Config.Mission {
				t.Fatalf("event %d: time %v outside mission", i, e.Time)
			}
			if i > 0 {
				prev := run.Events[i-1]
				if e.Group < prev.Group || (e.Group == prev.Group && e.Time < prev.Time) {
					t.Fatalf("event %d: accepted unsorted events", i)
				}
			}
		}
		// Accepted state must also survive the campaign's next step: a
		// GroupsWithDDF scan and a re-encode.
		if k := run.GroupsWithDDF(); k < 0 || k > run.Groups {
			t.Fatalf("GroupsWithDDF() = %d with %d groups", k, run.Groups)
		}
	})
}

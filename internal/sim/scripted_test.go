package sim

import (
	"testing"

	"raidrel/internal/dist"
	"raidrel/internal/rng"
)

// scriptedDist returns preset values in order, then repeats its final
// value. It lets tests pin the engine's exact event algebra the way the
// paper's Fig. 5 walks through a concrete timing diagram.
type scriptedDist struct {
	values []float64
	next   *int
}

var _ dist.Distribution = scriptedDist{}

func newScripted(values ...float64) scriptedDist {
	i := 0
	return scriptedDist{values: values, next: &i}
}

func (s scriptedDist) Sample(*rng.RNG) float64 {
	i := *s.next
	if i >= len(s.values) {
		return s.values[len(s.values)-1]
	}
	*s.next = i + 1
	return s.values[i]
}

func (s scriptedDist) PDF(float64) float64      { return 0 }
func (s scriptedDist) CDF(float64) float64      { return 0 }
func (s scriptedDist) Quantile(float64) float64 { return 0 }
func (s scriptedDist) Mean() float64            { return 0 }
func (s scriptedDist) Variance() float64        { return 0 }

// The event engine's sampling order is fixed: at t=0 it draws TTOp for
// slots 0..n-1 then TTLd for slots 0..n-1 (when enabled); afterwards each
// event draws in processing order. The scripted scenarios below exploit
// that to stage the paper's Fig. 5 situations exactly.

// Scenario 1: an operational failure lands while another drive carries an
// uncorrected defect — one LdOp DDF at exactly the failure instant.
func TestScriptedLdOpDDF(t *testing.T) {
	cfg := Config{
		Drives:     2,
		Redundancy: 1,
		Mission:    1000,
		Trans: Transitions{
			// Slot 0 fails at 100; slot 1 never (within mission).
			TTOp: newScripted(100, 5000, 5000),
			// The restore for slot 0's failure takes 20 h.
			TTR: newScripted(20),
			// Defect arrivals: slot 0 gets one at 400 (after its failure the
			// schedule restarts; values consumed in order), slot 1 at 60.
			TTLd: newScripted(400, 60, 5000, 5000, 5000),
			// The defect would be scrubbed 200 h after creation — too late.
			TTScrub: newScripted(200, 200, 200),
		},
	}
	ddfs, err := simulate(EventEngine{}, cfg, rng.New(1))
	if err != nil {
		t.Fatal(err)
	}
	if len(ddfs) != 1 {
		t.Fatalf("DDFs = %v, want exactly one", ddfs)
	}
	if ddfs[0].Time != 100 || ddfs[0].Cause != CauseLdOp {
		t.Fatalf("DDF = %+v, want {100 ld+op}", ddfs[0])
	}
}

// Scenario 2: the same geometry but the scrub completes first — no DDF.
// "Latent defects are corrected ... data integrity preserved."
func TestScriptedScrubBeatsFailure(t *testing.T) {
	cfg := Config{
		Drives:     2,
		Redundancy: 1,
		Mission:    1000,
		Trans: Transitions{
			TTOp:    newScripted(100, 5000, 5000),
			TTR:     newScripted(20),
			TTLd:    newScripted(400, 60, 5000, 5000, 5000),
			TTScrub: newScripted(30, 200, 200), // corrected at 90, failure at 100
		},
	}
	ddfs, err := simulate(EventEngine{}, cfg, rng.New(1))
	if err != nil {
		t.Fatal(err)
	}
	if len(ddfs) != 0 {
		t.Fatalf("DDFs = %v, want none (scrub finished at 90)", ddfs)
	}
}

// Scenario 3: defect created AFTER the failure is not a DDF ("a latent
// defect followed by an operational failure results in a DDF" — but not
// the reverse).
func TestScriptedDefectAfterFailureNoDDF(t *testing.T) {
	cfg := Config{
		Drives:     2,
		Redundancy: 1,
		Mission:    1000,
		Trans: Transitions{
			TTOp: newScripted(100, 5000, 5000),
			TTR:  newScripted(20),
			// Slot 1's defect arrives at 110 — during slot 0's rebuild.
			TTLd:    newScripted(400, 110, 5000, 5000, 5000),
			TTScrub: newScripted(200, 200, 200),
		},
	}
	ddfs, err := simulate(EventEngine{}, cfg, rng.New(1))
	if err != nil {
		t.Fatal(err)
	}
	if len(ddfs) != 0 {
		t.Fatalf("DDFs = %v, want none (defect postdates the failure)", ddfs)
	}
}

// Scenario 4: two overlapping operational failures are an OpOp DDF at the
// second failure's instant; after both restore, a third overlap repeats.
func TestScriptedOpOpDDF(t *testing.T) {
	cfg := Config{
		Drives:     2,
		Redundancy: 1,
		Mission:    1000,
		Trans: Transitions{
			// Slot 0 fails at 100 (restore 100+50=150); slot 1 fails at 120,
			// inside the window -> DDF at 120.
			TTOp: newScripted(100, 120, 5000, 5000),
			TTR:  newScripted(50, 50),
		},
	}
	ddfs, err := simulate(EventEngine{}, cfg, rng.New(1))
	if err != nil {
		t.Fatal(err)
	}
	if len(ddfs) != 1 || ddfs[0].Time != 120 || ddfs[0].Cause != CauseOpOp {
		t.Fatalf("DDFs = %v, want [{120 op+op}]", ddfs)
	}
}

// Scenario 5: suppression — a third failure inside the DDF's restore
// window is not a second DDF ("Once a DDF has occurred, a subsequent one
// cannot occur until the first is restored").
func TestScriptedSuppression(t *testing.T) {
	cfg := Config{
		Drives:     3,
		Redundancy: 1,
		Mission:    1000,
		Trans: Transitions{
			// Failures at 100 (slot 0), 120 (slot 1), 130 (slot 2).
			// The 120 failure is the DDF (restore 120+100=220); the 130
			// failure falls inside [120, 220) and must be suppressed.
			TTOp: newScripted(100, 120, 130, 5000, 5000, 5000),
			TTR:  newScripted(100, 100, 100),
		},
	}
	ddfs, err := simulate(EventEngine{}, cfg, rng.New(1))
	if err != nil {
		t.Fatal(err)
	}
	if len(ddfs) != 1 || ddfs[0].Time != 120 {
		t.Fatalf("DDFs = %v, want only the 120 event", ddfs)
	}
}

// Scenario 6: the drive's own defect does not make its own failure a DDF
// ("Op failure must be a different HDD than the one with a Ld").
func TestScriptedOwnDefectNotDDF(t *testing.T) {
	cfg := Config{
		Drives:     2,
		Redundancy: 1,
		Mission:    1000,
		Trans: Transitions{
			TTOp: newScripted(100, 5000, 5000),
			TTR:  newScripted(20),
			// The defect lands on slot 0 itself at 60; slot 1 stays clean.
			TTLd:    newScripted(60, 400, 5000, 5000, 5000),
			TTScrub: newScripted(200, 200, 200),
		},
	}
	ddfs, err := simulate(EventEngine{}, cfg, rng.New(1))
	if err != nil {
		t.Fatal(err)
	}
	if len(ddfs) != 0 {
		t.Fatalf("DDFs = %v, want none (defect on the failing drive itself)", ddfs)
	}
}

// Scenario 7: the DDF's concomitant repair clears the involved defect —
// a fourth event soon after the restore does NOT see it again ("the TTR
// for the failure is the same as the concomitant operational failure").
func TestScriptedConcomitantRepairClearsDefect(t *testing.T) {
	cfg := Config{
		Drives:     2,
		Redundancy: 1,
		Mission:    1000,
		Trans: Transitions{
			// Slot 0 fails at 100 (LdOp DDF), restores at 120; then slot 0
			// fails AGAIN at 120+30=150. Without the concomitant repair the
			// slot-1 defect (natural scrub at 60+500=560) would trigger a
			// second DDF at 150.
			TTOp:    newScripted(100, 5000, 30, 5000, 5000),
			TTR:     newScripted(20, 20),
			TTLd:    newScripted(400, 60, 5000, 5000, 5000, 5000),
			TTScrub: newScripted(500, 500, 500),
		},
	}
	ddfs, err := simulate(EventEngine{}, cfg, rng.New(1))
	if err != nil {
		t.Fatal(err)
	}
	if len(ddfs) != 1 || ddfs[0].Time != 100 || ddfs[0].Cause != CauseLdOp {
		t.Fatalf("DDFs = %v, want only {100 ld+op}: the concomitant repair must clear the defect", ddfs)
	}
}

// Scenario 8: the concomitant repair survives a topology-held rebuild.
// Scenario 7's script, with slot 0 behind a shelf that fails at 90 and
// is repaired at 130: slot 0 fails at 100 while inaccessible (LdOp DDF on
// slot 1's defect), so its rebuild is held until 130 and restores at 150.
// The defect must clear at that restore, so slot 0's next failure at
// 150+30=180 is not a second DDF, although the defect's natural scrub
// (60+500=560) is still far away.
func TestScriptedConcomitantRepairAfterTopologyPause(t *testing.T) {
	cfg := Config{
		Drives:     2,
		Redundancy: 1,
		Mission:    1000,
		Trans: Transitions{
			TTOp:    newScripted(100, 5000, 30, 5000, 5000),
			TTR:     newScripted(20, 20),
			TTLd:    newScripted(400, 60, 5000, 5000, 5000, 5000),
			TTScrub: newScripted(500, 500, 500),
		},
		Topology: &Topology{Components: []Component{{
			Name: "shelf0", Drives: []int{0},
			TTOp: newScripted(90, 5000), TTR: newScripted(40, 40),
		}}},
	}
	ddfs, err := simulate(EventEngine{}, cfg, rng.New(1))
	if err != nil {
		t.Fatal(err)
	}
	if len(ddfs) != 1 || ddfs[0].Time != 100 || ddfs[0].Cause != CauseLdOp {
		t.Fatalf("DDFs = %v, want only {100 ld+op}: the concomitant repair must clear the defect at the resumed restore", ddfs)
	}
}

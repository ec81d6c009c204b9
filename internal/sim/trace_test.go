package sim

import (
	"testing"

	"raidrel/internal/dist"
	"raidrel/internal/rng"
)

func tracedConfig() Config {
	cfg := fastConfig()
	cfg.Trans.TTLd = dist.MustExponential(5e-4)
	cfg.Trans.TTScrub = dist.MustWeibull(3, 168, 6)
	return cfg
}

func TestTraceKindStrings(t *testing.T) {
	cases := map[TraceKind]string{
		TraceOpFail:    "op-fail",
		TraceOpRestore: "restore",
		TraceDefect:    "defect",
		TraceScrub:     "scrub",
		TraceDDF:       "DDF",
		TraceKind(42):  "TraceKind(42)",
	}
	for k, want := range cases {
		if k.String() != want {
			t.Errorf("%d.String() = %q, want %q", int(k), k.String(), want)
		}
	}
}

// Tracing must not change the simulation: DDFs from SimulateTraced equal
// those from Simulate for the same stream.
func TestTracingIsPassive(t *testing.T) {
	cfg := tracedConfig()
	for i := 0; i < 200; i++ {
		plain, err := simulate(EventEngine{}, cfg, rng.ForStream(400, uint64(i)))
		if err != nil {
			t.Fatal(err)
		}
		var trace Trace
		traced, err := SimulateTraced(cfg, rng.ForStream(400, uint64(i)), &trace)
		if err != nil {
			t.Fatal(err)
		}
		if len(plain) != len(traced) {
			t.Fatalf("iteration %d: %d vs %d DDFs", i, len(plain), len(traced))
		}
		for j := range plain {
			if plain[j] != traced[j] {
				t.Fatalf("iteration %d event %d differs", i, j)
			}
		}
		if trace.Count(TraceDDF) != len(plain) {
			t.Fatalf("trace recorded %d DDFs, engine returned %d",
				trace.Count(TraceDDF), len(plain))
		}
	}
}

// Structural invariants of the event stream.
func TestTraceInvariants(t *testing.T) {
	cfg := tracedConfig()
	for i := 0; i < 300; i++ {
		var trace Trace
		if _, err := SimulateTraced(cfg, rng.ForStream(401, uint64(i)), &trace); err != nil {
			t.Fatal(err)
		}
		prev := 0.0
		down := make(map[int]bool)
		defects := make(map[int]int)
		for _, e := range trace.Events {
			if e.Time < prev {
				t.Fatalf("iteration %d: events out of order", i)
			}
			prev = e.Time
			switch e.Kind {
			case TraceOpFail:
				if down[e.Slot] {
					t.Fatalf("iteration %d: slot %d failed while down", i, e.Slot)
				}
				down[e.Slot] = true
				defects[e.Slot] = 0 // dead drive's defects die with it
			case TraceOpRestore:
				if !down[e.Slot] {
					t.Fatalf("iteration %d: slot %d restored while up", i, e.Slot)
				}
				down[e.Slot] = false
			case TraceDefect:
				defects[e.Slot]++
			case TraceScrub:
				if defects[e.Slot] == 0 {
					t.Fatalf("iteration %d: slot %d scrubbed with no defect", i, e.Slot)
				}
				defects[e.Slot]--
			case TraceDDF:
				if e.Cause != CauseOpOp && e.Cause != CauseLdOp {
					t.Fatalf("iteration %d: DDF with cause %v", i, e.Cause)
				}
			}
		}
	}
}

// Every DDF in the trace coincides with an op-fail event at the same time
// on the same slot — DDFs are always triggered by operational failures.
func TestTraceDDFCoincidesWithOpFail(t *testing.T) {
	cfg := tracedConfig()
	for i := 0; i < 300; i++ {
		var trace Trace
		if _, err := SimulateTraced(cfg, rng.ForStream(402, uint64(i)), &trace); err != nil {
			t.Fatal(err)
		}
		for j, e := range trace.Events {
			if e.Kind != TraceDDF {
				continue
			}
			// The emitting order puts the op-fail immediately before its DDF.
			found := false
			for k := j - 1; k >= 0 && trace.Events[k].Time == e.Time; k-- {
				if trace.Events[k].Kind == TraceOpFail && trace.Events[k].Slot == e.Slot {
					found = true
					break
				}
			}
			if !found {
				t.Fatalf("iteration %d: DDF at %v without coincident op-fail", i, e.Time)
			}
		}
	}
}

package sim

import "fmt"

// TraceKind enumerates chronology events a tracing observer can receive.
type TraceKind int

const (
	// TraceOpFail is an operational failure of a drive slot.
	TraceOpFail TraceKind = iota + 1
	// TraceOpRestore is the completion of a slot's rebuild.
	TraceOpRestore
	// TraceDefect is the creation of a latent defect.
	TraceDefect
	// TraceScrub is the correction of a latent defect (by scrubbing or by
	// the concomitant repair after a DDF).
	TraceScrub
	// TraceDDF is a double-disk failure.
	TraceDDF
	// TraceCompFail and TraceCompRestore are a topology component path
	// instance failing and being repaired; Slot holds the component index.
	TraceCompFail
	TraceCompRestore
	// TraceUnavail is the onset of a data-unavailability episode (Slot -1).
	TraceUnavail
)

// String implements fmt.Stringer.
func (k TraceKind) String() string {
	switch k {
	case TraceOpFail:
		return "op-fail"
	case TraceOpRestore:
		return "restore"
	case TraceDefect:
		return "defect"
	case TraceScrub:
		return "scrub"
	case TraceDDF:
		return "DDF"
	case TraceCompFail:
		return "comp-fail"
	case TraceCompRestore:
		return "comp-restore"
	case TraceUnavail:
		return "unavail"
	default:
		return fmt.Sprintf("TraceKind(%d)", int(k))
	}
}

// TraceEvent is one observed chronology event.
type TraceEvent struct {
	Time  float64
	Kind  TraceKind
	Slot  int   // drive slot; -1 for group-level events with no single slot
	Cause Cause // set for TraceDDF
}

// Observer receives chronology events in time order as the engine
// processes them.
type Observer interface {
	Observe(TraceEvent)
}

// Trace is an Observer that records everything.
type Trace struct {
	Events []TraceEvent
}

var _ Observer = (*Trace)(nil)

// Observe implements Observer.
func (t *Trace) Observe(e TraceEvent) { t.Events = append(t.Events, e) }

// Count returns how many events of the given kind were recorded.
func (t *Trace) Count(kind TraceKind) int {
	n := 0
	for _, e := range t.Events {
		if e.Kind == kind {
			n++
		}
	}
	return n
}

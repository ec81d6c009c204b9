package sim

// eventKind enumerates the chronology core's event types.
type eventKind uint8

const (
	evOpFail eventKind = iota + 1
	evOpRestore
	evDefectArrive
	evDefectClear
	evTruncateDefects
	// evCompFail and evCompRestore are the failure/repair of one topology
	// component path instance; their slot field indexes the instance, a
	// namespace separate from the drive slots. Flat runs never schedule
	// them.
	evCompFail
	evCompRestore
	// evSpare marks a failed slot's replacement drive arriving from a
	// finite spare pool: the slot may now enter the repair server.
	evSpare
)

// event is one scheduled occurrence in a group chronology. The struct is
// deliberately packed to 48 bytes (slot, grp and gen as int32, kind as a
// byte): heap sifts copy whole events, so every saved byte is paid back
// thousands of times per Monte Carlo iteration. int32 is ample — slots
// index drives (fleet-wide at most millions) and gen counts a slot's
// replacements over one mission.
type event struct {
	time float64
	seq  int64   // insertion order; deterministic tie-break
	id   int64   // defect identifier for evDefectClear
	arg  float64 // evTruncateDefects: clear defects that started at or before arg
	slot int32
	grp  int32 // the slot's group: its RNG stream, without touching the slot
	gen  int32 // drive generation the event applies to (staleness guard)
	kind eventKind
}

// eventQueue is a min-heap of event values ordered by (time, seq). It is
// deliberately not backed by container/heap: pushing through the standard
// interface boxes every event into an interface value, which costs one
// heap allocation per scheduled event — the dominant allocation of the
// simulate hot loop. The value-based heap keeps its backing array across
// iterations (reset truncates, it does not free), so a warmed-up engine
// schedules events with zero allocations.
//
// Both sifts move a hole instead of swapping (one event copy per level,
// not three). Because (time, seq) is a total order — seq is unique within
// a run — the hole sift lands every element exactly where the swap-based
// sift would, so pop order (and therefore every simulated chronology) is
// bit-for-bit unchanged from the original container/heap implementation.
type eventQueue struct {
	es []event
}

// reset empties the queue, keeping the backing array for reuse.
func (q *eventQueue) reset() { q.es = q.es[:0] }

func (q *eventQueue) Len() int { return len(q.es) }

// before orders by (time, seq) — identical to the original container/heap
// comparison.
func before(a, b *event) bool {
	if a.time != b.time {
		return a.time < b.time
	}
	return a.seq < b.seq
}

// push adds e to the queue.
func (q *eventQueue) push(e event) {
	q.es = append(q.es, e)
	es := q.es
	// Sift the hole up, moving parents down until e's position is found.
	i := len(es) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if !before(&e, &es[parent]) {
			break
		}
		es[i] = es[parent]
		i = parent
	}
	es[i] = e
}

// pop removes and returns the minimum event. The queue must be non-empty.
func (q *eventQueue) pop() event {
	es := q.es
	top := es[0]
	n := len(es) - 1
	last := es[n]
	q.es = es[:n]
	// Sift the hole down from the root: promote the smaller child until
	// `last` fits, then place it once.
	i := 0
	for {
		c := 2*i + 1
		if c >= n {
			break
		}
		if r := c + 1; r < n && before(&es[r], &es[c]) {
			c = r
		}
		if !before(&es[c], &last) {
			break
		}
		es[i] = es[c]
		i = c
	}
	if n > 0 {
		es[i] = last
	}
	return top
}

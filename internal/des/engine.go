package des

// The event queue is a hand-rolled binary heap over event values rather
// than container/heap: the engine pushes and pops tens of millions of
// events per n=100k trial, and the interface-based heap costs an
// allocation plus dynamic dispatch per operation that this hot loop
// cannot afford.
//
// Ordering is (virtual time, insertion sequence). The sequence tiebreak
// makes the pop order — and therefore every RNG draw made while handling
// events — a pure function of the configuration and seed, which is the
// whole determinism contract: two events at the same virtual nanosecond
// are handled in the order they were scheduled.

// evKind discriminates what an event does on arrival.
type evKind uint8

const (
	// evDeliver hands msg to node `to` (a process, or the memory server).
	evDeliver evKind = iota
	// evTimer is a retransmission timer at process `to`; msg.opSeq names
	// the operation the timer guards (and msg.inc its incarnation), so
	// stale timers are no-ops.
	evTimer
	// evCrash takes node `to` down; msg.Key carries the downtime in
	// virtual ns and msg.Val the RestartKind.
	evCrash
	// evRestart brings node `to` back up; msg.Val carries the
	// RestartKind that decides what survived.
	evRestart
)

// event is one scheduled occurrence. It is stored by value in the heap
// slice; keep it compact.
type event struct {
	at   int64 // virtual time, nanoseconds
	seq  uint64
	to   int32 // destination node: process id, or serverID
	kind evKind
	msg  message
}

// eventQueue is a binary min-heap of events ordered by (at, seq).
type eventQueue struct {
	h   []event
	seq uint64
}

func (q *eventQueue) len() int { return len(q.h) }

func (q *eventQueue) less(i, j int) bool {
	if q.h[i].at != q.h[j].at {
		return q.h[i].at < q.h[j].at
	}
	return q.h[i].seq < q.h[j].seq
}

// push schedules msg for node `to` at virtual time `at`.
func (q *eventQueue) push(at int64, to int32, kind evKind, m message) {
	q.seq++
	q.h = append(q.h, event{at: at, seq: q.seq, to: to, kind: kind, msg: m})
	// Sift up.
	i := len(q.h) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if !q.less(i, parent) {
			break
		}
		q.h[i], q.h[parent] = q.h[parent], q.h[i]
		i = parent
	}
}

// pop removes and returns the earliest event.
func (q *eventQueue) pop() (event, bool) {
	if len(q.h) == 0 {
		return event{}, false
	}
	top := q.h[0]
	last := len(q.h) - 1
	q.h[0] = q.h[last]
	q.h = q.h[:last]
	// Sift down.
	i := 0
	for {
		l, r := 2*i+1, 2*i+2
		smallest := i
		if l < len(q.h) && q.less(l, smallest) {
			smallest = l
		}
		if r < len(q.h) && q.less(r, smallest) {
			smallest = r
		}
		if smallest == i {
			break
		}
		q.h[i], q.h[smallest] = q.h[smallest], q.h[i]
		i = smallest
	}
	return top, true
}

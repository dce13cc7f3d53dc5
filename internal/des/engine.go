package des

import (
	"fmt"
	"math/bits"
)

// The event queue is a monotone radix heap. The engine's clock never
// runs backwards — every event is scheduled at the current virtual time
// or later — so the queue only ever needs to find the earliest event at
// or after the last one it handed out. It keys each event on how its
// time differs from that last popped time: bucket b holds the events
// whose time first differs from it at bit b-1 (bits.Len64(at^last)), so
// bucket 0 holds the events due exactly at the last popped time and
// every event in bucket b is earlier than every event in any higher
// bucket. Popping takes the front of the lowest non-empty bucket; when
// that is not bucket 0 and holds more than one event, its minimum
// becomes the new last time and its events are redistributed into the
// (empty) buckets below it. Each event moves down at most 63 times in
// its life, and almost all pops cost no comparison at all, where a
// binary heap over 100k+ events pays a cache miss per sift-down level.
//
// Ordering is (virtual time, push order). Buckets are FIFO, events due
// at the same time always share a bucket, a push appends to its bucket's
// end, and a bucket is refilled only by redistributing a higher one in
// order when it and every bucket below it are empty. So events due at
// the same virtual nanosecond pop in the order they were pushed, which
// makes the pop order — and therefore every RNG draw made while
// handling events — a pure function of the configuration and seed: the
// whole determinism contract.
//
// Events live by value in a slab with a free list, and the buckets hold
// 4-byte slot indices, which keeps redistribution cheap and the queue's
// live footprint small at n=100k.

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

// event is one scheduled occurrence, stored by value in the queue's
// slab; keep it compact.
type event struct {
	at   int64 // virtual time, nanoseconds
	to   int32 // destination node: process id, or serverID
	kind evKind
	msg  message
}

// eventQueue is a monotone radix heap of events ordered by (at, push
// order). The zero value is an empty queue at virtual time zero.
type eventQueue struct {
	slab []event
	free []int32
	// buckets[b] lists slab slots in FIFO order; nonEmpty has bit b set
	// iff buckets[b] holds an unpopped slot. Only bucket 0 is ever
	// popped from the front, so only it needs a read position.
	buckets  [64][]int32
	head0    int
	nonEmpty uint64
	last     int64
}

// push schedules msg for node `to` at virtual time `at`, which must not
// precede the last popped event's time.
func (q *eventQueue) push(at int64, to int32, kind evKind, m message) {
	if at < q.last {
		panic(fmt.Sprintf("des: event scheduled at %d ns, before the current virtual time %d ns", at, q.last))
	}
	var slot int32
	if k := len(q.free); k > 0 {
		slot = q.free[k-1]
		q.free = q.free[:k-1]
	} else {
		slot = int32(len(q.slab))
		q.slab = append(q.slab, event{})
	}
	q.slab[slot] = event{at: at, to: to, kind: kind, msg: m}
	b := bits.Len64(uint64(at ^ q.last))
	q.buckets[b] = append(q.buckets[b], slot)
	q.nonEmpty |= 1 << b
}

// pop removes and returns the earliest event, breaking ties by push
// order.
func (q *eventQueue) pop() (event, bool) {
	if q.nonEmpty == 0 {
		return event{}, false
	}
	var slot int32
	if q.nonEmpty&1 != 0 {
		slot = q.popFront0()
	} else {
		b := bits.TrailingZeros64(q.nonEmpty)
		bk := q.buckets[b]
		if len(bk) == 1 {
			// A lone event in the lowest bucket is the minimum; hand it
			// out without redistributing anything.
			slot = bk[0]
			q.last = q.slab[slot].at
		} else {
			q.redistribute(b)
			slot = q.popFront0()
		}
		q.buckets[b] = bk[:0]
		q.nonEmpty &^= 1 << b
	}
	ev := q.slab[slot]
	q.free = append(q.free, slot)
	return ev, true
}

// popFront0 takes the oldest slot of bucket 0.
func (q *eventQueue) popFront0() int32 {
	bk := q.buckets[0]
	slot := bk[q.head0]
	q.head0++
	if q.head0 == len(bk) {
		q.buckets[0], q.head0 = bk[:0], 0
		q.nonEmpty &^= 1
	}
	return slot
}

// redistribute advances last to the earliest time in bucket b, whose
// lower buckets are all empty, and moves bucket b's slots, in order,
// into the buckets below it. Buckets above b keep their indices: the new
// last time agrees with the old one on every bit at or above b.
func (q *eventQueue) redistribute(b int) {
	bk := q.buckets[b]
	minAt := q.slab[bk[0]].at
	for _, s := range bk[1:] {
		if at := q.slab[s].at; at < minAt {
			minAt = at
		}
	}
	q.last = minAt
	for _, s := range bk {
		nb := bits.Len64(uint64(q.slab[s].at ^ minAt))
		q.buckets[nb] = append(q.buckets[nb], s)
		q.nonEmpty |= 1 << nb
	}
}

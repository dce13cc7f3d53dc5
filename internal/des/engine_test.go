package des

import (
	"encoding/binary"
	"strings"
	"testing"

	"github.com/oblivious-consensus/conciliator/internal/memory"
	"github.com/oblivious-consensus/conciliator/internal/xrand"
)

// queueOp is one step of a queue workload: a pop, or a push at delay ns
// after the last popped event's time.
type queueOp struct {
	pop   bool
	delay int64
}

// checkQueue drives an eventQueue through ops and requires every pop to
// return exactly what a reference sort by (at, push index) returns. Each
// pushed event carries its push index in msg.Val.
func checkQueue(t *testing.T, ops []queueOp) {
	t.Helper()
	type ref struct{ at, idx int64 }
	var (
		q       eventQueue
		pending []ref
		now     int64
		pushes  int64
	)
	popBoth := func() {
		t.Helper()
		ev, ok := q.pop()
		if len(pending) == 0 {
			if ok {
				t.Fatalf("pop from an empty queue returned %+v", ev)
			}
			return
		}
		best := 0
		for i, r := range pending[1:] {
			if r.at < pending[best].at || (r.at == pending[best].at && r.idx < pending[best].idx) {
				best = i + 1
			}
		}
		want := pending[best]
		pending = append(pending[:best], pending[best+1:]...)
		if !ok || ev.at != want.at || ev.msg.Val != want.idx || ev.to != int32(want.idx) {
			t.Fatalf("pop = (at %d, push %d, ok %v), want (at %d, push %d)", ev.at, ev.msg.Val, ok, want.at, want.idx)
		}
		now = ev.at
	}
	for _, op := range ops {
		if op.pop {
			popBoth()
			continue
		}
		at := now + op.delay
		q.push(at, int32(pushes), evDeliver, message{Op: memory.Op{Val: pushes}})
		pending = append(pending, ref{at: at, idx: pushes})
		pushes++
	}
	for len(pending) > 0 {
		popBoth()
	}
	if ev, ok := q.pop(); ok {
		t.Fatalf("drained queue popped %+v", ev)
	}
}

// TestEventQueueMatchesReference checks random monotone push/pop
// interleavings against the reference order: many events at equal times,
// zero-delay pushes at the current time, and jumps past 2^40 ns, which
// exercise the high buckets and long redistribution chains.
func TestEventQueueMatchesReference(t *testing.T) {
	delays := []func(r *xrand.Rand) int64{
		func(*xrand.Rand) int64 { return 0 },
		func(r *xrand.Rand) int64 { return int64(r.Intn(3)) },
		func(r *xrand.Rand) int64 { return int64(r.Intn(1 << 20)) },
		func(r *xrand.Rand) int64 { return 1<<40 + int64(r.Intn(1<<30)) },
	}
	for seed := uint64(1); seed <= 40; seed++ {
		r := xrand.New(seed)
		var ops []queueOp
		for i := 0; i < 3000; i++ {
			if r.Intn(100) < 45 {
				ops = append(ops, queueOp{pop: true})
				continue
			}
			ops = append(ops, queueOp{delay: delays[r.Intn(len(delays))](r)})
		}
		checkQueue(t, ops)
	}
}

// TestEventQueuePushIntoPastPanics pins the monotone contract: once an
// event at time t has been popped, scheduling anything before t is an
// engine bug, not an ordering question.
func TestEventQueuePushIntoPastPanics(t *testing.T) {
	for _, tc := range []struct {
		name string
		prep func(q *eventQueue)
		at   int64
	}{
		{"before popped time", func(q *eventQueue) { q.push(10, 0, evDeliver, message{}); q.pop() }, 9},
		{"negative on a fresh queue", func(*eventQueue) {}, -1},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var q eventQueue
			tc.prep(&q)
			defer func() {
				r := recover()
				if s, ok := r.(string); !ok || !strings.Contains(s, "before the current virtual time") {
					t.Fatalf("push at %d recovered %v, want the past-time panic", tc.at, r)
				}
			}()
			q.push(tc.at, 0, evDeliver, message{})
		})
	}
}

// FuzzEventQueue decodes arbitrary bytes into a monotone push/pop
// workload and checks it against the reference order. Each op is one
// control byte: even pops, odd pushes, with the delay taken from the
// following bytes at a width the control byte selects (0, 1, 2, or 6
// bytes; the last reaches past 2^40 ns).
func FuzzEventQueue(f *testing.F) {
	f.Add([]byte{1, 1, 1, 0, 0, 0})
	f.Add([]byte{3, 5, 3, 5, 1, 0, 5, 0, 2, 7, 1, 1, 1, 1, 1, 1, 0, 1, 0})
	f.Add([]byte{7, 0, 0, 0, 0, 0, 1, 1, 3, 9, 0, 7, 255, 255, 255, 255, 255, 0, 0, 0, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		var ops []queueOp
		for len(data) > 0 && len(ops) < 4096 {
			c := data[0]
			data = data[1:]
			if c&1 == 0 {
				ops = append(ops, queueOp{pop: true})
				continue
			}
			width := [4]int{0, 1, 2, 6}[(c>>1)&3]
			var buf [8]byte
			width = copy(buf[:width], data)
			data = data[width:]
			ops = append(ops, queueOp{delay: int64(binary.LittleEndian.Uint64(buf[:]))})
		}
		checkQueue(t, ops)
	})
}

// Package memory implements the paper's shared-memory model: linearizable
// atomic multi-writer multi-reader registers, unit-cost snapshot objects,
// max registers (the footnote-1 alternative for Algorithm 1), and — to show
// the snapshot substrate is constructible rather than an oracle — a
// wait-free snapshot built from single-writer registers in the style of
// Afek et al.
//
// Every operation on a shared object charges exactly one step to the
// calling process through the Context interface, matching the paper's cost
// model in which both register operations and snapshot update/scan
// operations cost one step (Section 1.1). Each object has one state
// representation — plain struct fields — and two access modes: direct
// field access when the context is Exclusive (the controlled engine runs
// one process at a time), and the same fields under the object's mutex
// otherwise, which keeps the object linearizable under real overlap.
package memory

import (
	"sync"
	"sync/atomic"

	"github.com/oblivious-consensus/conciliator/internal/metrics"
)

// Context is the hook through which shared-memory operations charge steps
// to the calling process and yield to the adversary scheduler. The
// simulator's process handle implements it; code running outside a
// simulation can pass Free.
type Context interface {
	// Step blocks until the adversary schedules the caller's next
	// operation (controlled mode) and charges one step. In concurrent
	// mode it only charges the step.
	Step()

	// Exclusive reports whether the caller is guaranteed to be the only
	// process touching shared objects while its operation runs, letting
	// objects skip their mutexes. The controlled simulator returns true
	// (its coroutine engine runs exactly one process at a time by
	// construction, and every handoff is a synchronization point);
	// concurrent mode and Free return false, keeping the objects
	// linearizable under real overlap.
	Exclusive() bool
}

// Scratcher is an optional Context capability exposing a per-process
// scratch arena: reusable buffers keyed by shared object, so hot-path
// operations like Snapshot.ScanScratch allocate only on first use per
// (process, object) pair. The simulator's process handle implements it.
type Scratcher interface {
	ScratchMap() map[any]any
}

// Free is a Context that never blocks and charges nothing. It is intended
// for unit tests and non-simulated use of the memory objects.
var Free Context = freeContext{}

type freeContext struct{}

func (freeContext) Step()           {}
func (freeContext) Exclusive() bool { return false }

// FreeExclusive is Free plus the exclusive capability: for benchmarks and
// sequential tests that own their objects outright and want the mutex-free
// access mode without a simulator.
var FreeExclusive Context = freeExclusiveContext{}

type freeExclusiveContext struct{ freeContext }

func (freeExclusiveContext) Exclusive() bool { return true }

// opCounter tracks how many operations an object has served. Atomic so it
// is safe in concurrent mode; reads are for metrics only.
type opCounter struct {
	n atomic.Int64
}

func (c *opCounter) inc()        { c.n.Add(1) }
func (c *opCounter) load() int64 { return c.n.Load() }

// Per-object-class operation counters, aggregated across every instance.
// All nil (free no-ops) until a metrics registry is installed; see the
// metrics package for the enable protocol and ordering requirements.
// "Contended" counts operations that found the object's critical section
// already held by another process — real operation overlap, which only
// the concurrent execution mode can produce (the controlled scheduler
// runs one operation at a time by construction).
//
// Every operation on every object follows one pinned order, in both
// access modes (exclusive and locked):
//
//  1. ctx.Step() — the step is charged (and, in controlled mode, the
//     adversary schedules the operation) before anything is observable.
//  2. The memory effect: the critical section or the direct field access.
//  3. The fault hook (FaultOnWrite / stale-read substitution), outside
//     the critical section: the injector records the post-state an
//     overlapping observer could legitimately see.
//  4. Accounting: ops.inc() and the per-class counter, last, so counter
//     deltas always describe completed effects. Counters are monotone
//     diagnostics, not linearization witnesses — in concurrent mode an
//     operation's effect and its counter increment are not one atomic
//     unit, and no reader may assume they are.
//
// TestOperationOrderCounterDeltas pins the accounting half of this
// contract in both access modes.
var (
	mRegRead, mRegWrite, mRegContend  *metrics.Counter
	mSnapUpdate, mSnapScan, mSnapCont *metrics.Counter
	mMaxWrite, mMaxRead, mMaxContend  *metrics.Counter
	mTreeWrite, mTreeRead             *metrics.Counter
	mAfekUpdate, mAfekScan            *metrics.Counter
)

func init() {
	metrics.OnEnable(func(r *metrics.Registry) {
		mRegRead = r.Counter("memory.register.read")
		mRegWrite = r.Counter("memory.register.write")
		mRegContend = r.Counter("memory.register.contended")
		mSnapUpdate = r.Counter("memory.snapshot.update")
		mSnapScan = r.Counter("memory.snapshot.scan")
		mSnapCont = r.Counter("memory.snapshot.contended")
		mMaxWrite = r.Counter("memory.maxreg.write")
		mMaxRead = r.Counter("memory.maxreg.read")
		mMaxContend = r.Counter("memory.maxreg.contended")
		mTreeWrite = r.Counter("memory.treemax.write")
		mTreeRead = r.Counter("memory.treemax.read")
		mAfekUpdate = r.Counter("memory.afek.update")
		mAfekScan = r.Counter("memory.afek.scan")
	})
}

// lockMeter acquires mu, counting acquisitions that found the lock
// already held into contended. With metrics disabled it is a plain
// Lock; enabled, the TryLock fast path costs the same single CAS an
// uncontended Lock does.
func lockMeter(mu *sync.Mutex, contended *metrics.Counter) {
	if contended == nil {
		mu.Lock()
		return
	}
	if !mu.TryLock() {
		contended.Inc()
		mu.Lock()
	}
}

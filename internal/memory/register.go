package memory

import "sync"

// Register is a linearizable atomic multi-writer multi-reader register
// holding a value of type T. The zero-value register is empty; Read
// distinguishes "never written" from any written value, which stands in
// for the paper's registers initialized to the null value.
//
// The paper places no bound on register width, and neither do we: T may be
// a persona carrying an entire priority vector.
type Register[T any] struct {
	mu  sync.Mutex
	val T
	set bool
	ops opCounter
}

// NewRegister returns an empty register.
func NewRegister[T any]() *Register[T] {
	return &Register[T]{}
}

// Write atomically stores v, charging one step.
func (r *Register[T]) Write(ctx Context, v T) {
	ctx.Step()
	excl := ctx.Exclusive()
	if !excl {
		lockMeter(&r.mu, mRegContend)
	}
	r.val, r.set = v, true
	if !excl {
		r.mu.Unlock()
	}
	if faultsArmed() {
		if f := asFaulter(ctx); f != nil {
			f.FaultOnWrite(r, v)
		}
	}
	r.ops.inc()
	mRegWrite.Inc()
}

// Read atomically returns the current value and whether the register has
// ever been written, charging one step.
func (r *Register[T]) Read(ctx Context) (T, bool) {
	ctx.Step()
	if faultsArmed() {
		if f := asFaulter(ctx); f != nil {
			if stale, hit := f.FaultOnRead(r); hit {
				r.ops.inc()
				mRegRead.Inc()
				if stale == nil {
					var zero T
					return zero, false
				}
				return stale.(T), true
			}
		}
	}
	excl := ctx.Exclusive()
	if !excl {
		lockMeter(&r.mu, mRegContend)
	}
	v, ok := r.val, r.set
	if !excl {
		r.mu.Unlock()
	}
	r.ops.inc()
	mRegRead.Inc()
	return v, ok
}

// CompareEmptyAndWrite writes v only if the register has never been
// written, returning whether the write happened and the resulting value.
// This is NOT a primitive of the paper's model and is consequently not
// used by any protocol; it exists for test harnesses that need a cheap
// linearization witness.
func (r *Register[T]) CompareEmptyAndWrite(ctx Context, v T) (T, bool) {
	ctx.Step()
	excl := ctx.Exclusive()
	if !excl {
		lockMeter(&r.mu, mRegContend)
	}
	installed := !r.set
	if installed {
		r.val, r.set = v, true
	}
	val := r.val
	if !excl {
		r.mu.Unlock()
	}
	if installed && faultsArmed() {
		if f := asFaulter(ctx); f != nil {
			f.FaultOnWrite(r, v)
		}
	}
	r.ops.inc()
	if installed {
		mRegWrite.Inc()
	} else {
		// Nothing was installed: the operation only observed state, so it
		// counts as a read.
		mRegRead.Inc()
	}
	return val, installed
}

// Ops reports how many operations this register has served.
func (r *Register[T]) Ops() int64 { return r.ops.load() }

// RegisterArray is a convenience bundle of k independent registers, used
// for per-round register sequences (Algorithm 2's r_i) and flag arrays in
// conflict detectors.
type RegisterArray[T any] struct {
	regs []*Register[T]
}

// NewRegisterArray returns k empty registers.
func NewRegisterArray[T any](k int) *RegisterArray[T] {
	a := &RegisterArray[T]{regs: make([]*Register[T], k)}
	for i := range a.regs {
		a.regs[i] = NewRegister[T]()
	}
	return a
}

// At returns the i-th register.
func (a *RegisterArray[T]) At(i int) *Register[T] { return a.regs[i] }

// Len returns the number of registers.
func (a *RegisterArray[T]) Len() int { return len(a.regs) }

// Ops sums operation counts across the array.
func (a *RegisterArray[T]) Ops() int64 {
	var total int64
	for _, r := range a.regs {
		total += r.Ops()
	}
	return total
}

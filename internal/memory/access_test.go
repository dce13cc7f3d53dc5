package memory

import (
	"fmt"
	"runtime"
	"strings"
	"sync"
	"testing"
	"testing/quick"

	"github.com/oblivious-consensus/conciliator/internal/metrics"
)

// accessOp is one scripted operation for TestAccessModesAgree: Kind picks
// the operation, I the component (or key), V the value written.
type accessOp struct {
	Kind uint8
	I    uint8
	V    int
}

// TestAccessModesAgree pins that the two access modes are one state
// representation: the same operation script run through Free (locked)
// and FreeExclusive (direct field access) on fresh objects returns the
// same results and counts the same operations.
func TestAccessModesAgree(t *testing.T) {
	const n = 4
	objects := []struct {
		name string
		// run applies ops to a fresh object through ctx and returns a
		// transcript of every result plus the object's final Ops().
		run func(ctx Context, ops []accessOp) string
	}{
		{name: "register", run: func(ctx Context, ops []accessOp) string {
			r := NewRegister[int]()
			var b strings.Builder
			for _, o := range ops {
				switch o.Kind % 3 {
				case 0:
					r.Write(ctx, o.V)
				case 1:
					v, ok := r.Read(ctx)
					fmt.Fprintf(&b, "r%d/%v ", v, ok)
				default:
					v, installed := r.CompareEmptyAndWrite(ctx, o.V)
					fmt.Fprintf(&b, "c%d/%v ", v, installed)
				}
			}
			fmt.Fprintf(&b, "ops=%d", r.Ops())
			return b.String()
		}},
		{name: "maxreg", run: func(ctx Context, ops []accessOp) string {
			m := NewMaxRegister[int]()
			var b strings.Builder
			for _, o := range ops {
				if o.Kind%2 == 0 {
					m.WriteMax(ctx, uint64(o.I), o.V)
					continue
				}
				k, p, ok := m.ReadMax(ctx)
				fmt.Fprintf(&b, "%d:%d/%v ", k, p, ok)
			}
			fmt.Fprintf(&b, "ops=%d", m.Ops())
			return b.String()
		}},
		{name: "treemaxreg", run: func(ctx Context, ops []accessOp) string {
			m := NewTreeMaxRegister[int](8)
			var b strings.Builder
			for _, o := range ops {
				if o.Kind%2 == 0 {
					m.WriteMax(ctx, uint64(o.I), o.V)
					continue
				}
				k, p, ok := m.ReadMax(ctx)
				fmt.Fprintf(&b, "%d:%d/%v ", k, p, ok)
			}
			return b.String()
		}},
		{name: "snapshot", run: func(ctx Context, ops []accessOp) string {
			s := NewSnapshot[int](n)
			var b strings.Builder
			for _, o := range ops {
				if o.Kind%2 == 0 {
					s.Update(ctx, int(o.I)%n, o.V)
					continue
				}
				fmt.Fprintf(&b, "%v ", s.Scan(ctx))
			}
			fmt.Fprintf(&b, "ops=%d", s.Ops())
			return b.String()
		}},
		{name: "afek", run: func(ctx Context, ops []accessOp) string {
			s := NewAfekSnapshot[int](n)
			var b strings.Builder
			for _, o := range ops {
				if o.Kind%2 == 0 {
					s.Update(ctx, int(o.I)%n, o.V)
					continue
				}
				fmt.Fprintf(&b, "%v ", s.Scan(ctx))
			}
			fmt.Fprintf(&b, "ops=%d", s.Ops())
			return b.String()
		}},
	}
	for _, obj := range objects {
		t.Run(obj.name, func(t *testing.T) {
			if err := quick.Check(func(ops []accessOp) bool {
				locked, excl := obj.run(Free, ops), obj.run(FreeExclusive, ops)
				if locked != excl {
					t.Logf("locked:    %s\nexclusive: %s", locked, excl)
					return false
				}
				return true
			}, nil); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestAccessModeMutexUse pins how each access mode treats the object's
// mutex. With the mutex held elsewhere, an exclusive-mode operation
// completes without trying it, and a locked-mode operation finds it held
// (the contended counter moves) and waits for its release. No timers: the
// contended counter is the witness that an operation reached the mutex.
func TestAccessModeMutexUse(t *testing.T) {
	metrics.SetDefault(metrics.New())
	defer metrics.SetDefault(nil)

	reg := NewRegister[int]()
	maxr := NewMaxRegister[int]()
	snap := NewSnapshot[int](2)
	objects := []struct {
		name      string
		mu        *sync.Mutex
		contended *metrics.Counter
		ops       map[string]func(ctx Context)
	}{
		{name: "register", mu: &reg.mu, contended: mRegContend, ops: map[string]func(Context){
			"Write":                func(ctx Context) { reg.Write(ctx, 1) },
			"Read":                 func(ctx Context) { reg.Read(ctx) },
			"CompareEmptyAndWrite": func(ctx Context) { reg.CompareEmptyAndWrite(ctx, 2) },
		}},
		{name: "maxreg", mu: &maxr.mu, contended: mMaxContend, ops: map[string]func(Context){
			"WriteMax": func(ctx Context) { maxr.WriteMax(ctx, 1, 1) },
			"ReadMax":  func(ctx Context) { maxr.ReadMax(ctx) },
		}},
		{name: "snapshot", mu: &snap.mu, contended: mSnapCont, ops: map[string]func(Context){
			"Update": func(ctx Context) { snap.Update(ctx, 0, 1) },
			"Scan":   func(ctx Context) { snap.Scan(ctx) },
		}},
	}
	for _, obj := range objects {
		t.Run(obj.name, func(t *testing.T) {
			// finishes starts op(ctx) on its own goroutine and spins until
			// it either completes (true) or counts a contended acquisition
			// of the held mutex (false); the done channel is returned for
			// the caller to wait on after releasing the mutex.
			finishes := func(op func(Context), ctx Context) (bool, <-chan struct{}) {
				before := obj.contended.Value()
				done := make(chan struct{})
				go func() {
					defer close(done)
					op(ctx)
				}()
				for {
					select {
					case <-done:
						return true, done
					default:
					}
					if obj.contended.Value() > before {
						return false, done
					}
					runtime.Gosched()
				}
			}
			for name, op := range obj.ops {
				obj.mu.Lock()
				if ok, done := finishes(op, FreeExclusive); !ok {
					obj.mu.Unlock()
					<-done
					t.Fatalf("exclusive-mode %s tried the object's mutex", name)
				}
				ok, done := finishes(op, Free)
				obj.mu.Unlock()
				<-done
				if ok {
					t.Fatalf("locked-mode %s completed without waiting for the held mutex", name)
				}
			}
		})
	}
}

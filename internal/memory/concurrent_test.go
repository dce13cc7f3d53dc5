// External test package: these tests drive the objects' locked access
// mode through the concurrent simulator (package memory can't import sim
// directly — sim depends on memory) and validate recorded histories with
// the linearize checker.
package memory_test

import (
	"testing"

	"github.com/oblivious-consensus/conciliator/internal/linearize"
	"github.com/oblivious-consensus/conciliator/internal/memory"
	"github.com/oblivious-consensus/conciliator/internal/metrics"
	"github.com/oblivious-consensus/conciliator/internal/sim"
)

// TestOperationOrderCounterDeltas pins the accounting half of the pinned
// operation order (step, effect, fault hook, then counters): each
// operation class moves exactly its own counters, identically in the
// locked and exclusive access modes.
func TestOperationOrderCounterDeltas(t *testing.T) {
	for _, tc := range []struct {
		name string
		ctx  memory.Context
	}{
		{name: "locked", ctx: memory.Free},
		{name: "exclusive", ctx: memory.FreeExclusive},
	} {
		t.Run(tc.name, func(t *testing.T) {
			metrics.SetDefault(metrics.New())
			defer metrics.SetDefault(nil)

			reg := memory.NewRegister[int]()
			maxr := memory.NewMaxRegister[int]()
			snap := memory.NewSnapshot[int](4)

			base := metrics.Default().Snapshot()
			reg.Write(tc.ctx, 1)
			reg.Write(tc.ctx, 2)
			reg.Read(tc.ctx)
			reg.CompareEmptyAndWrite(tc.ctx, 3) // register set: counts as a read
			maxr.WriteMax(tc.ctx, 4, 4)
			maxr.ReadMax(tc.ctx)
			snap.Update(tc.ctx, 0, 5)
			snap.Scan(tc.ctx)
			delta := metrics.Default().Snapshot().Sub(base)

			want := map[string]int64{
				"memory.register.write":  2,
				"memory.register.read":   2,
				"memory.maxreg.write":    1,
				"memory.maxreg.read":     1,
				"memory.snapshot.update": 1,
				"memory.snapshot.scan":   1,
			}
			for name, n := range want {
				if got := delta.Counters[name]; got != n {
					t.Errorf("%s: delta = %d, want %d", name, got, n)
				}
			}
			// No cross-class leakage and no phantom contention in a
			// single-threaded sequence.
			for _, name := range []string{
				"memory.register.contended", "memory.maxreg.contended",
				"memory.snapshot.contended",
			} {
				if got := delta.Counters[name]; got != 0 {
					t.Errorf("%s: delta = %d, want 0", name, got)
				}
			}
			if reg.Ops() != 4 || maxr.Ops() != 2 || snap.Ops() != 2 {
				t.Errorf("Ops: reg=%d maxr=%d snap=%d, want 4/2/2", reg.Ops(), maxr.Ops(), snap.Ops())
			}
		})
	}
}

// runConcurrently runs body on n real goroutines through the concurrent
// simulator, failing the test on any runner error.
func runConcurrently(t *testing.T, n int, seed uint64, body sim.Body) {
	t.Helper()
	if _, err := sim.RunConcurrent(n, body, sim.Config{AlgSeed: seed}); err != nil {
		t.Fatal(err)
	}
}

func TestConcurrentRegisterHistoryLinearizes(t *testing.T) {
	// 4 processes × (2 writes + 2 reads) = 24 ops, within the checker's
	// 64-op window. The Go scheduler provides the interleaving; the
	// checker must find a witness linearization for every recorded run.
	for seed := uint64(1); seed <= 5; seed++ {
		reg := memory.NewRegister[int]()
		var rec linearize.Recorder
		runConcurrently(t, 4, seed, func(p *sim.Proc) {
			for i := 0; i < 2; i++ {
				arg := int64(p.ID()*10 + i + 1)
				s := rec.Begin()
				reg.Write(p, int(arg))
				rec.EndWrite(p.ID(), arg, s)
				s = rec.Begin()
				v, ok := reg.Read(p)
				rec.EndRead(p.ID(), int64(v), ok, s)
			}
		})
		ok, err := linearize.Check(linearize.RegisterSemantics{}, rec.History())
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			t.Fatalf("seed %d: concurrent register history has no linearization:\n%+v", seed, rec.History())
		}
	}
}

func TestConcurrentMaxRegisterHistoryLinearizes(t *testing.T) {
	for seed := uint64(1); seed <= 5; seed++ {
		maxr := memory.NewMaxRegister[int]()
		var rec linearize.Recorder
		runConcurrently(t, 4, seed, func(p *sim.Proc) {
			for i := 0; i < 2; i++ {
				key := uint64(p.ID()*10 + i + 1)
				s := rec.Begin()
				maxr.WriteMax(p, key, int(key))
				rec.EndWrite(p.ID(), int64(key), s)
				s = rec.Begin()
				k, _, ok := maxr.ReadMax(p)
				rec.EndRead(p.ID(), int64(k), ok, s)
			}
		})
		ok, err := linearize.Check(linearize.MaxRegisterSemantics{}, rec.History())
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			t.Fatalf("seed %d: concurrent max-register history has no linearization:\n%+v", seed, rec.History())
		}
	}
}

func TestConcurrentSnapshotViewsNested(t *testing.T) {
	// Linearizability of the snapshot implies every pair of views is
	// subset-ordered; each view is copied inside the object's critical
	// section, so nesting must hold exactly.
	const n = 6
	snap := memory.NewSnapshot[int](n)
	views := make([][][]memory.Entry[int], n)
	runConcurrently(t, n, 99, func(p *sim.Proc) {
		for i := 0; i < 4; i++ {
			snap.Update(p, p.ID(), i+1)
			view := snap.Scan(p)
			mine := make([]memory.Entry[int], len(view))
			copy(mine, view)
			views[p.ID()] = append(views[p.ID()], mine)
		}
	})
	var all [][]memory.Entry[int]
	for _, vs := range views {
		all = append(all, vs...)
	}
	if !memory.ViewsNested(all) {
		t.Fatal("concurrent snapshot views are not nested")
	}
}

// TestConcurrentStress hammers every object class from many goroutines so
// `go test -race ./internal/memory` exercises the locked paths under the
// race detector. Final object states are checked post-run through Free.
func TestConcurrentStress(t *testing.T) {
	const n = 16
	iters := 200
	if testing.Short() {
		iters = 50
	}
	reg := memory.NewRegister[int]()
	maxr := memory.NewMaxRegister[int]()
	tree := memory.NewTreeMaxRegister[int](10)
	snap := memory.NewSnapshot[int](n)
	afek := memory.NewAfekSnapshot[int](n)
	runConcurrently(t, n, 7, func(p *sim.Proc) {
		for i := 0; i < iters; i++ {
			reg.Write(p, p.ID())
			reg.Read(p)
			key := uint64(p.ID()*iters + i)
			maxr.WriteMax(p, key, p.ID())
			tree.WriteMax(p, key%1024, p.ID())
			snap.Update(p, p.ID(), i)
			if i%16 == 0 {
				snap.Scan(p)
				afek.Update(p, p.ID(), i)
			}
		}
	})
	wantMax := uint64((n-1)*iters + iters - 1)
	if k, _, ok := maxr.ReadMax(memory.Free); !ok || k != wantMax {
		t.Errorf("ReadMax = (%d, %v), want (%d, true)", k, ok, wantMax)
	}
	view := snap.Scan(memory.Free)
	for i, e := range view {
		if !e.OK || e.Value != iters-1 {
			t.Errorf("snapshot component %d = %+v, want (%d, true)", i, e, iters-1)
		}
	}
	aview := afek.Scan(memory.Free)
	for i, e := range aview {
		if !e.OK {
			t.Errorf("afek component %d unset after stress", i)
		}
	}
}

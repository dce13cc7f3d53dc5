package des

import (
	"testing"

	"github.com/oblivious-consensus/conciliator/internal/fault"
	"github.com/oblivious-consensus/conciliator/internal/memory"
)

// TestServerOpAllocatesNothing pins that applying an operation to an
// existing object allocates nothing, even from a process id too large
// for Go's small-integer interface cache: the server hands the max
// registers its own context by pointer instead of boxing one per op.
func TestServerOpAllocatesNothing(t *testing.T) {
	const pid = 1000
	mem := memory.NewDense(0)
	mem.Grow(8)
	s := newServer(pid+1, mem, fault.NewMonitor())
	ops := []message{
		{Op: memory.Op{Kind: memory.OpWriteMax, Obj: 3, Key: 7, Val: 1}, from: pid},
		{Op: memory.Op{Kind: memory.OpReadMax, Obj: 3}, from: pid},
		{Op: memory.Op{Kind: memory.OpWrite, Obj: 5, Val: 1}, from: pid},
		{Op: memory.Op{Kind: memory.OpRead, Obj: 5}, from: pid},
	}
	// Create the objects and run past the max register's recorded
	// history window, whose growth is a one-off per object.
	for i := 0; i < 100; i++ {
		for _, m := range ops {
			s.apply(m)
		}
	}
	for _, m := range ops {
		if allocs := testing.AllocsPerRun(200, func() { s.apply(m) }); allocs != 0 {
			t.Errorf("op kind %d from pid %d allocates %v per op, want 0", m.Kind, pid, allocs)
		}
	}
}

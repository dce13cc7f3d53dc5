package adoptcommit

import "github.com/oblivious-consensus/conciliator/internal/memory"

// This file compiles the two adopt-commit objects used by the flat
// consensus machine (internal/consensus) to flat protocol cores. The
// object's shared state lives in memory cells the core addresses through
// memory.Op values, at core-local object indices [0, Objects) that the
// composition offsets; each process's progress through one Propose is an
// explicit cursor. Issue returns the cursor's next operation without
// touching shared state, and Complete consumes its reply. The contract
// is observable equivalence with RegisterAC/SnapshotAC — same operation
// count, same visibility, same decision rule under every interleaving —
// which the cross-engine identity tests and FuzzFlatVsCoroutine pin.

// FlatACCursor is one process's progress through one flat adopt-commit
// Propose. The zero value is the start state; reuse by assigning the
// zero value.
type FlatACCursor struct {
	// PC is the index of the next operation.
	PC int8
	// OK records the conflict-detector verdict (FlatBinaryAC) or the
	// phase-1 clean verdict (FlatSnapshotAC).
	OK bool
	// Conflicted records the dirty-register read on the commit path
	// (FlatBinaryAC only).
	Conflicted bool
}

// FlatBinaryAC is the dense image of NewBinaryAC: a RegisterAC over the
// one-digit binary conflict detector (one FlagsCD(2)), restricted to
// values {0, 1}. Its four registers are the conflict-detector flags for
// 0 and 1, clean, and dirty; a flag is raised by writing it, so a read
// that finds it written sees the flag. Propose costs 4 operations on the
// conflict path and 5 on the commit path, exactly like the original:
//
//	op 0: write own CD flag        op 2': dirty.Write   (conflict path)
//	op 1: read the other CD flag   op 3': clean.Read → adopt
//	op 2: clean.Write(v)           (clean path)
//	op 3: dirty.Read
//	op 4: clean.Read → commit iff undisturbed
type FlatBinaryAC struct{}

// Object indices of FlatBinaryAC's registers.
const (
	binFlag0 = iota // flag for value 0; the flag for 1 follows
	_
	binClean
	binDirty
	// BinaryACObjects is the number of objects a FlatBinaryAC uses.
	BinaryACObjects
)

// Issue returns cur's next operation of Propose(v) for a value in
// {0, 1}.
func (FlatBinaryAC) Issue(cur FlatACCursor, v int64) memory.Op {
	switch {
	case cur.PC == 0:
		return memory.Op{Kind: memory.OpWrite, Obj: binFlag0 + int32(v), Val: 1}
	case cur.PC == 1:
		return memory.Op{Kind: memory.OpRead, Obj: binFlag0 + int32(1-v)}
	case cur.PC == 2 && cur.OK:
		return memory.Op{Kind: memory.OpWrite, Obj: binClean, Val: v}
	case cur.PC == 2:
		return memory.Op{Kind: memory.OpWrite, Obj: binDirty, Val: 1}
	case cur.PC == 3 && cur.OK:
		return memory.Op{Kind: memory.OpRead, Obj: binDirty}
	default: // conflict-path op 3 and commit-path op 4 read clean
		return memory.Op{Kind: memory.OpRead, Obj: binClean}
	}
}

// Complete consumes the reply to cur's issued operation. It returns
// done=true when the Propose completed, with commit and out carrying the
// decision; before that, commit and out are meaningless.
func (FlatBinaryAC) Complete(cur *FlatACCursor, v int64, r memory.Reply) (done, commit bool, out int64) {
	switch cur.PC {
	case 0:
		cur.OK = true
	case 1:
		// A raised flag for the other value is a conflict.
		cur.OK = !r.OK
	case 3:
		if cur.OK {
			cur.Conflicted = r.OK
		} else {
			// Conflict path: adopt what clean holds (or keep v if it is
			// still empty).
			if r.OK {
				return true, false, r.Val
			}
			return true, false, v
		}
	case 4:
		// Commit path: the own clean write guarantees presence.
		if cur.Conflicted || r.Val != v {
			return true, false, r.Val
		}
		return true, true, v
	}
	cur.PC++
	return false, false, 0
}

// FlatSnapshotAC is the dense image of SnapshotAC: two n-component
// unit-cost snapshots, components [0, n) for phase 1 and [n, 2n) for
// phase 2, each scanned with memory.OpScan (the memory's scan width must
// be n). Propose costs exactly 4 operations (update, scan, update, scan),
// like the original.
type FlatSnapshotAC struct {
	n int32
}

// NewFlatSnapshotAC returns a flat snapshot adopt-commit core for n
// processes.
func NewFlatSnapshotAC(n int) FlatSnapshotAC { return FlatSnapshotAC{n: int32(n)} }

// Objects returns the number of objects (snapshot components) the core
// uses.
func (a FlatSnapshotAC) Objects() int { return 2 * int(a.n) }

// Issue returns cur's next operation of Propose(v) by process pid. A
// phase-2 component carries its clean flag as the key, so the phase-2
// scan's summary is exactly what the decision needs: whether every
// visible component is (clean, v), and the last clean entry.
func (a FlatSnapshotAC) Issue(cur FlatACCursor, pid int, v int64) memory.Op {
	switch cur.PC {
	case 0: // phase-1 update
		return memory.Op{Kind: memory.OpWrite, Obj: int32(pid), Val: v}
	case 1: // phase-1 scan: clean iff only own value visible
		return memory.Op{Kind: memory.OpScan, Obj: 0, Val: v}
	case 2: // phase-2 update of (v, clean)
		var clean uint64
		if cur.OK {
			clean = 1
		}
		return memory.Op{Kind: memory.OpWrite, Obj: a.n + int32(pid), Key: clean, Val: v}
	default: // phase-2 scan
		return memory.Op{Kind: memory.OpScan, Obj: a.n, Key: 1, Val: v}
	}
}

// Complete consumes the reply to cur's issued operation, with the
// decision rule of SnapshotAC.Propose including the last-clean-entry-wins
// rule of the phase-2 scan.
func (a FlatSnapshotAC) Complete(cur *FlatACCursor, v int64, r memory.Reply) (done, commit bool, out int64) {
	switch cur.PC {
	case 1:
		cur.OK = r.OK
	case 3:
		if cur.OK && r.OK {
			return true, true, v
		}
		if r.Key != 0 {
			return true, false, r.Val
		}
		return true, false, v
	}
	cur.PC++
	return false, false, 0
}

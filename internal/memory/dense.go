package memory

// OpKind names a shared-memory operation in the value encoding the flat
// protocol cores issue (see Op).
type OpKind uint8

const (
	// OpWrite stores (Key, Val) in register Obj.
	OpWrite OpKind = iota
	// OpRead reads register Obj: Reply{OK: written, Key, Val}.
	OpRead
	// OpWriteMax is WriteMax(Key, Val) on max register Obj: the pair
	// replaces the incumbent iff the register is empty or Key is strictly
	// greater (ties keep the incumbent).
	OpWriteMax
	// OpReadMax is ReadMax on max register Obj: Reply{OK: written, Key,
	// Val} of the incumbent.
	OpReadMax
	// OpScan is a unit-cost snapshot scan of the components held in
	// cells [Obj, Obj+width), summarized for the reader: Reply.OK reports
	// whether every written component equals (Key, Val), and Reply.Key
	// and Reply.Val are the highest-index written component whose key is
	// nonzero (both zero if there is none). Components are written with
	// OpWrite.
	OpScan
)

// Op is one shared-memory operation as a value. A flat protocol core
// issues it without touching shared state; an executor applies it — the
// flat engine to a Dense memory in the same call, the message-passing
// simulator to its memory server over an RPC — and hands the Reply back
// to the core.
type Op struct {
	Kind OpKind
	Obj  int32
	Key  uint64
	Val  int64
}

// Reply is an operation's result. A write's reply is the zero Reply.
type Reply struct {
	OK  bool
	Key uint64
	Val int64
}

// Dense is the flat engine's shared memory: one cell per object index, a
// cell being a register, a max register, or one snapshot component
// depending on the ops that address it. A cell holds what reading it
// returns. Apply is unit-cost and sequential, so a Dense memory is the
// shared-memory model of a single-threaded executor, not a concurrent
// object.
type Dense struct {
	cells []Reply
	width int
}

// NewDense returns an empty memory whose snapshot scans cover width
// consecutive cells (one component per process).
func NewDense(width int) *Dense { return &Dense{width: width} }

// Grow makes cells [0, count) addressable; new cells are empty.
func (d *Dense) Grow(count int) {
	if n := count - len(d.cells); n > 0 {
		d.cells = append(d.cells, make([]Reply, n)...)
	}
}

// Reset empties every cell, keeping the backing array for reuse.
func (d *Dense) Reset() { clear(d.cells) }

// Apply executes op and returns its reply.
func (d *Dense) Apply(op Op) Reply {
	c := &d.cells[op.Obj]
	switch op.Kind {
	case OpWrite:
		*c = Reply{OK: true, Key: op.Key, Val: op.Val}
	case OpWriteMax:
		if !c.OK || op.Key > c.Key {
			*c = Reply{OK: true, Key: op.Key, Val: op.Val}
		}
	case OpScan:
		return d.scan(op)
	default: // OpRead, OpReadMax
		return *c
	}
	return Reply{}
}

func (d *Dense) scan(op Op) Reply {
	r := Reply{OK: true}
	for _, c := range d.cells[op.Obj : int(op.Obj)+d.width] {
		if !c.OK {
			continue
		}
		if c.Key != 0 {
			r.Key, r.Val = c.Key, c.Val
		}
		if c.Key != op.Key || c.Val != op.Val {
			r.OK = false
		}
	}
	return r
}

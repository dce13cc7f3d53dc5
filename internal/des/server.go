package des

import (
	"fmt"

	"github.com/oblivious-consensus/conciliator/internal/fault"
	"github.com/oblivious-consensus/conciliator/internal/memory"
)

// message is both RPC request and reply. A request carries the
// operation its process's protocol core issued, or is a session resync;
// a reply echoes the request's sync, opSeq, and inc, with the result in
// ok, Key, and Val. It is carried by value inside events.
type message struct {
	memory.Op
	sync  bool // session resync after an amnesiac restart (no op)
	ok    bool
	from  int32 // requesting process id
	opSeq uint32
	// inc is the sender's incarnation number: an amnesiac restart bumps
	// it, so the server can fence the dead incarnation's stragglers and
	// the client can ignore stale replies and timers.
	inc uint32
}

// opCtx is the memory.Context under which the server applies max-register
// operations: free (steps are accounted at the client as RPC round
// trips), exclusive (the engine is single-threaded, so the objects'
// direct representation is safe), and carrying the originating process
// id so the fault monitors attribute observations correctly. The server
// owns one and passes it by pointer, so no op boxes a context.
type opCtx struct{ pid int }

func (*opCtx) Step()           {}
func (*opCtx) Exclusive() bool { return true }
func (c *opCtx) ID() int       { return c.pid }

// server is the memory node: it owns every shared object and applies
// each logical operation exactly once. The objects live in the
// core's object-index space: registers (conciliator round registers of
// the sifters, adopt-commit flags, clean and dirty — presence doubles as
// the flag bit) are cells of the core's own memory.Dense, the memory the
// flat engine steps, and max registers (priority-max rounds) are
// monitored max registers, created on first use, so the linearizability
// monitor watches every one. Clients are stop-and-wait with
// per-process (incarnation, operation-sequence) pairs, so dedup needs
// only the last applied pair and its reply per process: a request with
// the same sequence is a retransmission (re-send the cached reply — the
// first reply may have been lost), anything older is a stale duplicate
// to drop, and anything newer is new work. Stop-and-wait makes new
// sequences contiguous in the steady state; a gap can only appear after
// this server lost its own dedup cache in an amnesiac restart, in which
// case accepting the gap is what re-admits the (still live) clients. A
// lower incarnation is a dead process's straggler and is fenced; a
// higher one resets the session.
type server struct {
	mem  *memory.Dense
	maxs []*fault.MonitoredMaxer[int64]
	mon  *fault.Monitor
	ctx  opCtx

	lastInc  []uint32
	lastSeq  []uint32
	lastRep  []message
	applied  int64
	dupDrops int64

	// log, when non-nil, receives every applied request and its reply
	// in application order.
	log func(req, rep message)

	// down marks a crash window: the run loop discards deliveries
	// addressed to a down server, so in-flight RPCs time out at the
	// clients and the retry policy takes over.
	down  bool
	wipes int64
}

// newServer returns a server for n processes whose registers are the
// cells of mem.
func newServer(n int, mem *memory.Dense, mon *fault.Monitor) *server {
	return &server{
		mem:     mem,
		mon:     mon,
		lastInc: make([]uint32, n),
		lastSeq: make([]uint32, n),
		lastRep: make([]message, n),
	}
}

func (s *server) maxReg(i int32) *fault.MonitoredMaxer[int64] {
	for int(i) >= len(s.maxs) {
		s.maxs = append(s.maxs, nil)
	}
	if s.maxs[i] == nil {
		s.maxs[i] = fault.NewMonitoredMaxer[int64](memory.NewMaxRegister[int64](), s.mon)
	}
	return s.maxs[i]
}

// handle processes one incoming request and routes the reply back
// through the network.
func (s *server) handle(q *eventQueue, nw *network, now int64, m message) {
	switch {
	case m.inc < s.lastInc[m.from]:
		// A dead incarnation's straggler; fence it.
		s.dupDrops++
		return
	case m.inc > s.lastInc[m.from]:
		// A new incarnation announces itself: the old session's dedup
		// state is history.
		s.lastInc[m.from] = m.inc
		s.lastSeq[m.from] = 0
		s.lastRep[m.from] = message{}
	}
	last := s.lastSeq[m.from]
	switch {
	case m.opSeq == last:
		// Retransmitted request whose reply may have been lost.
		s.dupDrops++
		nw.send(q, now, serverID, m.from, s.lastRep[m.from])
		return
	case m.opSeq < last:
		// A duplicate older than the client's current operation; its
		// reply was already consumed. Drop.
		s.dupDrops++
		return
	}
	reply := s.apply(m)
	s.lastSeq[m.from] = m.opSeq
	s.lastRep[m.from] = reply
	s.applied++
	if s.log != nil {
		s.log(m, reply)
	}
	nw.send(q, now, serverID, m.from, reply)
}

// apply executes one logical operation against the shared objects. The
// server implements the operations of the register-model cores.
func (s *server) apply(m message) message {
	r := message{sync: m.sync, opSeq: m.opSeq, inc: m.inc}
	if m.sync {
		// Session re-establishment after an amnesiac restart: the
		// incarnation bump in handle already reset the dedup slot; the
		// ack is the client's cue that the server will accept its fresh
		// sequence numbers.
		return r
	}
	switch m.Kind {
	case memory.OpWrite, memory.OpRead:
		rep := s.mem.Apply(m.Op)
		r.ok, r.Key, r.Val = rep.OK, rep.Key, rep.Val
	case memory.OpWriteMax:
		s.ctx.pid = int(m.from)
		s.maxReg(m.Obj).WriteMax(&s.ctx, m.Key, m.Val)
	case memory.OpReadMax:
		s.ctx.pid = int(m.from)
		r.Key, r.Val, r.ok = s.maxReg(m.Obj).ReadMax(&s.ctx)
	default:
		panic(fmt.Sprintf("des: the memory server does not implement op kind %d", m.Kind))
	}
	return r
}

// wipe is an amnesiac server restart: every register and the dedup cache
// are lost. The monitored max registers' recorded histories are checked
// first so pre-wipe linearizability findings are not discarded with the
// objects. Wiping breaks the atomic shared-memory model — the safety
// monitors observing across the wipe are expected to fire; that is the
// finding, not a bug.
func (s *server) wipe() {
	s.finish()
	s.mem.Reset()
	s.maxs = nil
	for i := range s.lastSeq {
		s.lastInc[i], s.lastSeq[i], s.lastRep[i] = 0, 0, message{}
	}
	s.wipes++
}

// finish runs the per-object linearizability checks of the monitored max
// registers.
func (s *server) finish() {
	for _, m := range s.maxs {
		if m != nil {
			m.Finish()
		}
	}
}

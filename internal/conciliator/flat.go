package conciliator

import (
	"fmt"
	"math"

	"github.com/oblivious-consensus/conciliator/internal/memory"
	"github.com/oblivious-consensus/conciliator/internal/persona"
	"github.com/oblivious-consensus/conciliator/internal/sim"
	"github.com/oblivious-consensus/conciliator/internal/stats"
	"github.com/oblivious-consensus/conciliator/internal/xrand"
)

// This file compiles the conciliators to flat protocol cores: per-process
// cursors live in dense slices instead of heap objects and coroutine
// frames, and each shared-memory operation is a memory.Op value. Issue
// returns a process's next operation without touching shared state and
// Complete consumes its reply, so the same core runs on any executor
// that applies ops: the flat engine (Step applies to the core's own
// memory.Dense; internal/consensus composes the cores over one shared
// Dense) and the message-passing simulator (internal/des ships each op
// to its memory server). Object indices in issued ops are core-local,
// [0, Rounds()); a composition offsets them.
//
// The correctness contract is observable equivalence with the coroutine
// implementations, not code sharing — every machine here must consume
// the per-process RNG streams in exactly the order persona.New and the
// coroutine round loops do, and must issue exactly one operation per
// step with the same shared-memory semantics as internal/memory. The
// cross-engine identity tests and FuzzFlatVsCoroutine pin this.

// FlatPersonae is the dense persona pool: the flat-engine image of
// persona.Persona values, holding what the flat conciliators read.
// Persona identity is the index (the coroutine engine uses pointer
// identity), handed out in draw order, so no draw ever overwrites a
// persona some process may still hold — not even a restarted process's
// draw, whose earlier incarnation's persona others may have adopted from
// a register. All pre-drawn randomness lives in flattened per-round
// slices. Draw replicates persona.New's draw order exactly: coin first
// (drawn for its stream position; no flat core reads it), then per-round
// priorities, then per-round write bits.
type FlatPersonae struct {
	prioRounds int
	prioBound  uint64
	writeProbs []float64

	vals  []int64
	prios []uint64
	bits  []bool

	next int // the id the next Draw fills
}

// NewFlatPersonae returns an empty pool drawing personae with the given
// persona configuration.
func NewFlatPersonae(cfg persona.Config) *FlatPersonae {
	return &FlatPersonae{
		prioRounds: cfg.PriorityRounds,
		prioBound:  cfg.PriorityBound,
		writeProbs: cfg.WriteProbs,
	}
}

// EnsureIDs grows the pool's backing arrays to hold ids [0, count).
// Growth is amortized (append's), so steady-state reuse across trials
// does not allocate.
func (pp *FlatPersonae) EnsureIDs(count int) {
	pp.vals = growTo(pp.vals, count)
	pp.prios = growTo(pp.prios, count*pp.prioRounds)
	pp.bits = growTo(pp.bits, count*len(pp.writeProbs))
}

// growTo extends s with zero values to at least length n.
func growTo[T any](s []T, n int) []T {
	if n <= len(s) {
		return s
	}
	return append(s, make([]T, n-len(s))...)
}

// Clear forgets every persona; ids are handed out from 0 again.
func (pp *FlatPersonae) Clear() { pp.next = 0 }

// Draw fills the next unused id with a persona of value val, drawing all
// randomness from rng in the same order persona.New does, and returns
// the id.
func (pp *FlatPersonae) Draw(val int64, rng *xrand.Rand) int32 {
	id := pp.next
	pp.next++
	pp.EnsureIDs(id + 1)
	pp.vals[id] = val
	rng.Bool() // the coin
	if pp.prioRounds > 0 {
		base := id * pp.prioRounds
		for i := 0; i < pp.prioRounds; i++ {
			if pp.prioBound > 0 {
				pp.prios[base+i] = 1 + rng.Uint64n(pp.prioBound)
			} else {
				pp.prios[base+i] = rng.Uint64()
			}
		}
	}
	if len(pp.writeProbs) > 0 {
		base := id * len(pp.writeProbs)
		for i, prob := range pp.writeProbs {
			pp.bits[base+i] = rng.Bernoulli(prob)
		}
	}
	return int32(id)
}

// Value returns persona id's input value.
func (pp *FlatPersonae) Value(id int32) int64 { return pp.vals[id] }

// Priority returns persona id's pre-drawn priority for round i.
func (pp *FlatPersonae) Priority(id int32, i int) uint64 {
	return pp.prios[int(id)*pp.prioRounds+i]
}

// WriteBit returns persona id's pre-drawn chooseWrite decision for
// round i.
func (pp *FlatPersonae) WriteBit(id int32, i int) bool {
	return pp.bits[int(id)*len(pp.writeProbs)+i]
}

// SifterHalfRounds returns the round count of the constant-p = 1/2
// sifter baseline: survivors halve in expectation each round, so
// Theta(log n) rounds drive the survivor bound through the same epsilon
// tail the tuned schedule reaches in ceil(log log n) rounds (compare
// SifterRounds).
func SifterHalfRounds(n int, epsilon float64) int {
	r := stats.CeilLog2(n) + stats.CeilLogBase(4.0/3.0, 8/epsilon)
	if r < 1 {
		r = 1
	}
	return r
}

// HalfSifterConfig returns the SifterConfig of the constant-p = 1/2
// baseline for n processes: SifterHalfRounds rounds, every round writing
// with probability 1/2. Feeding it to NewSifter and NewFlatSifter yields
// byte-identical executions of the ablation the flat and DES engines
// call "sifter-half".
func HalfSifterConfig(n int, epsilon float64) SifterConfig {
	if epsilon <= 0 || epsilon >= 1 {
		epsilon = 0.5
	}
	return SifterConfig{
		Epsilon: epsilon,
		Rounds:  SifterHalfRounds(n, epsilon),
		Probs:   []float64{0.5},
	}
}

// flatCore is the part of a flat conciliator core both algorithms share:
// the persona pool, per-process cursors — the current persona id and the
// index of the next operation — and the round objects a standalone Step
// applies to (created by the first Step; a composition applies the ops
// to its own memory). Either algorithm's operations complete the same
// way: a read that found a persona adopts it.
type flatCore struct {
	rounds int
	ops    int // operations per process
	pp     *FlatPersonae
	mem    *memory.Dense

	cur    []concCursor // per process
	inputs []int64
}

// concCursor is one process's progress through a flat conciliator.
type concCursor struct {
	pers int32 // current persona id
	pos  int32 // next operation index
}

func newFlatCore(n, rounds, ops int, pcfg persona.Config) flatCore {
	c := flatCore{
		rounds: rounds,
		ops:    ops,
		pp:     NewFlatPersonae(pcfg),
		cur:    make([]concCursor, n),
	}
	c.pp.EnsureIDs(n)
	c.Reset(nil)
	return c
}

// Rounds returns the number of rounds R the machine executes.
func (m *flatCore) Rounds() int { return m.rounds }

// Reset prepares the machine for a fresh run with the given inputs
// (inputs[pid]; nil means input = pid). The slice is read during Init
// and not retained past the run.
func (m *flatCore) Reset(inputs []int64) {
	m.inputs = inputs
	if m.mem != nil {
		m.mem.Reset()
	}
	m.pp.Clear()
}

// Init implements sim.FlatMachine: persona creation, the only pre-step
// randomness of the conciliator body. It (re)starts pid at its first
// operation, so calling it again restarts a process with a new persona.
func (m *flatCore) Init(pid int, rng *xrand.Rand) {
	m.cur[pid] = concCursor{pers: m.pp.Draw(m.input(pid), rng)}
}

func (m *flatCore) input(pid int) int64 {
	if m.inputs != nil {
		return m.inputs[pid]
	}
	return int64(pid)
}

// Complete consumes the reply to pid's issued operation — a read that
// found a persona adopts it — and reports whether pid's conciliator is
// finished.
func (m *flatCore) Complete(pid int, r memory.Reply) bool {
	c := &m.cur[pid]
	if r.OK {
		c.pers = int32(r.Val)
	}
	c.pos++
	return int(c.pos) >= m.ops
}

func (m *flatCore) apply(op memory.Op) memory.Reply {
	if m.mem == nil {
		m.mem = memory.NewDense(0)
		m.mem.Grow(m.rounds)
	}
	return m.mem.Apply(op)
}

// Value returns the conciliator output of a finished process.
func (m *flatCore) Value(pid int) int64 { return m.pp.Value(m.cur[pid].pers) }

// FlatSifter is Algorithm 2 compiled to a flat core: one register per
// round (object index = round) holding a persona id, one operation per
// round. Single-phase (one Conciliate per process); consensus phase
// composition lives in internal/consensus.
//
// The ablation switches (SharePersonae=false, TrackSurvivors) are not
// ported; NewFlatSifter rejects configurations that ask for them.
type FlatSifter struct{ flatCore }

var _ sim.FlatMachine = (*FlatSifter)(nil)

// NewFlatSifter returns a flat Algorithm 2 machine for n processes,
// resolving rounds and write probabilities exactly as NewSifter does.
// Call Reset before each run.
func NewFlatSifter(n int, cfg SifterConfig) *FlatSifter {
	cfg = cfg.withDefaults()
	if !*cfg.SharePersonae || cfg.TrackSurvivors {
		panic("conciliator: FlatSifter supports only the default shared-personae configuration")
	}
	rounds := cfg.Rounds
	if rounds <= 0 {
		rounds = SifterRounds(n, cfg.Epsilon)
	}
	if rounds < 1 {
		rounds = 1
	}
	probs := SifterProbs(n, rounds)
	if len(cfg.Probs) > 0 {
		for i := range probs {
			if i < len(cfg.Probs) {
				probs[i] = cfg.Probs[i]
			} else {
				probs[i] = cfg.Probs[len(cfg.Probs)-1]
			}
		}
	}
	return &FlatSifter{newFlatCore(n, rounds, rounds, persona.Config{WriteProbs: probs})}
}

// Issue returns pid's next operation: the round's single write of its
// persona (pre-drawn bit set) or read of the round register.
func (m *FlatSifter) Issue(pid int) memory.Op {
	c := m.cur[pid]
	if m.pp.WriteBit(c.pers, int(c.pos)) {
		return memory.Op{Kind: memory.OpWrite, Obj: c.pos, Val: int64(c.pers)}
	}
	return memory.Op{Kind: memory.OpRead, Obj: c.pos}
}

// Step implements sim.FlatMachine: one sifting round, exactly one
// register operation.
func (m *FlatSifter) Step(pid int, _ *xrand.Rand) bool {
	return m.Complete(pid, m.apply(m.Issue(pid)))
}

// FlatPriorityMax is Algorithm 1's footnote-1 max-register variant
// compiled to a flat core: per round one unit-cost max register (object
// index = round) holding a (priority, persona id) pair, two operations
// per round (WriteMax, then ReadMax-and-adopt). Only the UseMaxRegisters
// configuration is ported; snapshot rounds, tree max registers, compact
// values, and the ablation switches are rejected.
type FlatPriorityMax struct{ flatCore }

var _ sim.FlatMachine = (*FlatPriorityMax)(nil)

// NewFlatPriorityMax returns a flat footnote-1 Algorithm 1 machine for n
// processes, resolving rounds and the priority bound exactly as
// NewPriority does for UseMaxRegisters configurations. Call Reset before
// each run.
func NewFlatPriorityMax(n int, cfg PriorityConfig) *FlatPriorityMax {
	cfg = cfg.withDefaults()
	if !cfg.UseMaxRegisters || cfg.TreeMax || cfg.UseAfekSnapshot || cfg.CompactValues ||
		cfg.InconsistentTies || !*cfg.SharePersonae || cfg.TrackSurvivors {
		panic(fmt.Sprintf("conciliator: FlatPriorityMax supports only the plain max-register configuration, got %+v", cfg))
	}
	rounds := cfg.Rounds
	if rounds <= 0 {
		rounds = PriorityRounds(n, cfg.Epsilon)
	}
	var bound uint64
	switch {
	case cfg.PriorityBound != 0:
		bound = cfg.PriorityBound
	case cfg.PaperPriorityRange:
		bound = uint64(math.Ceil(float64(rounds) * float64(n) * float64(n) / cfg.Epsilon))
	}
	return &FlatPriorityMax{newFlatCore(n, rounds, 2*rounds, persona.Config{PriorityRounds: rounds, PriorityBound: bound})}
}

// Issue returns pid's next operation: alternately WriteMax of its
// persona under the round's pre-drawn priority and ReadMax. The ReadMax
// follows the process's own WriteMax, so it always finds a persona to
// adopt, as in the coroutine round.
func (m *FlatPriorityMax) Issue(pid int) memory.Op {
	c := m.cur[pid]
	i := c.pos / 2
	if c.pos&1 == 0 {
		return memory.Op{Kind: memory.OpWriteMax, Obj: i, Key: m.pp.Priority(c.pers, int(i)), Val: int64(c.pers)}
	}
	return memory.Op{Kind: memory.OpReadMax, Obj: i}
}

// Step implements sim.FlatMachine: one WriteMax or ReadMax-adopt
// operation.
func (m *FlatPriorityMax) Step(pid int, _ *xrand.Rand) bool {
	return m.Complete(pid, m.apply(m.Issue(pid)))
}

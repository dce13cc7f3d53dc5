package consensus

import (
	"fmt"

	"github.com/oblivious-consensus/conciliator/internal/adoptcommit"
	"github.com/oblivious-consensus/conciliator/internal/conciliator"
	"github.com/oblivious-consensus/conciliator/internal/memory"
	"github.com/oblivious-consensus/conciliator/internal/sim"
	"github.com/oblivious-consensus/conciliator/internal/xrand"
)

// This file compiles the full conciliator + adopt-commit phase loop to a
// flat protocol core: per-process phase cursors live in a dense slice,
// each phase's conciliator is a flat core from internal/conciliator, and
// each phase's adopt-commit is a flat core from internal/adoptcommit.
// Every shared object of every phase is a cell of one memory.Dense,
// phase ph owning the object indices [ph*perPhase, (ph+1)*perPhase):
// first the conciliator's rounds, then the adopt-commit's objects.
//
// The core is split into Issue (a process's next operation, as a
// memory.Op) and Complete (consume its reply), so it has two executors:
// Step applies each op to the Dense memory in the same call, which makes
// FlatConsensus a sim.FlatMachine, and internal/des ships each op to its
// memory server over a stop-and-wait RPC. The observable-equivalence
// contract with the coroutine Protocol (EquivalentProtocol builds the
// matching one) is pinned by the cross-engine identity tests and
// FuzzFlatVsCoroutine: same slots, same per-process step counts, same
// decisions under every schedule and algorithm seed.

// Conciliator and adopt-commit selectors for FlatConfig.
const (
	ConcSifter      = "sifter"       // Algorithm 2 (register model)
	ConcSifterHalf  = "sifter-half"  // constant-p = 1/2 sifter baseline
	ConcPriorityMax = "priority-max" // Algorithm 1, footnote-1 max registers

	ACRegister = "register" // binary register adopt-commit (values {0, 1})
	ACSnapshot = "snapshot" // snapshot adopt-commit (any int64 values)
)

// FlatConfig selects the protocol assembled by NewFlat.
type FlatConfig struct {
	// Conciliator is one of ConcSifter, ConcSifterHalf, ConcPriorityMax.
	Conciliator string
	// AC is one of ACRegister, ACSnapshot. ACRegister restricts inputs
	// to {0, 1}.
	AC string
	// Epsilon is the per-phase conciliator failure bound (0 = 0.5, the
	// value the coroutine factories use).
	Epsilon float64
	// MaxPhases bounds the phase loop (0 = default 64), with the same
	// validity valve as the coroutine Protocol.
	MaxPhases int
}

func (cfg FlatConfig) withDefaults() FlatConfig {
	if cfg.Conciliator == "" {
		cfg.Conciliator = ConcSifter
	}
	if cfg.AC == "" {
		cfg.AC = ACRegister
	}
	if cfg.Epsilon <= 0 || cfg.Epsilon >= 1 {
		cfg.Epsilon = 0.5
	}
	if cfg.MaxPhases <= 0 {
		cfg.MaxPhases = defaultMaxPhases
	}
	return cfg
}

// sifterConfig resolves the conciliator.SifterConfig the coroutine
// factories would pass to NewSifter for this FlatConfig.
func (cfg FlatConfig) sifterConfig(n int) conciliator.SifterConfig {
	if cfg.Conciliator == ConcSifterHalf {
		return conciliator.HalfSifterConfig(n, cfg.Epsilon)
	}
	return conciliator.SifterConfig{Epsilon: cfg.Epsilon}
}

// priorityConfig draws priorities from the paper's range
// {1..ceil(R n^2 / epsilon)}, which keeps keys inside int64 for the
// message-passing simulator's max-register monitor.
func (cfg FlatConfig) priorityConfig() conciliator.PriorityConfig {
	return conciliator.PriorityConfig{Epsilon: cfg.Epsilon, UseMaxRegisters: true, PaperPriorityRange: true}
}

const (
	concKindSifter = iota
	concKindPriorityMax
)

// FlatConsensus is the phase loop of Protocol.ProposeWithPhases compiled
// to a flat core. Per-phase conciliators and memory cells are created
// lazily the first time any process enters the phase (bookkeeping, no
// modeled steps, exactly like Protocol.phase) and are retained across
// Reset, so steady-state Monte Carlo trials run without allocation.
type FlatConsensus struct {
	n         int
	cfg       FlatConfig
	concKind  int8
	binary    bool
	maxPhases int
	rounds    int32 // conciliator rounds per phase
	perPhase  int32 // objects per phase

	// pref is each process's preference; the per-phase conciliators
	// read it as their input.
	pref  []int64
	procs []flatProc

	// Per-phase conciliators, indexed by phase, grown lazily.
	sifters []*conciliator.FlatSifter
	prios   []*conciliator.FlatPriorityMax
	snapAC  adoptcommit.FlatSnapshotAC

	mem    *memory.Dense
	inputs []int64
}

// flatProc is one process's phase cursor.
type flatProc struct {
	acVal   int64 // the phase's adopt-commit input
	phase   int32
	phases  int32 // phases used by a decided process
	acCur   adoptcommit.FlatACCursor
	inConc  bool
	decided bool
}

var _ sim.FlatMachine = (*FlatConsensus)(nil)

// NewFlat returns a flat consensus machine for n processes. Call Reset
// before each run.
func NewFlat(n int, cfg FlatConfig) (*FlatConsensus, error) {
	cfg = cfg.withDefaults()
	m := &FlatConsensus{
		n:         n,
		cfg:       cfg,
		maxPhases: cfg.MaxPhases,
		pref:      make([]int64, n),
		procs:     make([]flatProc, n),
		mem:       memory.NewDense(n),
	}
	switch cfg.Conciliator {
	case ConcSifter, ConcSifterHalf:
		m.concKind = concKindSifter
		m.sifters = []*conciliator.FlatSifter{conciliator.NewFlatSifter(n, cfg.sifterConfig(n))}
		m.rounds = int32(m.sifters[0].Rounds())
	case ConcPriorityMax:
		m.concKind = concKindPriorityMax
		m.prios = []*conciliator.FlatPriorityMax{conciliator.NewFlatPriorityMax(n, cfg.priorityConfig())}
		m.rounds = int32(m.prios[0].Rounds())
	default:
		return nil, fmt.Errorf("consensus: unknown flat conciliator %q", cfg.Conciliator)
	}
	switch cfg.AC {
	case ACRegister:
		m.binary = true
		m.perPhase = m.rounds + adoptcommit.BinaryACObjects
	case ACSnapshot:
		m.snapAC = adoptcommit.NewFlatSnapshotAC(n)
		m.perPhase = m.rounds + int32(m.snapAC.Objects())
	default:
		return nil, fmt.Errorf("consensus: unknown flat adopt-commit %q", cfg.AC)
	}
	m.Reset(nil)
	return m, nil
}

// EquivalentProtocol builds the coroutine Protocol that NewFlat(n, cfg)
// reproduces byte-identically: the same factories the Corollary
// constructors use, specialised to int values.
func EquivalentProtocol(n int, cfg FlatConfig) (*Protocol[int], error) {
	cfg = cfg.withDefaults()
	var newConc func(int) conciliator.Interface[int]
	switch cfg.Conciliator {
	case ConcSifter, ConcSifterHalf:
		scfg := cfg.sifterConfig(n)
		newConc = func(int) conciliator.Interface[int] {
			return conciliator.NewSifter[int](n, scfg)
		}
	case ConcPriorityMax:
		pcfg := cfg.priorityConfig()
		newConc = func(int) conciliator.Interface[int] {
			return conciliator.NewPriority[int](n, pcfg)
		}
	default:
		return nil, fmt.Errorf("consensus: unknown flat conciliator %q", cfg.Conciliator)
	}
	var newAC func(int) adoptcommit.Object[int]
	switch cfg.AC {
	case ACRegister:
		newAC = func(int) adoptcommit.Object[int] { return adoptcommit.NewBinaryAC() }
	case ACSnapshot:
		newAC = func(int) adoptcommit.Object[int] { return adoptcommit.NewSnapshotAC[int](n) }
	default:
		return nil, fmt.Errorf("consensus: unknown flat adopt-commit %q", cfg.AC)
	}
	return New(n, Config[int]{
		NewConciliator: newConc,
		NewAdoptCommit: newAC,
		MaxPhases:      cfg.MaxPhases,
	}), nil
}

// Reset prepares the machine for a fresh run with the given inputs
// (inputs[pid]; nil means input = pid mod 2). The slice is read during
// Init and not retained past the run. With AC == ACRegister, inputs must
// lie in {0, 1}.
func (m *FlatConsensus) Reset(inputs []int64) {
	if inputs != nil && m.binary {
		for pid, v := range inputs {
			if v != 0 && v != 1 {
				panic(fmt.Sprintf("consensus: register adopt-commit requires binary inputs, got inputs[%d] = %d", pid, v))
			}
		}
	}
	m.inputs = inputs
	for pid := range m.procs {
		m.procs[pid] = flatProc{inConc: true}
	}
	for _, s := range m.sifters {
		s.Reset(m.pref)
	}
	for _, p := range m.prios {
		p.Reset(m.pref)
	}
	m.mem.Reset()
	m.enterPhase(0)
}

// enterPhase makes sure phase ph's conciliator and memory cells exist.
// Lazy creation mirrors Protocol.phase: bookkeeping only, no modeled
// steps.
func (m *FlatConsensus) enterPhase(ph int) {
	switch m.concKind {
	case concKindSifter:
		for len(m.sifters) <= ph {
			s := conciliator.NewFlatSifter(m.n, m.cfg.sifterConfig(m.n))
			s.Reset(m.pref)
			m.sifters = append(m.sifters, s)
		}
	case concKindPriorityMax:
		for len(m.prios) <= ph {
			p := conciliator.NewFlatPriorityMax(m.n, m.cfg.priorityConfig())
			p.Reset(m.pref)
			m.prios = append(m.prios, p)
		}
	}
	m.mem.Grow((ph + 1) * int(m.perPhase))
}

// Init implements sim.FlatMachine: record the input preference and draw
// the phase-0 persona, the only pre-first-step randomness of the
// coroutine body.
func (m *FlatConsensus) Init(pid int, rng *xrand.Rand) {
	m.pref[pid] = int64(pid % 2)
	if m.inputs != nil {
		m.pref[pid] = m.inputs[pid]
	}
	m.concInit(0, pid, rng)
}

// Restart is an amnesiac crash-recovery of process pid: it forgets its
// progress and re-runs the protocol from phase 0 with its input, drawing
// the phase-0 persona from rng now. Persona ids are handed out in draw
// order, so the new incarnation's personae never overwrite the earlier
// incarnation's, which other processes may have adopted from a register;
// the shared memory keeps everything the earlier incarnation wrote.
func (m *FlatConsensus) Restart(pid int, rng *xrand.Rand) {
	m.procs[pid] = flatProc{inConc: true}
	m.Init(pid, rng)
}

// concInit draws process pid's phase-ph persona, reading pref[pid] as
// the conciliator input — the coroutine engine does this at the top of
// Conciliate, as local computation before the phase's first step.
func (m *FlatConsensus) concInit(ph, pid int, rng *xrand.Rand) {
	switch m.concKind {
	case concKindSifter:
		m.sifters[ph].Init(pid, rng)
	case concKindPriorityMax:
		m.prios[ph].Init(pid, rng)
	}
}

// Issue returns process pid's next shared-memory operation, of the
// current phase's conciliator or adopt-commit, without touching shared
// state.
func (m *FlatConsensus) Issue(pid int) memory.Op {
	p := &m.procs[pid]
	var op memory.Op
	switch {
	case p.inConc && m.concKind == concKindSifter:
		op = m.sifters[p.phase].Issue(pid)
	case p.inConc:
		op = m.prios[p.phase].Issue(pid)
	case m.binary:
		op = adoptcommit.FlatBinaryAC{}.Issue(p.acCur, p.acVal)
		op.Obj += m.rounds
	default:
		op = m.snapAC.Issue(p.acCur, pid, p.acVal)
		op.Obj += m.rounds
	}
	op.Obj += p.phase * m.perPhase
	return op
}

// Step implements sim.FlatMachine: exactly one shared-memory operation
// of the current phase's conciliator or adopt-commit object.
func (m *FlatConsensus) Step(pid int, rng *xrand.Rand) bool {
	return m.Complete(pid, m.mem.Apply(m.Issue(pid)), rng)
}

// Memory returns the shared memory Step applies operations to. Every
// cell of a phase is addressable from the moment any process enters
// that phase, so an executor that applies the ops Issue returns itself,
// as the message-passing simulator's memory server does, can apply them
// here instead of keeping a memory of its own.
func (m *FlatConsensus) Memory() *memory.Dense { return m.mem }

// Complete consumes the reply to pid's issued operation and reports
// whether pid decided. Entering the next phase draws its persona from
// rng, at the same position in pid's stream as the coroutine.
func (m *FlatConsensus) Complete(pid int, r memory.Reply, rng *xrand.Rand) bool {
	p := &m.procs[pid]
	ph := int(p.phase)
	if p.inConc {
		var fin bool
		switch m.concKind {
		case concKindSifter:
			s := m.sifters[ph]
			if fin = s.Complete(pid, r); fin {
				p.acVal = s.Value(pid)
			}
		case concKindPriorityMax:
			c := m.prios[ph]
			if fin = c.Complete(pid, r); fin {
				p.acVal = c.Value(pid)
			}
		}
		if fin {
			p.inConc = false
			p.acCur = adoptcommit.FlatACCursor{}
		}
		// A conciliator's last operation is never the body's last: the
		// phase's adopt-commit Propose always follows.
		return false
	}

	var done, commit bool
	var out int64
	if m.binary {
		done, commit, out = adoptcommit.FlatBinaryAC{}.Complete(&p.acCur, p.acVal, r)
	} else {
		done, commit, out = m.snapAC.Complete(&p.acCur, p.acVal, r)
	}
	if !done {
		return false
	}
	m.pref[pid] = out
	if commit {
		p.decided = true
		p.phases = int32(ph + 1)
		return true
	}
	if ph+1 >= m.maxPhases {
		// Safety valve, exactly like ProposeWithPhases: return the
		// current preference, which is still some process's input.
		p.decided = true
		p.phases = int32(m.maxPhases)
		return true
	}
	p.phase = int32(ph + 1)
	p.inConc = true
	m.enterPhase(ph + 1)
	// Entering the next conciliator draws its persona now — local
	// computation between this operation and the process's next one,
	// at the same position in the per-process stream as the coroutine.
	m.concInit(ph+1, pid, rng)
	return false
}

// Output returns the decision of a finished process; before that, its
// current preference.
func (m *FlatConsensus) Output(pid int) int64 { return m.pref[pid] }

// Rounds returns the conciliator rounds per phase.
func (m *FlatConsensus) Rounds() int { return int(m.rounds) }

// Phase returns the phase process pid is executing (or decided in).
func (m *FlatConsensus) Phase(pid int) int { return int(m.procs[pid].phase) }

// InAC reports whether process pid is in its phase's adopt-commit.
func (m *FlatConsensus) InAC(pid int) bool { return !m.procs[pid].inConc }

// ACInput returns the value process pid proposes to its phase's
// adopt-commit (meaningful once InAC).
func (m *FlatConsensus) ACInput(pid int) int64 { return m.procs[pid].acVal }

// Decided reports whether process pid reached a decision (true for every
// finished process).
func (m *FlatConsensus) Decided(pid int) bool { return m.procs[pid].decided }

// Phases returns how many phases a decided process executed.
func (m *FlatConsensus) Phases(pid int) int { return int(m.procs[pid].phases) }

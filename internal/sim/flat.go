package sim

import (
	"errors"

	"github.com/oblivious-consensus/conciliator/internal/fault"
	"github.com/oblivious-consensus/conciliator/internal/sched"
	"github.com/oblivious-consensus/conciliator/internal/xrand"
)

// ErrFlatFaults reports a fault schedule handed to the flat engine, which
// does not interpret fault events (use RunControlled for faulted runs).
var ErrFlatFaults = errors.New("sim: flat engine does not support fault schedules")

// FlatMachine is a protocol compiled to a flat state machine: per-process
// state lives in dense arrays owned by the machine, and the engine
// advances it one shared-memory operation at a time without coroutines.
//
// The contract mirrors the coroutine engine's observable behavior exactly:
//
//   - Init(pid, rng) is called once per process in increasing pid order
//     before any Step. It must perform every random draw the coroutine
//     body would make before its first shared-memory operation (persona
//     creation happens here), in the same order, from the same stream.
//     Init takes no modeled steps.
//   - Step(pid, rng) executes exactly one shared-memory operation for pid
//     and returns true when pid's execution is complete (the operation
//     just executed was its last). Randomness a process draws mid-run
//     (e.g. a fresh persona at a later consensus phase) must come from
//     rng at the position in pid's own stream where the coroutine body
//     would draw it.
//   - Every process performs at least one operation. (All protocols here
//     do; the coroutine engine additionally tolerates zero-step bodies.)
//
// Machines are single-run; callers reuse them across trials through their
// own Reset mechanisms.
type FlatMachine interface {
	Init(pid int, rng *xrand.Rand)
	Step(pid int, rng *xrand.Rand) bool
}

// FlatRunner drives FlatMachines under schedule sources on the same
// slot loop as the coroutine engine (runSlots): Init primes each process
// and Step executes its operation for a charged slot, so the slot
// semantics — uncharged no-op slots for finished or crashed processes,
// the slot budget, finite-schedule exhaustion — are shared rather than
// replicated, and the RNG fork layout matches RunControlled. A runner is
// reusable across runs and, with RunInto, allocation-free in steady
// state; it is not safe for concurrent use.
//
// The type parameter names the machine type (callers write
// NewFlatRunner[*consensus.FlatConsensus]), but it does not devirtualize
// Step: every pointer machine type shares one GC shape, so the compiled
// RunInto (FlatRunner[go.shape.*uint8] in profiles) calls Step
// indirectly through the generic dictionary, once per charged slot.
type FlatRunner[M FlatMachine] struct {
	done  []bool
	steps []int64
	rngs  []xrand.Rand
}

// NewFlatRunner returns a reusable runner for machines of type M.
func NewFlatRunner[M FlatMachine]() *FlatRunner[M] { return &FlatRunner[M]{} }

// Run executes one controlled run of m under src, allocating fresh
// Result slices. See RunInto for the allocation-free form.
func (fr *FlatRunner[M]) Run(src sched.Source, m M, cfg Config) (Result, error) {
	var res Result
	err := fr.RunInto(src, m, cfg, &res)
	return res, err
}

// RunInto is Run writing into a caller-owned Result, reusing its slices
// when capacity allows. In steady state (reused runner, reused Result,
// machine and source that do not allocate) a run performs no heap
// allocation.
func (fr *FlatRunner[M]) RunInto(src sched.Source, m M, cfg Config, res *Result) error {
	if cfg.Faults != nil {
		return ErrFlatFaults
	}
	n := src.N()
	if cap(fr.done) < n {
		fr.done = make([]bool, n)
		fr.steps = make([]int64, n)
		fr.rngs = make([]xrand.Rand, n)
	}
	fr.done = fr.done[:n]
	fr.steps = fr.steps[:n]
	fr.rngs = fr.rngs[:n]

	// Identical stream layout to RunControlled: one root reseed, then one
	// named fork per process in pid order (each fork consumes one draw of
	// the root stream).
	var root xrand.Rand
	root.Reseed(cfg.AlgSeed)
	for i := 0; i < n; i++ {
		fr.steps[i] = 0
		root.ForkNamedInto(uint64(i), &fr.rngs[i])
	}
	// Init performs all pre-first-step randomness, matching the coroutine
	// engine's first resume; every process takes at least one step.
	prime := func(pid int) bool {
		m.Init(pid, &fr.rngs[pid])
		return false
	}
	grant := func(pid int) bool {
		fr.steps[pid]++
		return m.Step(pid, &fr.rngs[pid])
	}
	slots, err := runSlots(src, cfg.MaxSlots, nil, fr.done, prime, grant, nil)

	if cap(res.Steps) < n {
		res.Steps = make([]int64, n)
	}
	if cap(res.Finished) < n {
		res.Finished = make([]bool, n)
	}
	res.Steps = res.Steps[:n]
	res.Finished = res.Finished[:n]
	res.TotalSteps = 0
	res.Slots = slots
	res.Restarts = 0
	res.Faults = fault.Counts{}
	for pid := 0; pid < n; pid++ {
		res.Steps[pid] = fr.steps[pid]
		res.TotalSteps += fr.steps[pid]
		res.Finished[pid] = fr.done[pid]
	}
	observeRun(*res, true)
	return err
}

// RunFlat executes one controlled run of m under src with a throwaway
// runner; reuse a FlatRunner for trial loops.
func RunFlat(src sched.Source, m FlatMachine, cfg Config) (Result, error) {
	return NewFlatRunner[FlatMachine]().Run(src, m, cfg)
}

package sim

import (
	"errors"
	"fmt"
	"slices"
	"testing"

	"github.com/oblivious-consensus/conciliator/internal/fault"
	"github.com/oblivious-consensus/conciliator/internal/memory"
	"github.com/oblivious-consensus/conciliator/internal/sched"
	"github.com/oblivious-consensus/conciliator/internal/trace"
	"github.com/oblivious-consensus/conciliator/internal/xrand"
)

// countdownMachine is the simplest FlatMachine: process pid performs
// need[pid] operations, each drawing one value from its stream so RNG
// plumbing is exercised.
type countdownMachine struct {
	need []int
	left []int
	sum  []uint64
}

func newCountdown(need []int) *countdownMachine {
	m := &countdownMachine{need: need, left: make([]int, len(need)), sum: make([]uint64, len(need))}
	return m
}

func (m *countdownMachine) Init(pid int, rng *xrand.Rand) {
	m.left[pid] = m.need[pid]
	m.sum[pid] = rng.Uint64()
}

func (m *countdownMachine) Step(pid int, rng *xrand.Rand) bool {
	m.sum[pid] ^= rng.Uint64()
	m.left[pid]--
	return m.left[pid] == 0
}

// countdownBody is the coroutine-engine equivalent of countdownMachine.
func countdownBody(need []int, sum []uint64) Body {
	return func(p *Proc) {
		sum[p.ID()] = p.Rng().Uint64()
		for i := 0; i < need[p.ID()]; i++ {
			p.Step()
			sum[p.ID()] ^= p.Rng().Uint64()
		}
	}
}

// TestFlatMatchesCoroutineOnTrivialBodies pins the engine-level identity
// on a body with no protocol content: errors, steps, slots, finish flags,
// and every RNG draw must match the coroutine engine across schedule
// kinds, a finite schedule that exhausts mid-run, a concatenated
// schedule, and a crash-aware replay.
func TestFlatMatchesCoroutineOnTrivialBodies(t *testing.T) {
	need := []int{3, 1, 7, 2, 5, 4, 6, 1}
	n := len(need)
	type input struct {
		name    string
		mk      func() sched.Source // a fresh, identical source per call
		wantErr error
	}
	var inputs []input
	for _, kind := range sched.Kinds() {
		for seed := uint64(1); seed <= 3; seed++ {
			inputs = append(inputs, input{
				name: fmt.Sprintf("%v/seed=%d", kind, seed),
				mk:   func() sched.Source { return sched.New(kind, n, seed) },
			})
		}
	}
	// Every process is scheduled, but the schedule ends while pids 0, 2,
	// 4, 5 and 6 still owe steps.
	short := []int{0, 1, 2, 3, 4, 5, 6, 7, 1, 7, 0, 2, 2, 3}
	rec := trace.Record(sched.New(sched.KindCrashHalf, n, 2))
	recRes, err := RunControlled(rec, countdownBody(need, make([]uint64, n)), Config{AlgSeed: 1})
	if err != nil {
		t.Fatalf("recording crash-half run: %v", err)
	}
	if !slices.Contains(recRes.Finished, false) {
		t.Fatal("recorded crash-half run crashed no unfinished process; pick another seed")
	}
	inputs = append(inputs,
		input{
			name:    "explicit-exhausted",
			mk:      func() sched.Source { return sched.NewExplicit(n, short) },
			wantErr: ErrScheduleExhausted,
		},
		input{
			name: "seq-explicit-random",
			mk: func() sched.Source {
				return sched.NewSeq(sched.NewExplicit(n, []int{6, 6, 6, 1, 1, 0}), sched.NewRandom(n, xrand.New(5)))
			},
		},
		input{name: "replay-crash-half", mk: rec.Replay},
	)

	for i, in := range inputs {
		cfg := Config{AlgSeed: 0xfeed + uint64(i)}
		coSum := make([]uint64, n)
		coRes, coErr := RunControlled(in.mk(), countdownBody(need, coSum), cfg)

		m := newCountdown(need)
		flRes, flErr := RunFlat(in.mk(), m, cfg)

		if !errors.Is(coErr, in.wantErr) || !errors.Is(flErr, in.wantErr) {
			t.Fatalf("%s: errors: coroutine %v flat %v, want %v", in.name, coErr, flErr, in.wantErr)
		}
		if coRes.Slots != flRes.Slots || coRes.TotalSteps != flRes.TotalSteps {
			t.Fatalf("%s: slots/steps mismatch: coroutine (%d,%d) flat (%d,%d)",
				in.name, coRes.Slots, coRes.TotalSteps, flRes.Slots, flRes.TotalSteps)
		}
		for pid := 0; pid < n; pid++ {
			if coRes.Steps[pid] != flRes.Steps[pid] {
				t.Errorf("%s: steps[%d] = %d, coroutine %d", in.name, pid, flRes.Steps[pid], coRes.Steps[pid])
			}
			if coRes.Finished[pid] != flRes.Finished[pid] {
				t.Errorf("%s: finished[%d] = %v, coroutine %v", in.name, pid, flRes.Finished[pid], coRes.Finished[pid])
			}
			// Unfinished processes stop at different points in their local
			// computation (the coroutine body parks mid-op), so only
			// compare draws for finished processes.
			if coRes.Finished[pid] && coSum[pid] != m.sum[pid] {
				t.Errorf("%s: rng draw mismatch for pid %d", in.name, pid)
			}
		}
	}
}

// TestFlatCrashTailEndsRunAtCutoff is TestCrashTailEndsRunAtCutoff on
// the flat engine: the same crash tail must end at the same slot with the
// same processes finished.
func TestFlatCrashTailEndsRunAtCutoff(t *testing.T) {
	need := []int{100000, 100000, 1}
	flRes, flErr := RunFlat(crashTailSource(), newCountdown(need), Config{AlgSeed: 1})
	checkCrashTail(t, flRes, flErr)
	coRes, _ := RunControlled(crashTailSource(), countdownBody(need, make([]uint64, 3)), Config{AlgSeed: 1})
	if flRes.Slots != coRes.Slots {
		t.Fatalf("flat slots = %d, coroutine %d", flRes.Slots, coRes.Slots)
	}
}

// TestFlatScheduleExhausted pins the finite-schedule error path.
func TestFlatScheduleExhausted(t *testing.T) {
	m := newCountdown([]int{2, 2})
	_, err := RunFlat(sched.NewExplicit(2, []int{0, 1}), m, Config{AlgSeed: 1})
	if !errors.Is(err, ErrScheduleExhausted) {
		t.Fatalf("err = %v, want ErrScheduleExhausted", err)
	}
}

// TestFlatSlotBudget pins the budget error path and the slot clamp.
func TestFlatSlotBudget(t *testing.T) {
	m := newCountdown([]int{1 << 20, 1})
	res, err := RunFlat(sched.NewRoundRobin(2), m, Config{AlgSeed: 1, MaxSlots: 100})
	if !errors.Is(err, ErrSlotBudget) {
		t.Fatalf("err = %v, want ErrSlotBudget", err)
	}
	if res.Slots != 100 {
		t.Fatalf("slots = %d, want clamped 100", res.Slots)
	}
}

// TestFlatRejectsFaultSchedules pins that the flat engine refuses fault
// schedules instead of silently running unfaulted.
func TestFlatRejectsFaultSchedules(t *testing.T) {
	sch, serr := fault.NewSchedule(2, nil)
	if serr != nil {
		t.Fatalf("building empty fault schedule: %v", serr)
	}
	_, err := RunFlat(sched.NewRoundRobin(2), newCountdown([]int{1, 1}), Config{AlgSeed: 1, Faults: sch})
	if !errors.Is(err, ErrFlatFaults) {
		t.Fatalf("err = %v, want ErrFlatFaults", err)
	}
}

// TestFlatRunnerReuse pins that a reused runner (and reused Result) is
// deterministic: back-to-back runs of different sizes must match fresh
// runs exactly.
func TestFlatRunnerReuse(t *testing.T) {
	fr := NewFlatRunner[*countdownMachine]()
	var res Result
	for _, need := range [][]int{{5, 2, 9}, {1, 1}, {4, 8, 2, 6, 1, 3, 7, 5}} {
		n := len(need)
		m := newCountdown(need)
		if err := fr.RunInto(sched.NewRoundRobin(n), m, Config{AlgSeed: 9}, &res); err != nil {
			t.Fatalf("reused run failed: %v", err)
		}
		fresh, err := RunFlat(sched.NewRoundRobin(n), newCountdown(need), Config{AlgSeed: 9})
		if err != nil {
			t.Fatalf("fresh run failed: %v", err)
		}
		if res.Slots != fresh.Slots || res.TotalSteps != fresh.TotalSteps {
			t.Fatalf("n=%d: reused (%d,%d) != fresh (%d,%d)", n, res.Slots, res.TotalSteps, fresh.Slots, fresh.TotalSteps)
		}
		for pid := 0; pid < n; pid++ {
			if res.Steps[pid] != fresh.Steps[pid] || res.Finished[pid] != fresh.Finished[pid] {
				t.Fatalf("n=%d pid=%d: reused run drifted from fresh run", n, pid)
			}
		}
	}
}

// TestPutStateClearsScratchArenas is the regression test for pooled
// trial-state hygiene: after a run is returned to the pool, its Procs'
// scratch arenas must hold no entries, otherwise the pool pins the
// finished run's shared objects (and their buffers) until the next trial
// of the same or larger size happens to evict them. Runs two
// differently-sized trials back to back through the pool to cover the
// resize path, then inspects the pooled state directly.
func TestPutStateClearsScratchArenas(t *testing.T) {
	scanBody := func(n int) Body {
		return func(p *Proc) {
			snap := memory.NewSnapshot[int](n)
			snap.Update(p, p.ID(), p.ID())
			_ = snap.ScanScratch(p) // populates the scratch arena keyed by snap
		}
	}
	for _, n := range []int{16, 4} {
		if _, err := RunControlled(sched.NewRoundRobin(n), scanBody(n), Config{AlgSeed: 3}); err != nil {
			t.Fatalf("n=%d run failed: %v", n, err)
		}
		rs := getState(n)
		for i := 0; i < len(rs.procs); i++ {
			if len(rs.procs[i].scratch) != 0 {
				t.Errorf("n=%d: pooled proc %d retains %d scratch entries, want 0", n, i, len(rs.procs[i].scratch))
			}
		}
		putState(rs, n)
	}
}

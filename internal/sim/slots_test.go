package sim

import (
	"errors"
	"slices"
	"testing"

	"github.com/oblivious-consensus/conciliator/internal/sched"
	"github.com/oblivious-consensus/conciliator/internal/trace"
	"github.com/oblivious-consensus/conciliator/internal/xrand"
)

// modelRun plays the execution model directly on a schedule: each slot
// goes to the pid the source names; a slot for a finished or crashed
// process is an uncharged no-op; every other slot charges that process
// one step. The run ends once every process the source can still
// schedule has finished, and fails if a finite schedule ends first.
// Process pid finishes after need[pid] steps.
func modelRun(src sched.Source, need []int) (slots int64, steps []int64, finished []bool, err error) {
	n := len(need)
	steps = make([]int64, n)
	finished = make([]bool, n)
	ca, _ := src.(sched.CrashAware)
	over := func() bool {
		for pid := range finished {
			if !finished[pid] && (ca == nil || ca.Alive(pid)) {
				return false
			}
		}
		return true
	}
	for !over() {
		pid := src.Next()
		if pid == sched.Exhausted {
			return slots, steps, finished, ErrScheduleExhausted
		}
		slots++
		if finished[pid] || ca != nil && !ca.Alive(pid) {
			continue
		}
		steps[pid]++
		finished[pid] = steps[pid] == int64(need[pid])
	}
	return slots, steps, finished, nil
}

// TestSlotLoopMatchesModel checks the slot loop both engines share
// against modelRun. Engine equivalence follows from the shared loop, so
// a fault in that loop would show on both engines alike; this test
// compares each engine with the model instead of with the other engine.
func TestSlotLoopMatchesModel(t *testing.T) {
	need := []int{3, 1, 7, 2, 5, 4, 6, 1}
	n := len(need)
	sources := []struct {
		name string
		mk   func() sched.Source
	}{
		{"crash-set", func() sched.Source {
			return sched.NewCrashSet(sched.NewRoundRobin(n), []int{2, 6}, 12, 3)
		}},
		{"favored", func() sched.Source { return sched.NewFavored(n) }},
		{"explicit-exhausted", func() sched.Source {
			return sched.NewExplicit(n, []int{0, 1, 2, 3, 4, 5, 6, 7, 1, 7, 0, 2, 2, 3})
		}},
		{"seq-explicit-random", func() sched.Source {
			return sched.NewSeq(sched.NewExplicit(n, []int{6, 6, 6, 1, 1, 0}), sched.NewRandom(n, xrand.New(5)))
		}},
		{"replay-crash-half", func() sched.Source {
			// Record the slots a crash-half run consumes, then replay them.
			rec := trace.Record(sched.New(sched.KindCrashHalf, n, 2))
			if _, err := RunFlat(rec, newCountdown(need), Config{AlgSeed: 1}); err != nil {
				panic(err)
			}
			return rec.Replay()
		}},
	}
	for _, kind := range sched.Kinds() {
		sources = append(sources, struct {
			name string
			mk   func() sched.Source
		}{kind.String(), func() sched.Source { return sched.New(kind, n, 4) }})
	}
	engines := []struct {
		name string
		run  func(sched.Source) (Result, error)
	}{
		{"coroutine", func(src sched.Source) (Result, error) {
			return RunControlled(src, countdownBody(need, make([]uint64, n)), Config{AlgSeed: 9})
		}},
		{"flat", func(src sched.Source) (Result, error) {
			return RunFlat(src, newCountdown(need), Config{AlgSeed: 9})
		}},
	}
	for _, eng := range engines {
		t.Run(eng.name, func(t *testing.T) {
			for _, s := range sources {
				t.Run(s.name, func(t *testing.T) {
					wantSlots, wantSteps, wantFinished, wantErr := modelRun(s.mk(), need)
					res, err := eng.run(s.mk())
					if !errors.Is(err, wantErr) || (wantErr == nil) != (err == nil) {
						t.Fatalf("err = %v, model %v", err, wantErr)
					}
					if res.Slots != wantSlots {
						t.Errorf("slots = %d, model %d", res.Slots, wantSlots)
					}
					if !slices.Equal(res.Steps, wantSteps) {
						t.Errorf("steps = %v, model %v", res.Steps, wantSteps)
					}
					if !slices.Equal(res.Finished, wantFinished) {
						t.Errorf("finished = %v, model %v", res.Finished, wantFinished)
					}
					var total int64
					for _, st := range wantSteps {
						total += st
					}
					if res.TotalSteps != total {
						t.Errorf("total steps = %d, model %d", res.TotalSteps, total)
					}
				})
			}
		})
	}
}

// TestModelRunSeesCrashesAndExhaustion keeps TestSlotLoopMatchesModel
// honest: among its sources, the model must see a crashed process that
// never finishes and a schedule that ends early.
func TestModelRunSeesCrashesAndExhaustion(t *testing.T) {
	need := []int{3, 1, 7, 2, 5, 4, 6, 1}
	n := len(need)
	_, _, finished, err := modelRun(sched.NewCrashSet(sched.NewRoundRobin(n), []int{2, 6}, 12, 3), need)
	if err != nil {
		t.Fatal(err)
	}
	if finished[2] || finished[6] {
		t.Fatalf("crash-set victims finished: %v", finished)
	}
	_, _, _, err = modelRun(sched.NewExplicit(n, []int{0, 1, 2, 3, 4, 5, 6, 7, 1, 7, 0, 2, 2, 3}), need)
	if !errors.Is(err, ErrScheduleExhausted) {
		t.Fatalf("short explicit schedule: err = %v, want %v", err, ErrScheduleExhausted)
	}
}

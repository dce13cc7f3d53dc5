package fault

import "github.com/oblivious-consensus/conciliator/internal/artifact"

// Shrink reduces a failing fault schedule to a smaller one that still
// fails, in the delta-debugging style: repro must return true when the
// violation reproduces under the candidate schedule. The search first
// deletes event chunks (artifact.DeleteChunks), then minimizes the
// surviving events' magnitudes (stutter/stall lengths and staleness
// depths) by halving toward their floors (artifact.HalveEach). Event
// clocks (Slot, Op) are left untouched: moving a fault in time changes
// which execution it perturbs, which is not a reduction.
//
// budget caps the number of repro invocations; when it runs out the
// best schedule found so far is returned. Shrink never returns nil for
// a non-nil input and the result always still satisfies repro (the
// input itself is assumed to).
//
// The search is deterministic: same input schedule, same repro
// behavior, same result — so a shrunk artifact is as replayable as the
// schedule it came from.
func Shrink(s *Schedule, budget int, repro func(*Schedule) bool) *Schedule {
	if s == nil || s.Len() == 0 {
		return s
	}
	best := s
	calls := 0
	keep := func(events []Event) bool {
		if calls >= budget {
			return false
		}
		calls++
		cand, err := NewSchedule(s.n, events)
		if err != nil || !repro(cand) {
			return false
		}
		// Adopt the canonical order: halving an Arg can reorder events
		// that tie on every other sort key.
		copy(events, cand.events)
		best = cand
		return true
	}
	events := artifact.DeleteChunks(s.Events(), keep)
	// Stutter/stall lengths and stale-scan depths floor at 1; stale-read
	// depths floor at 0 (the null read).
	size := func(e Event) (int64, int64) {
		if e.Kind == StaleRead {
			return e.Arg, 0
		}
		return e.Arg, 1
	}
	resize := func(e Event, arg int64) Event {
		e.Arg = arg
		return e
	}
	artifact.HalveEach(events, size, resize, keep)
	return best
}

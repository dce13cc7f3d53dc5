package sched

import (
	"math"
	"slices"
	"testing"

	"github.com/oblivious-consensus/conciliator/internal/xrand"
)

func TestRoundRobinCycle(t *testing.T) {
	s := NewRoundRobin(3)
	want := []int{0, 1, 2, 0, 1, 2, 0}
	for i, w := range want {
		if got := s.Next(); got != w {
			t.Fatalf("slot %d = %d, want %d", i, got, w)
		}
	}
	if s.N() != 3 {
		t.Fatalf("N = %d", s.N())
	}
}

func TestRandomInRangeAndCoversAll(t *testing.T) {
	s := NewRandom(5, xrand.New(1))
	seen := make([]bool, 5)
	for i := 0; i < 1000; i++ {
		id := s.Next()
		if id < 0 || id >= 5 {
			t.Fatalf("id %d out of range", id)
		}
		seen[id] = true
	}
	for pid, ok := range seen {
		if !ok {
			t.Errorf("process %d never scheduled", pid)
		}
	}
}

func TestRandomDeterministicInSeed(t *testing.T) {
	a := NewRandom(7, xrand.New(99))
	b := NewRandom(7, xrand.New(99))
	for i := 0; i < 500; i++ {
		if a.Next() != b.Next() {
			t.Fatalf("schedules diverged at slot %d", i)
		}
	}
}

func TestStaggeredBlocks(t *testing.T) {
	s := NewStaggered(4, 3, xrand.New(5))
	// Runs of one pid must come in whole blocks of 3 (adjacent sweeps may
	// chain two blocks of the same pid, hence "multiple of" rather than
	// "exactly").
	prev, run := -1, 0
	for i := 0; i < 120; i++ {
		id := s.Next()
		if id == prev {
			run++
		} else {
			if prev != -1 && run%3 != 0 {
				t.Fatalf("block of %d for pid %d, want a multiple of 3", run, prev)
			}
			prev, run = id, 1
		}
	}
}

func TestStaggeredSweepsCoverAll(t *testing.T) {
	const n = 6
	s := NewStaggered(n, 2, xrand.New(7))
	counts := make([]int, n)
	for i := 0; i < n*2*10; i++ {
		counts[s.Next()]++
	}
	for pid, c := range counts {
		if c != 20 {
			t.Errorf("pid %d scheduled %d times, want 20", pid, c)
		}
	}
}

func TestSplitPhases(t *testing.T) {
	s := NewSplit(4, 4)
	// First phase: only pids {0,1}; second: only {2,3}.
	for i := 0; i < 4; i++ {
		if id := s.Next(); id >= 2 {
			t.Fatalf("slot %d scheduled %d in low phase", i, id)
		}
	}
	for i := 4; i < 8; i++ {
		if id := s.Next(); id < 2 {
			t.Fatalf("slot %d scheduled %d in high phase", i, id)
		}
	}
}

func TestSplitSingleProcess(t *testing.T) {
	s := NewSplit(1, 3)
	for i := 0; i < 10; i++ {
		if id := s.Next(); id != 0 {
			t.Fatalf("got %d", id)
		}
	}
}

func TestZipfSkewAndRange(t *testing.T) {
	const n = 16
	s := NewZipf(n, 1.2, xrand.New(3))
	counts := make([]int, n)
	const draws = 50000
	for i := 0; i < draws; i++ {
		id := s.Next()
		if id < 0 || id >= n {
			t.Fatalf("id %d out of range", id)
		}
		counts[id]++
	}
	if counts[0] <= counts[n-1] {
		t.Fatalf("no skew: counts[0]=%d counts[last]=%d", counts[0], counts[n-1])
	}
	// Rough shape check against the Zipf pmf for rank 0.
	expect0 := 0.0
	total := 0.0
	for i := 0; i < n; i++ {
		total += 1 / math.Pow(float64(i+1), 1.2)
	}
	expect0 = draws / total
	if math.Abs(float64(counts[0])-expect0) > 0.1*expect0 {
		t.Errorf("rank-0 count %d, want about %.0f", counts[0], expect0)
	}
}

func TestCrashHalfNeverSchedulesCrashedAfterCutoff(t *testing.T) {
	s := NewCrashHalf(8, xrand.New(11))
	// Drain well past any cutoff, then verify only alive pids appear.
	for i := 0; i < 8+4*8; i++ {
		s.Next()
	}
	for i := 0; i < 1000; i++ {
		id := s.Next()
		if !s.Alive(id) {
			t.Fatalf("crashed process %d scheduled after cutoff", id)
		}
	}
	alive := 0
	for pid := 0; pid < 8; pid++ {
		if s.Alive(pid) {
			alive++
		}
	}
	if alive != 4 {
		t.Fatalf("%d alive, want 4", alive)
	}
}

func TestExplicitExhaustion(t *testing.T) {
	s := NewExplicit(2, []int{0, 1, 1})
	if s.Remaining() != 3 {
		t.Fatalf("Remaining = %d", s.Remaining())
	}
	want := []int{0, 1, 1, Exhausted, Exhausted}
	for i, w := range want {
		if got := s.Next(); got != w {
			t.Fatalf("slot %d = %d, want %d", i, got, w)
		}
		// Exhausted draws consume nothing, so Remaining bottoms out at 0.
		if r, wantR := s.Remaining(), max(2-i, 0); r != wantR {
			t.Fatalf("after slot %d: Remaining = %d, want %d", i, r, wantR)
		}
	}
}

func TestExplicitCopiesInput(t *testing.T) {
	slots := []int{0, 1}
	s := NewExplicit(2, slots)
	slots[0] = 1
	if got := s.Next(); got != 0 {
		t.Fatalf("explicit schedule aliased caller slice: got %d", got)
	}
}

func TestNewKinds(t *testing.T) {
	for _, k := range Kinds() {
		k := k
		t.Run(k.String(), func(t *testing.T) {
			s := New(k, 8, 42)
			if s.N() != 8 {
				t.Fatalf("N = %d", s.N())
			}
			for i := 0; i < 100; i++ {
				if id := s.Next(); id < 0 || id >= 8 {
					t.Fatalf("id %d out of range", id)
				}
			}
		})
	}
}

func TestKindStringUnknown(t *testing.T) {
	if got := Kind(0).String(); got != "Kind(0)" {
		t.Fatalf("got %q", got)
	}
}

func TestAllInterleavingsCountsAndValidity(t *testing.T) {
	tests := []struct {
		counts []int
		want   int
	}{
		{counts: []int{1, 1}, want: 2},
		{counts: []int{2, 2}, want: 6},
		{counts: []int{3, 3}, want: 20},
		{counts: []int{2, 2, 2}, want: 90},
		{counts: []int{0, 2}, want: 1},
	}
	for _, tt := range tests {
		got := AllInterleavings(tt.counts)
		if len(got) != tt.want {
			t.Errorf("counts %v: %d interleavings, want %d", tt.counts, len(got), tt.want)
			continue
		}
		if cn := CountInterleavings(tt.counts); cn != tt.want {
			t.Errorf("CountInterleavings(%v) = %d, want %d", tt.counts, cn, tt.want)
		}
		seen := make(map[string]bool)
		for _, il := range got {
			per := make([]int, len(tt.counts))
			key := ""
			for _, pid := range il {
				per[pid]++
				key += string(rune('0' + pid))
			}
			for pid, c := range per {
				if c != tt.counts[pid] {
					t.Fatalf("interleaving %v has %d steps for %d, want %d", il, c, pid, tt.counts[pid])
				}
			}
			if seen[key] {
				t.Fatalf("duplicate interleaving %v", il)
			}
			seen[key] = true
		}
	}
}

func TestObliviousness(t *testing.T) {
	// The schedule must be a pure function of (kind, n, seed): regenerate
	// and compare long prefixes.
	for _, k := range Kinds() {
		a, b := New(k, 10, 7), New(k, 10, 7)
		for i := 0; i < 2000; i++ {
			if a.Next() != b.Next() {
				t.Fatalf("%v: schedule not deterministic in seed", k)
			}
		}
	}
}

func TestCrashSetBehavior(t *testing.T) {
	inner := NewRoundRobin(4)
	s := NewCrashSet(inner, []int{1, 3}, 6, 42)
	if s.N() != 4 {
		t.Fatalf("N = %d", s.N())
	}
	// Before the cutoff: delegates to the inner source, everyone alive.
	for i := 0; i < 6; i++ {
		id := s.Next()
		if id != i%4 {
			t.Fatalf("slot %d = %d, want round-robin", i, id)
		}
		if !s.Alive(1) || !s.Alive(3) {
			t.Fatal("victims dead before cutoff")
		}
	}
	// After the cutoff: only survivors scheduled, victims dead.
	for i := 0; i < 200; i++ {
		id := s.Next()
		if id == 1 || id == 3 {
			t.Fatalf("victim %d scheduled after cutoff", id)
		}
	}
	if s.Alive(1) || s.Alive(3) {
		t.Fatal("victims alive after cutoff")
	}
	if !s.Alive(0) || !s.Alive(2) {
		t.Fatal("survivors reported dead")
	}
}

func TestCrashSetImmediateCutoff(t *testing.T) {
	s := NewCrashSet(NewRoundRobin(3), []int{0}, 0, 1)
	for i := 0; i < 50; i++ {
		if id := s.Next(); id == 0 {
			t.Fatal("victim scheduled with cutoff 0")
		}
	}
}

func TestCrashSetNoVictims(t *testing.T) {
	s := NewCrashSet(NewRoundRobin(2), nil, 5, 1)
	for pid := 0; pid < 2; pid++ {
		if !s.Alive(pid) {
			t.Fatal("no-victim crash set killed someone")
		}
	}
}

func TestFavoredSchedule(t *testing.T) {
	s := NewFavored(4)
	if s.N() != 4 {
		t.Fatalf("N = %d", s.N())
	}
	want := []int{0, 1, 0, 2, 0, 3, 0, 1, 0, 2}
	for i, w := range want {
		if got := s.Next(); got != w {
			t.Fatalf("slot %d = %d, want %d", i, got, w)
		}
	}
}

func TestFavoredSingleProcess(t *testing.T) {
	s := NewFavored(1)
	for i := 0; i < 10; i++ {
		if s.Next() != 0 {
			t.Fatal("single-process favored must schedule 0")
		}
	}
}

func TestFavoredSkewRatio(t *testing.T) {
	const n = 8
	s := NewFavored(n)
	counts := make([]int, n)
	for i := 0; i < 1400; i++ {
		counts[s.Next()]++
	}
	if counts[0] != 700 {
		t.Fatalf("favored process got %d of 1400 slots", counts[0])
	}
	for pid := 1; pid < n; pid++ {
		if counts[pid] != 100 {
			t.Fatalf("pid %d got %d slots, want 100", pid, counts[pid])
		}
	}
}

// builtinSources builds a named set of every built-in source, so a test
// can check a property of the Next stream once per source.
func builtinSources() map[string]func() Source {
	return map[string]func() Source{
		"round-robin": func() Source { return NewRoundRobin(7) },
		"random":      func() Source { return NewRandom(7, xrand.New(11)) },
		"staggered":   func() Source { return NewStaggered(7, 3, xrand.New(12)) },
		"split":       func() Source { return NewSplit(8, 5) },
		"zipf":        func() Source { return NewZipf(7, 1.2, xrand.New(13)) },
		"crash-half":  func() Source { return NewCrashHalf(8, xrand.New(14)) },
		"crash-set": func() Source {
			return NewCrashSet(NewRoundRobin(6), []int{1, 4}, 9, 15)
		},
		"favored": func() Source { return NewFavored(6) },
		"explicit": func() Source {
			slots := make([]int, 400)
			rng := xrand.New(16)
			for i := range slots {
				slots[i] = rng.Intn(5)
			}
			return NewExplicit(5, slots)
		},
	}
}

// TestSourceContract checks, for every built-in source, what the
// simulator's slot loop relies on: the stream is a pure function of the
// constructor arguments, every slot names a pid in [0, N) until the
// schedule is Exhausted, Exhausted is final, and a pid a CrashAware
// source reports dead stays dead and is never drawn again.
func TestSourceContract(t *testing.T) {
	const draws = 1000
	for name, mk := range builtinSources() {
		t.Run(name, func(t *testing.T) {
			src, twin := mk(), mk()
			ca, _ := src.(CrashAware)
			n := src.N()
			dead := make([]bool, n)
			exhausted := false
			for i := 0; i < draws; i++ {
				pid, want := src.Next(), twin.Next()
				if pid != want {
					t.Fatalf("slot %d: %d, identically built twin %d", i, pid, want)
				}
				if pid == Exhausted {
					exhausted = true
					continue
				}
				if exhausted {
					t.Fatalf("slot %d: pid %d after Exhausted", i, pid)
				}
				if pid < 0 || pid >= n {
					t.Fatalf("slot %d: pid %d out of range [0, %d)", i, pid, n)
				}
				if dead[pid] {
					t.Fatalf("slot %d: drew pid %d after it was reported dead", i, pid)
				}
				if ca == nil {
					continue
				}
				for p := range dead {
					alive := ca.Alive(p)
					if dead[p] && alive {
						t.Fatalf("slot %d: pid %d came back to life", i, p)
					}
					dead[p] = !alive
				}
			}
			if ca != nil && !slices.Contains(dead, true) {
				t.Fatalf("no pid died in %d draws; the crash checks ran on nothing", draws)
			}
		})
	}
}

package main

import (
	"fmt"
	"io"
	"time"

	"github.com/oblivious-consensus/conciliator/internal/memory"
	"github.com/oblivious-consensus/conciliator/internal/sim"
)

// concurrentRecord is the machine-readable record written by
// -bench-concurrent-json. Its entry list uses the same shape and JSON key
// as benchRecord so compareBaseline reads both alike. No seed drives the
// sweep, so the header carries none.
type concurrentRecord struct {
	recordHeader                        // schema "conciliator-concurrent-bench/v1"
	OpsPerProc       int                `json:"ops_per_proc"`
	Runs             int                `json:"runs"`
	TotalWallSeconds float64            `json:"total_wall_seconds"`
	Experiments      []benchEntry       `json:"experiments"`
	SpeedupVsLocked  map[string]float64 `json:"speedup_vs_locked"`
	Note             string             `json:"note,omitempty"`
}

const (
	// concurrentOpsPerProc is the fixed shared-memory operations each
	// process performs per run (4 object ops per loop iteration), chosen
	// so a run is long enough to amortize trial startup but short enough
	// that the full sweep stays in CI budget.
	concurrentOpsPerProc = 512
	// concurrentStepsRuns fixes the per-workload run count, keeping the
	// total modeled work deterministic so steps/s varies only with
	// machine speed — the same contract as controlledStepsRuns.
	concurrentStepsRuns = 16
)

// concurrentSizes are the process counts the concurrent sweep measures.
var concurrentSizes = []int{2, 8, 64}

// concurrentStepsEntries measures real multi-core throughput of the
// concurrent substrate: for each n, n goroutines hammer a shared
// register, max register, and snapshot through one reused
// ConcurrentRunner, once over the lock-free representation and once over
// the mutex-backed one. Entries are keyed
// "concurrent-steps/<substrate>/n=<n>".
func concurrentStepsEntries() []benchEntry {
	var entries []benchEntry
	for _, substrate := range []struct {
		name   string
		locked bool
	}{
		{name: "lock-free", locked: false},
		{name: "locked", locked: true},
	} {
		for _, n := range concurrentSizes {
			r := sim.NewConcurrentRunner(n, 0)
			var totalSteps int64
			start := time.Now()
			for i := 0; i < concurrentStepsRuns; i++ {
				reg := memory.NewRegister[int]()
				maxr := memory.NewMaxRegister[int]()
				snap := memory.NewSnapshot[int](n)
				res, err := r.Run(func(p *sim.Proc) {
					for k := 0; k < concurrentOpsPerProc; k++ {
						reg.Write(p, p.ID())
						reg.Read(p)
						maxr.WriteMax(p, uint64(k), p.ID())
						snap.Update(p, p.ID(), k)
					}
				}, sim.Config{AlgSeed: uint64(i) + 1, LockedMemory: substrate.locked})
				if err != nil {
					// The body is panic-free and fault-free; an error here is
					// a runner bug, not a measurement artifact.
					panic(err)
				}
				totalSteps += res.TotalSteps
			}
			r.Close()
			entries = append(entries, newBenchEntry(fmt.Sprintf("concurrent-steps/%s/n=%d", substrate.name, n), time.Since(start), totalSteps, 0))
		}
	}
	return entries
}

// buildConcurrentRecord runs the concurrent sweep and derives the
// per-n lock-free/locked speedup ratios the acceptance gate reads.
func buildConcurrentRecord(out io.Writer) concurrentRecord {
	start := time.Now()
	rec := concurrentRecord{
		recordHeader:    newHeader("conciliator-concurrent-bench/v1", 0),
		OpsPerProc:      concurrentOpsPerProc,
		Runs:            concurrentStepsRuns,
		Experiments:     concurrentStepsEntries(),
		SpeedupVsLocked: make(map[string]float64, len(concurrentSizes)),
	}
	rec.TotalWallSeconds = time.Since(start).Seconds()
	byID := make(map[string]benchEntry, len(rec.Experiments))
	for _, e := range rec.Experiments {
		byID[e.ID] = e
	}
	for _, n := range concurrentSizes {
		lf := byID[fmt.Sprintf("concurrent-steps/lock-free/n=%d", n)]
		lk := byID[fmt.Sprintf("concurrent-steps/locked/n=%d", n)]
		if lk.StepsPerSec > 0 {
			rec.SpeedupVsLocked[fmt.Sprintf("n=%d", n)] = lf.StepsPerSec / lk.StepsPerSec
		}
	}
	if rec.GOMAXPROCS < 2 {
		rec.Note = "single-core host: goroutines never run in parallel, so mutexes are uncontended and the lock-free representation pays its publication allocations without any contention win; the lock-free-vs-locked speedup is only meaningful on a multi-core host"
	}
	for _, e := range rec.Experiments {
		fmt.Fprintf(out, "bench-concurrent: %-34s %12.0f steps/s\n", e.ID, e.StepsPerSec)
	}
	for _, n := range concurrentSizes {
		key := fmt.Sprintf("n=%d", n)
		if s, ok := rec.SpeedupVsLocked[key]; ok {
			fmt.Fprintf(out, "bench-concurrent: lock-free speedup vs locked at %s: %.2fx\n", key, s)
		}
	}
	return rec
}

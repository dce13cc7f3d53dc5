// The exp subcommand: the curated experiment tables plus the perf
// (-bench-json), concurrent-substrate (-bench-concurrent-json) and
// observability (-metrics-json) records taken around them.
package main

import (
	"fmt"
	"io"
	"runtime"
	"strings"
	"time"

	"github.com/oblivious-consensus/conciliator/internal/debugserver"
	"github.com/oblivious-consensus/conciliator/internal/experiment"
	"github.com/oblivious-consensus/conciliator/internal/metrics"
	"github.com/oblivious-consensus/conciliator/internal/sched"
	"github.com/oblivious-consensus/conciliator/internal/sim"
	"github.com/oblivious-consensus/conciliator/internal/xrand"
)

// benchRecord is the machine-readable perf record written by -bench-json.
// Steps and slots come from the simulator's process-wide counters sampled
// around each experiment, so they cover every trial the experiment ran.
type benchRecord struct {
	recordHeader                  // schema "conciliator-bench/v1"
	Quick            bool         `json:"quick"`
	Trials           int          `json:"trials,omitempty"`
	Parallelism      int          `json:"parallelism"`
	TotalWallSeconds float64      `json:"total_wall_seconds"`
	Experiments      []benchEntry `json:"experiments"`
}

type benchEntry struct {
	ID          string  `json:"id"`
	WallSeconds float64 `json:"wall_seconds"`
	Steps       int64   `json:"steps"`
	Slots       int64   `json:"slots"`
	StepsPerSec float64 `json:"steps_per_sec"`
	SlotsPerSec float64 `json:"slots_per_sec"`
}

// stepRates returns the gated steps/s of entries.
func stepRates(entries []benchEntry) []rate {
	rates := make([]rate, len(entries))
	for i, e := range entries {
		rates[i] = rate{id: e.ID, v: e.StepsPerSec}
	}
	return rates
}

// metricsRecord is the machine-readable observability record written by
// -metrics-json: one registry-snapshot delta per experiment (counters
// restricted to what that experiment moved) plus the suite-wide totals.
type metricsRecord struct {
	recordHeader                  // schema "conciliator-metrics/v1"
	Quick        bool             `json:"quick"`
	Trials       int              `json:"trials,omitempty"`
	Parallelism  int              `json:"parallelism"`
	Experiments  []metricsEntry   `json:"experiments"`
	Totals       metrics.Snapshot `json:"totals"`
}

type metricsEntry struct {
	ID      string           `json:"id"`
	Metrics metrics.Snapshot `json:"metrics"`
}

func runExp(args []string, out io.Writer) error {
	fs, sh := newFlagSet("exp", seedFlag|quickFlag|formatFlag|parallelFlag|trialsFlag)
	var (
		list              = fs.Bool("list", false, "list experiments and exit")
		expID             = fs.String("experiment", "", "experiment id(s) to run, comma-separated (E1..E21)")
		all               = fs.Bool("all", false, "run every experiment")
		timings           = fs.Bool("timings", false, "print wall-clock time per experiment")
		benchOut          = fs.String("bench-json", "", "write a JSON perf record (steps/sec, slots/sec, wall time per experiment) to this path")
		benchBaseline     = fs.String("bench-baseline", "", "compare this run's controlled-steps entries against a committed bench record; exit nonzero on a >10% steps/s regression")
		benchConcOut      = fs.String("bench-concurrent-json", "", "run the concurrent-substrate sweep (lock-free vs locked, real goroutines) and write its JSON record to this path")
		benchConcBaseline = fs.String("bench-concurrent-baseline", "", "compare the concurrent sweep's entries against a committed record; exit nonzero on a >10% steps/s regression")
		metricsOut        = fs.String("metrics-json", "", "write a JSON metrics record (per-object op counts, phase step attribution, histograms) to this path")
		metricsTable      = fs.Bool("metrics", false, "print the metrics table after the run")
		debugAddr         = fs.String("debug-addr", "", "serve expvar and pprof on this address (e.g. localhost:6060) while experiments run")
	)
	if err := sh.parse(fs, args); err != nil {
		return err
	}

	if *list {
		for _, e := range experiment.All() {
			fmt.Fprintf(out, "%-4s %s\n     claim: %s\n", e.ID, e.Title, e.Claim)
		}
		return nil
	}

	var todo []experiment.Experiment
	switch {
	case *all:
		todo = experiment.All()
	case *expID != "":
		for _, id := range strings.Split(*expID, ",") {
			id = strings.TrimSpace(id)
			if id == "" {
				continue
			}
			e, ok := experiment.ByID(strings.ToUpper(id))
			if !ok {
				return fmt.Errorf("unknown experiment %q (use -list)", id)
			}
			todo = append(todo, e)
		}
		if len(todo) == 0 {
			return fmt.Errorf("no experiment ids in %q", *expID)
		}
	default:
		// The concurrent sweep can run standalone: it measures the
		// substrate, not any experiment.
		if *benchConcOut == "" && *benchConcBaseline == "" {
			return fmt.Errorf("nothing to do: pass -experiment <id>, -all, -list, or -bench-concurrent-json")
		}
	}

	// Any observability output needs a live registry. A fresh one per run
	// keeps the deltas clean when run is driven repeatedly (tests).
	wantMetrics := *metricsOut != "" || *metricsTable || *debugAddr != ""
	if wantMetrics {
		metrics.SetDefault(metrics.New())
	}
	if *debugAddr != "" {
		addr, shutdown, err := debugserver.Start(*debugAddr)
		if err != nil {
			return fmt.Errorf("debug server: %w", err)
		}
		defer shutdown()
		fmt.Fprintf(out, "debug server on http://%s/debug/vars (pprof under /debug/pprof/)\n", addr)
	}

	params := experiment.Params{Trials: sh.trials, Seed: sh.seed, Quick: sh.quick, Parallelism: sh.parallel}
	parallelism := sh.parallel
	if parallelism == 0 {
		parallelism = runtime.NumCPU()
	}
	rec := benchRecord{
		recordHeader: newHeader("conciliator-bench/v1", sh.seed),
		Quick:        sh.quick,
		Trials:       sh.trials,
		Parallelism:  parallelism,
	}
	mrec := metricsRecord{
		recordHeader: newHeader("conciliator-metrics/v1", sh.seed),
		Quick:        sh.quick,
		Trials:       sh.trials,
		Parallelism:  parallelism,
	}
	suiteStart := time.Now()
	for _, e := range todo {
		steps0, slots0 := sim.Counters()
		mPrev := metrics.Default().Snapshot()
		start := time.Now()
		tables := e.Run(params)
		wall := time.Since(start)
		steps1, slots1 := sim.Counters()
		if wantMetrics {
			mrec.Experiments = append(mrec.Experiments, metricsEntry{
				ID:      e.ID,
				Metrics: metrics.Default().Snapshot().Sub(mPrev),
			})
		}
		for i := range tables {
			render(out, sh.format, &tables[i])
		}
		if *timings {
			fmt.Fprintf(out, "[%s took %v]\n\n", e.ID, wall.Round(time.Millisecond))
		}
		rec.Experiments = append(rec.Experiments, newBenchEntry(e.ID, wall, steps1-steps0, slots1-slots0))
	}
	if *benchOut != "" || *benchBaseline != "" {
		// The controlled-steps microbenchmarks measure raw simulator
		// throughput independent of any protocol, which is what the
		// baseline gate compares: experiment entries are dominated by
		// protocol statistics, these by the engine. The flat-steps entries
		// run the same workloads on the flat state-machine engine; the
		// ratio between the two prefixes in one record is the interpreter
		// speedup on identical modeled work.
		rec.Experiments = append(rec.Experiments, controlledStepsEntries()...)
		rec.Experiments = append(rec.Experiments, flatStepsEntries()...)
	}
	if *benchOut != "" {
		rec.TotalWallSeconds = time.Since(suiteStart).Seconds()
		if err := writeJSON(*benchOut, rec); err != nil {
			return fmt.Errorf("writing bench record: %w", err)
		}
	}
	if *benchBaseline != "" {
		for _, prefix := range []string{"controlled-steps/", "flat-steps/"} {
			if err := compareBaseline(out, *benchBaseline, prefix, "steps/s", stepRates(rec.Experiments)); err != nil {
				return err
			}
		}
	}
	if *benchConcOut != "" || *benchConcBaseline != "" {
		crec := buildConcurrentRecord(out)
		if *benchConcOut != "" {
			if err := writeJSON(*benchConcOut, crec); err != nil {
				return fmt.Errorf("writing concurrent bench record: %w", err)
			}
		}
		if *benchConcBaseline != "" {
			if err := compareBaseline(out, *benchConcBaseline, "concurrent-steps/", "steps/s", stepRates(crec.Experiments)); err != nil {
				return err
			}
		}
	}
	if wantMetrics {
		mrec.Totals = metrics.Default().Snapshot()
	}
	if *metricsTable {
		fmt.Fprintf(out, "metrics:\n%s", mrec.Totals.Text())
	}
	if *metricsOut != "" {
		if err := writeJSON(*metricsOut, mrec); err != nil {
			return fmt.Errorf("writing metrics record: %w", err)
		}
	}
	return nil
}

// newBenchEntry derives the per-second rates of one measured workload.
func newBenchEntry(id string, wall time.Duration, steps, slots int64) benchEntry {
	e := benchEntry{ID: id, WallSeconds: wall.Seconds(), Steps: steps, Slots: slots}
	if secs := wall.Seconds(); secs > 0 {
		e.StepsPerSec = float64(steps) / secs
		e.SlotsPerSec = float64(slots) / secs
	}
	return e
}

// stepsWorkloads are the four deterministic microbenchmark workloads of
// BenchmarkControlledSteps: process pid performs steps(pid) trivial
// operations under the schedule mk builds. The controlled-steps and
// flat-steps entries run the same list on the two engines.
var stepsWorkloads = []struct {
	name  string
	n     int
	steps func(pid int) int
	mk    func(n int, seed uint64) sched.Source
}{
	{
		name:  "round-robin/n=8",
		n:     8,
		steps: func(int) int { return 2048 },
		mk:    func(n int, _ uint64) sched.Source { return sched.NewRoundRobin(n) },
	},
	{
		name:  "round-robin/n=64",
		n:     64,
		steps: func(int) int { return 256 },
		mk:    func(n int, _ uint64) sched.Source { return sched.NewRoundRobin(n) },
	},
	{
		name:  "random/n=64",
		n:     64,
		steps: func(int) int { return 256 },
		mk:    func(n int, seed uint64) sched.Source { return sched.NewRandom(n, xrand.New(seed)) },
	},
	{
		name: "skewed-tail/n=64",
		n:    64,
		steps: func(pid int) int {
			if pid == 0 {
				return 4096
			}
			return 1
		},
		mk: func(n int, _ uint64) sched.Source { return sched.NewRoundRobin(n) },
	},
}

// controlledStepsRuns is the fixed per-workload run count of the
// controlled-steps microbenchmarks: deterministic work (the steps/s
// denominator varies only with machine speed) keeps baseline comparisons
// meaningful across runs.
const controlledStepsRuns = 64

// controlledStepsEntries runs stepsWorkloads on the coroutine engine and
// returns one bench entry per workload under the "controlled-steps/" id
// prefix.
func controlledStepsEntries() []benchEntry {
	entries := make([]benchEntry, 0, len(stepsWorkloads))
	for _, tc := range stepsWorkloads {
		var totalSteps, totalSlots int64
		start := time.Now()
		for i := 0; i < controlledStepsRuns; i++ {
			res, err := sim.RunControlled(tc.mk(tc.n, uint64(i)+1), func(p *sim.Proc) {
				for s := tc.steps(p.ID()); s > 0; s-- {
					p.Step()
				}
			}, sim.Config{AlgSeed: uint64(i) + 1})
			if err != nil {
				// The workloads are infinite-schedule and tiny relative to
				// the slot budget; an error here is a simulator bug, not a
				// measurement artifact.
				panic(err)
			}
			totalSteps += res.TotalSteps
			totalSlots += res.Slots
		}
		entries = append(entries, newBenchEntry("controlled-steps/"+tc.name, time.Since(start), totalSteps, totalSlots))
	}
	return entries
}

// benchCountdown is the flat-engine image of the stepsWorkloads bodies:
// process pid performs a fixed number of trivial operations.
type benchCountdown struct {
	steps func(pid int) int
	left  []int
}

func (m *benchCountdown) Init(pid int, _ *xrand.Rand) { m.left[pid] = m.steps(pid) }

func (m *benchCountdown) Step(pid int, _ *xrand.Rand) bool {
	m.left[pid]--
	return m.left[pid] == 0
}

// flatStepsRuns is the fixed run count of the flat-steps workloads. The
// flat engine clears each workload in microseconds, so it takes more
// runs than the coroutine engine to integrate a stable steps/s figure;
// since steps/s is time-normalized, flat-steps/X vs controlled-steps/X
// in one record is still the engine speedup on identical modeled work.
const flatStepsRuns = 16 * controlledStepsRuns

// flatStepsEntries runs stepsWorkloads on the flat state-machine engine
// and returns one bench entry per workload under the "flat-steps/" id
// prefix.
func flatStepsEntries() []benchEntry {
	entries := make([]benchEntry, 0, len(stepsWorkloads))
	for _, tc := range stepsWorkloads {
		m := &benchCountdown{steps: tc.steps, left: make([]int, tc.n)}
		fr := sim.NewFlatRunner[*benchCountdown]()
		var res sim.Result
		var totalSteps, totalSlots int64
		start := time.Now()
		for i := 0; i < flatStepsRuns; i++ {
			if err := fr.RunInto(tc.mk(tc.n, uint64(i)+1), m, sim.Config{AlgSeed: uint64(i) + 1}, &res); err != nil {
				// Infinite-schedule workloads far below the slot budget: an
				// error is an engine bug, not a measurement artifact.
				panic(err)
			}
			totalSteps += res.TotalSteps
			totalSlots += res.Slots
		}
		entries = append(entries, newBenchEntry("flat-steps/"+tc.name, time.Since(start), totalSteps, totalSlots))
	}
	return entries
}

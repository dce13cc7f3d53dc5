package main

import (
	"fmt"
	"io"
	"strings"
	"time"

	"github.com/oblivious-consensus/conciliator/internal/experiment"
	"github.com/oblivious-consensus/conciliator/internal/fault"
	"github.com/oblivious-consensus/conciliator/internal/sched"
)

// faultFlags are the fault subcommand's own flags.
type faultFlags struct {
	spec    string // -kinds: comma-separated fault kinds, or "all"
	n       int    // -n
	scheds  string // -sched: comma-separated sched kind names
	stutter int    // -stutter: max stutter/stall length and staleness depth
	jsonOut string // -json
	repros  string // -repros
	shrink  int    // -shrink
}

// validate rejects bad flag values before any trial runs. It returns the
// parsed matrix axes for the sweep.
func (f *faultFlags) validate(trials int) (sems []fault.Semantics, procs []fault.ProcFault, kinds []sched.Kind, err error) {
	if trials < 0 {
		return nil, nil, nil, fmt.Errorf("-trials must be non-negative, got %d", trials)
	}
	if f.n < 0 {
		return nil, nil, nil, fmt.Errorf("-n must be non-negative, got %d", f.n)
	}
	if f.stutter < 0 {
		return nil, nil, nil, fmt.Errorf("-stutter must be non-negative, got %d", f.stutter)
	}
	if f.shrink < 0 {
		return nil, nil, nil, fmt.Errorf("-shrink must be non-negative, got %d", f.shrink)
	}
	for _, tok := range strings.Split(f.spec, ",") {
		tok = strings.TrimSpace(tok)
		switch {
		case tok == "":
		case tok == "all":
			// Full matrix on both axes; listing other kinds alongside is
			// harmless but redundant.
			sems = []fault.Semantics{fault.SemAtomic, fault.SemRegular, fault.SemSafe}
			procs = []fault.ProcFault{fault.ProcNone, fault.ProcStutter, fault.ProcStall, fault.ProcCrashRecover}
		default:
			if pf, ok := fault.ProcFaultByName(tok); ok {
				procs = append(procs, pf)
			} else if sm, ok := fault.SemanticsByName(tok); ok {
				sems = append(sems, sm)
			} else {
				return nil, nil, nil, fmt.Errorf("unknown fault kind %q in -kinds (want all, %s, %s, %s, %s, %s, %s)",
					tok, fault.ProcStutter, fault.ProcStall, fault.ProcCrashRecover,
					fault.SemAtomic, fault.SemRegular, fault.SemSafe)
			}
		}
	}
	if len(sems) == 0 && len(procs) == 0 {
		return nil, nil, nil, fmt.Errorf("-kinds lists no fault kinds")
	}
	// Naming only process faults sweeps them against every register
	// semantics, and vice versa: each axis defaults to "all" when the
	// other is pinned.
	if len(sems) == 0 {
		sems = []fault.Semantics{fault.SemAtomic, fault.SemRegular, fault.SemSafe}
	}
	if len(procs) == 0 {
		procs = []fault.ProcFault{fault.ProcNone, fault.ProcStutter, fault.ProcStall, fault.ProcCrashRecover}
	}
	if f.scheds != "" {
		for _, tok := range strings.Split(f.scheds, ",") {
			tok = strings.TrimSpace(tok)
			if tok == "" {
				continue
			}
			k, ok := sched.KindByName(tok)
			if !ok {
				var names []string
				for _, kk := range sched.Kinds() {
					names = append(names, kk.String())
				}
				return nil, nil, nil, fmt.Errorf("unknown schedule kind %q in -sched (want %s)", tok, strings.Join(names, ", "))
			}
			kinds = append(kinds, k)
		}
		if len(kinds) == 0 {
			return nil, nil, nil, fmt.Errorf("-sched lists no schedule kinds")
		}
	}
	return sems, procs, kinds, nil
}

// faultReport is the machine-readable record written by -json.
type faultReport struct {
	recordHeader                  // schema "conciliator-fault-report/v1"
	N            int              `json:"n"`
	Trials       int              `json:"trials"`
	Shrink       int              `json:"shrink_budget"`
	WallSeconds  float64          `json:"wall_seconds"`
	Cells        []faultCellEntry `json:"cells"`
}

type faultCellEntry struct {
	Semantics  string         `json:"semantics"`
	Proc       string         `json:"proc_fault"`
	Sched      string         `json:"sched"`
	Workload   string         `json:"workload"`
	Atomic     bool           `json:"atomic"`
	Trials     int            `json:"trials"`
	Violated   int            `json:"violated"`
	ByMonitor  map[string]int `json:"by_monitor,omitempty"`
	Faults     fault.Counts   `json:"faults_injected"`
	ReproPaths []string       `json:"repro_paths,omitempty"`
}

// runFault is the fault subcommand: it executes the fault matrix and
// reports. The exit contract mirrors the nightly job's needs: violations
// in atomic-semantics cells (the paper's own model, where monitors must
// stay silent) fail the run; violations in weakened-register cells are
// findings and do not.
func runFault(args []string, out io.Writer) error {
	fs, sh := newFlagSet("fault", seedFlag|quickFlag|parallelFlag|trialsFlag)
	var ff faultFlags
	fs.StringVar(&ff.spec, "kinds", "all", "fault kinds to sweep, comma-separated: all, stutter, stall, crash-recovery, atomic, regular, safe")
	fs.IntVar(&ff.n, "n", 0, "processes per faulted trial (0 = default 8)")
	fs.StringVar(&ff.scheds, "sched", "", "schedule kinds to sweep, comma-separated (default: all kinds)")
	fs.IntVar(&ff.stutter, "stutter", 0, "max stutter/stall length and staleness depth per fault event (0 = default)")
	fs.StringVar(&ff.jsonOut, "json", "", "write a JSON fault-sweep report to this path")
	fs.StringVar(&ff.repros, "repros", "", "save shrunk counterexample artifacts under this directory")
	fs.IntVar(&ff.shrink, "shrink", 0, "shrink budget (replays per counterexample; 0 = default)")
	if err := sh.parse(fs, args); err != nil {
		return err
	}
	sems, procs, kinds, err := ff.validate(sh.trials)
	if err != nil {
		return err
	}
	params := experiment.Params{Seed: sh.seed, Quick: sh.quick, Parallelism: sh.parallel}
	cfg := experiment.FaultSweepConfig{
		Params:    params,
		N:         ff.n,
		Trials:    sh.trials,
		Semantics: sems,
		Procs:     procs,
		Kinds:     kinds,
		Shrink:    ff.shrink,
		ReproDir:  ff.repros,
	}
	if cfg.Shrink == 0 {
		// Shrinking is the point of the sweep; 2048 repro runs per
		// artifact reduces typical schedules to a handful of events.
		cfg.Shrink = 2048
	}
	if ff.stutter > 0 {
		// Threaded through Plan.MaxArg by the sweep via a wrapper below.
		cfg.MaxArg = ff.stutter
	}
	start := time.Now()
	results := experiment.RunFaultSweep(cfg)

	rep := faultReport{
		recordHeader: newHeader("conciliator-fault-report/v1", sh.seed),
		N:            cfg.N,
		Trials:       cfg.Trials,
		Shrink:       cfg.Shrink,
	}
	var atomicFailures []string
	totalViolated := 0
	for _, cr := range results {
		entry := faultCellEntry{
			Semantics: cr.Cell.Semantics.String(),
			Proc:      cr.Cell.Proc.String(),
			Sched:     cr.Cell.Kind.String(),
			Workload:  cr.Cell.Workload,
			Atomic:    cr.Cell.Atomic(),
			Trials:    cr.Trials,
			Violated:  cr.Violated,
			Faults:    cr.Faults,
		}
		if len(cr.ByMonitor) > 0 {
			entry.ByMonitor = cr.ByMonitor
		}
		for _, r := range cr.Repros {
			entry.ReproPaths = append(entry.ReproPaths, r.SavedPath)
		}
		rep.Cells = append(rep.Cells, entry)

		status := "ok"
		if cr.Violated > 0 {
			totalViolated += cr.Violated
			status = fmt.Sprintf("VIOLATED %d/%d", cr.Violated, cr.Trials)
			if cr.Cell.Atomic() {
				atomicFailures = append(atomicFailures, cr.Cell.String())
			}
		}
		fmt.Fprintf(out, "fault: %-55s %8s  faults=%d\n", cr.Cell, status, cr.Faults.Total())
		for _, r := range cr.Repros {
			where := "(in memory)"
			if r.SavedPath != "" {
				where = r.SavedPath
			}
			fmt.Fprintf(out, "fault:   repro: %d events -> %s\n", r.Fault.Len(), where)
		}
	}
	rep.WallSeconds = time.Since(start).Seconds()
	fmt.Fprintf(out, "fault: %d cells, %d violated trials, %.1fs\n", len(results), totalViolated, rep.WallSeconds)

	if ff.jsonOut != "" {
		if err := writeJSON(ff.jsonOut, rep); err != nil {
			return fmt.Errorf("writing fault report: %w", err)
		}
	}
	if len(atomicFailures) > 0 {
		return fmt.Errorf("safety violations in atomic-semantics cells (reproduction bug, not a finding): %s",
			strings.Join(atomicFailures, "; "))
	}
	return nil
}

// runFaultReplay re-executes a saved repro artifact and confirms the
// violation reproduces.
func runFaultReplay(out io.Writer, path string) error {
	r, err := fault.LoadRepro(path)
	if err != nil {
		return fmt.Errorf("loading repro: %w", err)
	}
	fmt.Fprintf(out, "replaying %s: workload=%s n=%d sched=%s/%d alg-seed=%d fault-events=%d\n",
		path, r.Workload, r.N, r.Sched, r.SchedSeed, r.AlgSeed, r.Fault.Len())
	fmt.Fprintf(out, "recorded violations:\n")
	for _, v := range r.Violations {
		fmt.Fprintf(out, "  %-18s %s\n", v.Monitor, v.Detail)
	}
	res, err := experiment.ReplayRepro(r)
	if err != nil {
		return err
	}
	if len(res.Violations) == 0 {
		return fmt.Errorf("replay of %s produced no violations: artifact is stale or the bug is fixed", path)
	}
	fmt.Fprintf(out, "replay violations:\n")
	for _, v := range res.Violations {
		fmt.Fprintf(out, "  %-18s %s\n", v.Monitor, v.Detail)
	}
	fmt.Fprintf(out, "reproduced (%d restarts, faults injected: %d)\n", res.Res.Restarts, res.Res.Faults.Total())
	return nil
}

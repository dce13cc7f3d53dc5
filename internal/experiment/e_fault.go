package experiment

import (
	"errors"
	"fmt"
	"path/filepath"

	"github.com/oblivious-consensus/conciliator/internal/adoptcommit"
	"github.com/oblivious-consensus/conciliator/internal/conciliator"
	"github.com/oblivious-consensus/conciliator/internal/consensus"
	"github.com/oblivious-consensus/conciliator/internal/fault"
	"github.com/oblivious-consensus/conciliator/internal/memory"
	"github.com/oblivious-consensus/conciliator/internal/sched"
	"github.com/oblivious-consensus/conciliator/internal/sim"
	"github.com/oblivious-consensus/conciliator/internal/xrand"
)

// Workload names resolvable by RunFaultTrial and repro replay.
const (
	// WorkloadConsensus runs the register-model consensus (Algorithm 2
	// sifters + hash adopt-commit, the Corollary 2 stack) with distinct
	// inputs under the agreement/validity/adopt-commit monitors. The
	// register model is the right one for crash-recovery: its objects
	// are anonymous and stay coherent when an amnesiac process
	// re-proposes, unlike the pid-indexed snapshot adopt-commit.
	WorkloadConsensus = "consensus-register"
	// WorkloadMaxReg probes a unit-cost max register under the
	// monotonicity monitor: each process alternates increasing WriteMax
	// keys with ReadMax.
	WorkloadMaxReg = "maxreg-probe"
)

// FaultWorkloads lists the known workload names.
func FaultWorkloads() []string { return []string{WorkloadConsensus, WorkloadMaxReg} }

// defaultFaultMaxSlots bounds faulted trials tightly enough that genuine
// non-termination surfaces in milliseconds rather than at the
// simulator's 1<<26 default.
const defaultFaultMaxSlots = 1 << 20

// FaultTrialSpec pins down one faulted trial completely: a trial is a
// pure function of this struct, which is why repro artifacts only need
// to record it.
type FaultTrialSpec struct {
	N         int
	SchedKind sched.Kind
	SchedSeed uint64
	AlgSeed   uint64
	MaxSlots  int64
	Workload  string
	Fault     *fault.Schedule
}

// FaultTrialResult reports one faulted trial.
type FaultTrialResult struct {
	// Violations is every safety-monitor firing; empty means the trial
	// was safe.
	Violations []fault.Violation
	// Res is the simulator result (zero if the run never started).
	Res sim.Result
}

// RunFaultTrial executes one faulted trial under always-on safety
// monitors. Process panics and slot-budget blowouts are converted into
// "panic" and "nontermination" violations rather than propagating: in a
// fault sweep they are findings, not harness bugs.
func RunFaultTrial(spec FaultTrialSpec) FaultTrialResult {
	mon := fault.NewMonitor()
	maxSlots := spec.MaxSlots
	if maxSlots <= 0 {
		maxSlots = defaultFaultMaxSlots
	}
	cfg := sim.Config{AlgSeed: spec.AlgSeed, MaxSlots: maxSlots, Faults: spec.Fault}
	var (
		res    sim.Result
		runErr error
	)
	func() {
		defer func() {
			if r := recover(); r != nil {
				mon.Report("panic", "%v", r)
			}
		}()
		src := sched.New(spec.SchedKind, spec.N, spec.SchedSeed)
		switch spec.Workload {
		case WorkloadConsensus:
			inputs := distinctInputs(spec.N)
			proto := consensus.New(spec.N, consensus.Config[int]{
				NewConciliator: func(int) conciliator.Interface[int] {
					return conciliator.NewSifter[int](spec.N, conciliator.SifterConfig{Epsilon: 0.5})
				},
				NewAdoptCommit: func(int) adoptcommit.Object[int] {
					return adoptcommit.NewHashAC[int]()
				},
				WrapAdoptCommit: func(phase int, ac adoptcommit.Object[int]) adoptcommit.Object[int] {
					return adoptcommit.NewChecked(ac, func(o adoptcommit.Observation[int]) {
						if !o.Completed {
							// A crash-recovery abort can strand this value
							// in shared state, so it counts as proposed.
							mon.ObserveACPropose(phase, o.Pid, o.In)
							return
						}
						mon.ObserveAC(phase, o.Pid, o.In, o.Out, o.Dec == adoptcommit.Commit)
					})
				},
			})
			outs, fin, r, err := sim.Collect(src, cfg, func(p *sim.Proc) int {
				return proto.Propose(p, inputs[p.ID()])
			})
			res, runErr = r, err
			mon.CheckOutcome(inputs, outs, fin)
		case WorkloadMaxReg:
			m := fault.NewMonitoredMaxer(memory.NewMaxRegister[int](), mon)
			r, err := sim.RunControlled(src, func(p *sim.Proc) {
				// Increasing keys per round so a stale read has smaller
				// maxima to regress to; 4 rounds x 2 ops x n processes
				// stays inside the linearize window for n <= 8.
				const rounds = 4
				for rd := 0; rd < rounds; rd++ {
					key := uint64(rd*spec.N + p.ID() + 1)
					m.WriteMax(p, key, int(key))
					m.ReadMax(p)
				}
			}, cfg)
			res, runErr = r, err
			m.Finish()
		default:
			mon.Report("panic", "unknown workload %q", spec.Workload)
		}
	}()
	if runErr != nil {
		if errors.Is(runErr, sim.ErrSlotBudget) {
			mon.Report("nontermination", "%v", runErr)
		} else {
			mon.Report("panic", "simulator error: %v", runErr)
		}
	}
	return FaultTrialResult{Violations: mon.Finish(), Res: res}
}

// FaultCell is one cell of the fault matrix.
type FaultCell struct {
	Semantics fault.Semantics
	Proc      fault.ProcFault
	Kind      sched.Kind
	Workload  string
}

// String renders the cell for reports and artifact names.
func (c FaultCell) String() string {
	return fmt.Sprintf("%s+%s/%s/%s", c.Semantics, c.Proc, c.Kind, c.Workload)
}

// Atomic reports whether the cell runs under the paper's own model
// (atomic registers; stutters, stalls, and crash-recovery do not weaken
// the objects). Safety monitors must never fire in atomic cells — a
// firing there is a bug in the reproduction, not a finding.
func (c FaultCell) Atomic() bool { return c.Semantics == fault.SemAtomic }

// FaultCellResult aggregates one cell's trials.
type FaultCellResult struct {
	Cell      FaultCell
	Trials    int
	Violated  int            // trials with at least one violation
	ByMonitor map[string]int // violation count per monitor name
	Faults    fault.Counts   // faults delivered across all trials
	Repros    []*fault.Repro // shrunk artifacts, at most maxReprosPerCell
}

// maxReprosPerCell bounds shrinking work and artifact spam per cell: the
// first violations are as good as the last.
const maxReprosPerCell = 2

// FaultSweepConfig parameterizes RunFaultSweep. Zero values select the
// full matrix at the defaults noted per field.
type FaultSweepConfig struct {
	Params    Params
	N         int               // processes per trial (default 8)
	Trials    int               // trials per cell (default 25, or 5 under Params.Quick)
	MaxSlots  int64             // slot budget per trial (default defaultFaultMaxSlots)
	Semantics []fault.Semantics // default atomic, regular, safe
	Procs     []fault.ProcFault // default none, stutter, stall, crash-recovery
	Kinds     []sched.Kind      // default sched.Kinds()
	Workloads []string          // default FaultWorkloads()
	MaxArg    int               // max stutter/stall length and staleness depth (0 = fault.Plan default)
	Shrink    int               // shrink budget (repro invocations) per artifact; 0 disables
	ReproDir  string            // save shrunk artifacts here; "" keeps them in memory only
}

func (c FaultSweepConfig) withDefaults() FaultSweepConfig {
	c.Params = c.Params.withDefaults()
	if c.N <= 0 {
		c.N = 8
	}
	if c.Trials <= 0 {
		c.Trials = 25
		if c.Params.Quick {
			c.Trials = 5
		}
	}
	if c.MaxSlots <= 0 {
		c.MaxSlots = defaultFaultMaxSlots
	}
	if len(c.Semantics) == 0 {
		c.Semantics = []fault.Semantics{fault.SemAtomic, fault.SemRegular, fault.SemSafe}
	}
	if len(c.Procs) == 0 {
		c.Procs = []fault.ProcFault{fault.ProcNone, fault.ProcStutter, fault.ProcStall, fault.ProcCrashRecover}
	}
	if len(c.Kinds) == 0 {
		c.Kinds = sched.Kinds()
	}
	if len(c.Workloads) == 0 {
		c.Workloads = FaultWorkloads()
	}
	return c
}

// RunFaultSweep runs the fault matrix: for every cell (register
// semantics x process fault x schedule family x workload) it runs
// Trials seeded trials under the safety monitors, shrinks the fault
// schedule of the first violating trials into minimal repro artifacts,
// and aggregates per-cell results. Deterministic in (Params.Seed,
// Trials, the cell lists); trials within a cell run in parallel per
// Params.Parallelism with byte-identical results.
func RunFaultSweep(cfg FaultSweepConfig) []FaultCellResult {
	cfg = cfg.withDefaults()
	var cells []FaultCell
	for _, sem := range cfg.Semantics {
		for _, pf := range cfg.Procs {
			for _, k := range cfg.Kinds {
				for _, w := range cfg.Workloads {
					cells = append(cells, FaultCell{Semantics: sem, Proc: pf, Kind: k, Workload: w})
				}
			}
		}
	}
	results := make([]FaultCellResult, 0, len(cells))
	for ci, cell := range cells {
		results = append(results, runFaultCell(cfg, cell, cfg.Params.Seed+uint64(ci)*0x9e3779b9))
	}
	return results
}

// runFaultCell runs one cell's trials (in parallel) and shrinks its
// first violations.
func runFaultCell(cfg FaultSweepConfig, cell FaultCell, master uint64) FaultCellResult {
	out := FaultCellResult{Cell: cell, Trials: cfg.Trials, ByMonitor: make(map[string]int)}

	// Fault schedules draw from their own stream, so the same trial
	// keeps the same algorithm and adversary seeds across cells.
	faultSeeds := make([]uint64, cfg.Trials)
	frng := xrand.New(master).ForkNamed(0xfa17)
	for i := range faultSeeds {
		faultSeeds[i] = frng.Uint64()
	}

	type trialOut struct {
		spec       FaultTrialSpec
		violations []fault.Violation
		faults     fault.Counts
	}
	trials := make([]trialOut, cfg.Trials)
	cfg.Params.forEachTrial(master, cfg.Trials, func(t int, s trialSeeds) {
		plan := fault.Plan{N: cfg.N, Seed: faultSeeds[t], Semantics: cell.Semantics, Proc: cell.Proc, MaxArg: int64(cfg.MaxArg)}
		schedule, err := plan.Generate()
		if err != nil {
			panic(fmt.Sprintf("experiment: fault plan: %v", err))
		}
		spec := FaultTrialSpec{
			N:         cfg.N,
			SchedKind: cell.Kind,
			SchedSeed: s.sched,
			AlgSeed:   s.alg,
			MaxSlots:  cfg.MaxSlots,
			Workload:  cell.Workload,
			Fault:     schedule,
		}
		tr := RunFaultTrial(spec)
		trials[t] = trialOut{spec: spec, violations: tr.Violations, faults: tr.Res.Faults}
	})

	for t := range trials {
		out.Faults.Add(trials[t].faults)
		if len(trials[t].violations) == 0 {
			continue
		}
		out.Violated++
		for _, v := range trials[t].violations {
			out.ByMonitor[v.Monitor]++
		}
		if cfg.Shrink > 0 && len(out.Repros) < maxReprosPerCell {
			if r := shrinkTrial(trials[t].spec, trials[t].violations, cfg.Shrink); r != nil {
				out.Repros = append(out.Repros, r)
				if cfg.ReproDir != "" {
					name := fmt.Sprintf("%s_%s_%s_%s_t%d.json", cell.Semantics, cell.Proc, cell.Kind, cell.Workload, t)
					path := filepath.Join(cfg.ReproDir, name)
					if err := r.Save(path); err != nil {
						panic(fmt.Sprintf("experiment: saving repro: %v", err))
					}
					r.SavedPath = path
				}
			}
		}
	}
	return out
}

// shrinkTrial bisects a violating trial's fault schedule to a minimal
// one that still produces some violation, and packages the result.
func shrinkTrial(spec FaultTrialSpec, violations []fault.Violation, budget int) *fault.Repro {
	reproduces := func(cand *fault.Schedule) bool {
		s := spec
		s.Fault = cand
		return len(RunFaultTrial(s).Violations) > 0
	}
	shrunk := fault.Shrink(spec.Fault, budget, reproduces)
	// Re-run under the shrunk schedule so the artifact records the
	// violations it actually reproduces.
	final := spec
	final.Fault = shrunk
	vs := RunFaultTrial(final).Violations
	if len(vs) == 0 {
		// Shrinking contract violated (can only happen when the budget
		// was exhausted mid-phase); fall back to the original.
		final.Fault = spec.Fault
		vs = violations
	}
	return &fault.Repro{
		Schema:     fault.SchemaRepro,
		N:          spec.N,
		Sched:      spec.SchedKind.String(),
		SchedSeed:  spec.SchedSeed,
		AlgSeed:    spec.AlgSeed,
		MaxSlots:   spec.MaxSlots,
		Workload:   spec.Workload,
		Fault:      final.Fault,
		Violations: vs,
	}
}

// ReplayRepro re-executes a repro artifact's trial and reports whether
// a violation reproduced.
func ReplayRepro(r *fault.Repro) (FaultTrialResult, error) {
	if err := r.Validate(); err != nil {
		return FaultTrialResult{}, err
	}
	kind, ok := sched.KindByName(r.Sched)
	if !ok {
		return FaultTrialResult{}, fmt.Errorf("experiment: repro names unknown schedule kind %q", r.Sched)
	}
	known := false
	for _, w := range FaultWorkloads() {
		if w == r.Workload {
			known = true
		}
	}
	if !known {
		return FaultTrialResult{}, fmt.Errorf("experiment: repro names unknown workload %q", r.Workload)
	}
	return RunFaultTrial(FaultTrialSpec{
		N:         r.N,
		SchedKind: kind,
		SchedSeed: r.SchedSeed,
		AlgSeed:   r.AlgSeed,
		MaxSlots:  r.MaxSlots,
		Workload:  r.Workload,
		Fault:     r.Fault,
	}), nil
}

// e17FaultSweep renders a reduced fault matrix as an experiment table:
// the paper's safety properties hold in every atomic-semantics cell and
// degrade measurably once register semantics weaken. The full matrix
// with shrinking and artifacts runs through consensusbench fault; the
// experiment form stays file-free and quick-capable by design.
func e17FaultSweep() Experiment {
	return Experiment{
		ID:    "E17",
		Title: "Safety under injected faults (weak registers, stutter/stall/crash-recovery)",
		Claim: "Theorems 1-3 assume atomic registers and clean crashes; monitors stay silent there and fire under weakened semantics",
		Run: func(p Params) []Table {
			p = p.withDefaults()
			kinds := []sched.Kind{sched.KindRandom, sched.KindRoundRobin}
			if !p.Quick {
				kinds = sched.Kinds()
			}
			sweep := RunFaultSweep(FaultSweepConfig{
				Params: p,
				Trials: p.trials(3, 20),
				Kinds:  kinds,
			})
			tbl := Table{
				ID:    "E17",
				Title: "Fault matrix: trials with safety violations per cell",
				Columns: []string{
					"semantics", "proc fault", "schedule", "workload",
					"trials", "violated", "monitors", "faults injected",
				},
				Notes: []string{
					"Atomic-semantics cells run the paper's own model (process faults " +
						"but no weakened reads) and must show zero violations; " +
						"regular/safe cells weaken register semantics beyond the " +
						"proofs' assumptions, so monitor firings there measure how " +
						"far the guarantees degrade, not bugs.",
					"The full matrix with counterexample shrinking runs via " +
						"consensusbench fault.",
				},
			}
			for _, cr := range sweep {
				monitors := "-"
				if len(cr.ByMonitor) > 0 {
					monitors = fmtMonitors(cr.ByMonitor)
				}
				tbl.AddRow(
					cr.Cell.Semantics.String(), cr.Cell.Proc.String(),
					cr.Cell.Kind.String(), cr.Cell.Workload,
					cr.Trials, cr.Violated, monitors, cr.Faults.Total(),
				)
				if cr.Cell.Atomic() && cr.Violated > 0 {
					panic(fmt.Sprintf("experiment: safety violation in atomic cell %s: %v", cr.Cell, cr.ByMonitor))
				}
			}
			return []Table{tbl}
		},
	}
}

// fmtMonitors renders a monitor->count map deterministically.
func fmtMonitors(m map[string]int) string {
	order := []string{
		"agreement", "validity", "ac-coherence", "ac-validity",
		"ac-convergence", "maxreg-monotonic", "nontermination", "panic",
	}
	s := ""
	for _, k := range order {
		if c, ok := m[k]; ok {
			if s != "" {
				s += " "
			}
			s += fmt.Sprintf("%s:%d", k, c)
		}
	}
	for k, c := range m {
		seen := false
		for _, o := range order {
			if o == k {
				seen = true
			}
		}
		if !seen {
			if s != "" {
				s += " "
			}
			s += fmt.Sprintf("%s:%d", k, c)
		}
	}
	return s
}

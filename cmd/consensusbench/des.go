package main

import (
	"fmt"
	"io"
	"path/filepath"
	"strconv"
	"strings"

	"github.com/oblivious-consensus/conciliator/internal/des"
	"github.com/oblivious-consensus/conciliator/internal/experiment"
	"github.com/oblivious-consensus/conciliator/internal/stats"
	"github.com/oblivious-consensus/conciliator/internal/xrand"
)

// desFlags are the des subcommand's own flags, kept as given so the
// record can echo the crash and restart specs verbatim.
type desFlags struct {
	jsonOut    string
	ns         string
	protocols  string
	latency    string
	loss       float64
	partitions string
	crash      string
	restart    string
	repros     string
}

// desDefaultNs is the committed E18 sweep: the regime where log log n
// visibly separates from log n.
var desDefaultNs = []int{1000, 10000, 100000}

const desDefaultTrials = 5

// desSweep is the resolved, validated input set of one flag-driven sweep.
type desSweep struct {
	ns        []int
	protocols []string
	net       des.NetConfig
	chaos     des.ChaosConfig
	// weakened marks the amnesiac-server restart variant: the memory
	// server wipes its registers on restart, which leaves the atomic
	// model — run errors and violations become findings, not failures.
	weakened bool
	trials   int
}

// validate parses and checks every flag value, returning the resolved
// sweep inputs.
func (f *desFlags) validate(trials int) (sw desSweep, err error) {
	sw.ns = desDefaultNs
	if f.ns != "" {
		sw.ns = nil
		for _, s := range strings.Split(f.ns, ",") {
			s = strings.TrimSpace(s)
			if s == "" {
				continue
			}
			n, perr := strconv.Atoi(s)
			if perr != nil || n < 1 {
				return sw, fmt.Errorf("-n: bad process count %q", s)
			}
			sw.ns = append(sw.ns, n)
		}
		if len(sw.ns) == 0 {
			return sw, fmt.Errorf("-n: no process counts in %q", f.ns)
		}
	}
	sw.protocols = des.Protocols()
	if f.protocols != "" {
		sw.protocols = nil
		known := make(map[string]bool)
		for _, p := range des.Protocols() {
			known[p] = true
		}
		for _, s := range strings.Split(f.protocols, ",") {
			s = strings.TrimSpace(s)
			if s == "" {
				continue
			}
			if !known[s] {
				return sw, fmt.Errorf("-protocols: unknown protocol %q (want %s)", s, strings.Join(des.Protocols(), ", "))
			}
			sw.protocols = append(sw.protocols, s)
		}
		if len(sw.protocols) == 0 {
			return sw, fmt.Errorf("-protocols: no protocols in %q", f.protocols)
		}
	}
	if f.latency != "" {
		sw.net.Latency, err = des.ParseLatency(f.latency)
		if err != nil {
			return sw, fmt.Errorf("-latency: %w", err)
		}
	}
	// The >=/<= shape rejects NaN too: `loss < 0 || loss > 0.99` silently
	// accepts NaN (every comparison is false), which would then corrupt
	// every Bernoulli draw of the sweep.
	if !(f.loss >= 0 && f.loss <= 0.99) {
		return sw, fmt.Errorf("-loss: %g out of range [0, 0.99]", f.loss)
	}
	sw.net.Loss = f.loss
	if f.partitions != "" {
		for _, s := range strings.Split(f.partitions, ",") {
			s = strings.TrimSpace(s)
			if s == "" {
				continue
			}
			p, perr := des.ParsePartition(s)
			if perr != nil {
				return sw, fmt.Errorf("-partition: %w", perr)
			}
			sw.net.Partitions = append(sw.net.Partitions, p)
		}
	}
	if f.crash == "" {
		if f.restart != "" {
			return sw, fmt.Errorf("-restart requires -crash: a restart variant without a crash schedule does nothing")
		}
		if f.repros != "" {
			return sw, fmt.Errorf("-repros requires -crash: repro artifacts record crash schedules")
		}
	} else {
		sw.chaos, err = des.ParseChaosSpec(f.crash)
		if err != nil {
			return sw, fmt.Errorf("-crash: %w", err)
		}
		switch f.restart {
		case "", "durable":
			sw.chaos.ProcRestart, sw.chaos.ServerRestart = des.RestartDurable, des.RestartDurable
		case "amnesiac":
			// Processes lose their state; the server stays durable, so
			// the shared objects remain atomic and safety must hold.
			sw.chaos.ProcRestart, sw.chaos.ServerRestart = des.RestartAmnesiac, des.RestartDurable
		case "amnesiac-server":
			sw.chaos.ProcRestart, sw.chaos.ServerRestart = des.RestartAmnesiac, des.RestartAmnesiac
			sw.weakened = true
		default:
			return sw, fmt.Errorf("-restart: unknown variant %q (want durable, amnesiac, or amnesiac-server)", f.restart)
		}
	}
	sw.trials = trials
	if sw.trials < 0 {
		return sw, fmt.Errorf("-trials: %d must be positive", sw.trials)
	}
	if sw.trials == 0 {
		sw.trials = desDefaultTrials
	}
	// One throwaway validation run catches config-level errors (e.g. a
	// partition that never heals) before the sweep starts; the chaos plan
	// is validated statically (a weakened probe run may legitimately
	// fail, which is a finding, not a flag error).
	probe := des.Config{N: 1, Protocol: sw.protocols[0], Net: sw.net, Seed: 1}
	if _, perr := des.Run(probe); perr != nil {
		return sw, fmt.Errorf("des: %w", perr)
	}
	if sw.chaos.Active() {
		chk := des.Config{N: 2, Protocol: sw.protocols[0], Net: sw.net, Chaos: sw.chaos, Seed: 1}
		if _, perr := chk.ChaosSchedule(); perr != nil {
			return sw, fmt.Errorf("-crash: %w", perr)
		}
	}
	return sw, nil
}

// desRecord is the machine-readable record written by -json.
type desRecord struct {
	recordHeader          // schema "conciliator-des/v1"
	Trials       int      `json:"trials"`
	Latency      string   `json:"latency"`
	Loss         float64  `json:"loss"`
	Partitions   []string `json:"partitions,omitempty"`
	Crash        string   `json:"crash,omitempty"`
	Restart      string   `json:"restart,omitempty"`
	Rows         []desRow `json:"rows"`
}

type desRow struct {
	N             int     `json:"n"`
	Protocol      string  `json:"protocol"`
	Rounds        int     `json:"rounds_per_phase"`
	Phases        int     `json:"phases"`
	StepsMean     float64 `json:"steps_per_proc_mean"`
	StepsCI95     float64 `json:"steps_per_proc_ci95"`
	StepsP50      float64 `json:"steps_p50"`
	StepsP90      float64 `json:"steps_p90"`
	StepsP99      float64 `json:"steps_p99"`
	StepsMax      int64   `json:"steps_max"`
	MsgsSent      int64   `json:"msgs_sent"`
	MsgsDropped   int64   `json:"msgs_dropped"`
	MsgsBlocked   int64   `json:"msgs_blocked"`
	Retransmits   int64   `json:"retransmits"`
	Events        int64   `json:"events"`
	VirtualMsMean float64 `json:"virtual_ms_mean"`
	AllDecided    bool    `json:"all_decided"`
	Violations    int     `json:"violations"`
	Crashes       int64   `json:"crashes,omitempty"`
	Restarts      int64   `json:"restarts,omitempty"`
	Wipes         int64   `json:"wipes,omitempty"`
	Resyncs       int64   `json:"resyncs,omitempty"`
	GaveUp        int     `json:"gave_up,omitempty"`
	RunErrors     int     `json:"run_errors,omitempty"`
}

// runDES is the des subcommand: for each (n, protocol) cell it runs
// -trials seeds derived from the master seed, prints one table row, and
// optionally writes the JSON record. Deterministic in (seed, flags).
//
// Under a chaos schedule with atomic semantics (durable server) any
// safety violation fails the sweep; under the weakened amnesiac-server
// variant violations and run errors are findings, reported in the table
// and — with -repros — shrunk into replayable artifacts.
func runDES(args []string, out io.Writer) error {
	fs, sh := newFlagSet("des", seedFlag|formatFlag|trialsFlag)
	var df desFlags
	fs.StringVar(&df.jsonOut, "json", "", "write the sweep's conciliator-des/v1 JSON record to this path")
	fs.StringVar(&df.ns, "n", "", "comma-separated process counts (default 1000,10000,100000)")
	fs.StringVar(&df.protocols, "protocols", "", "comma-separated protocols (default sifter,sifter-half,priority-max)")
	fs.StringVar(&df.latency, "latency", "", "latency distribution kind:mean, kinds fixed|uniform|exp (default exp:1ms)")
	fs.Float64Var(&df.loss, "loss", 0, "per-message loss probability in [0, 0.99]")
	fs.StringVar(&df.partitions, "partition", "", "comma-separated partitions from:until:frac (e.g. 5ms:25ms:0.3)")
	fs.StringVar(&df.crash, "crash", "", "crash schedule proc:<rate>,server:<windows> (e.g. proc:0.2,server:1)")
	fs.StringVar(&df.restart, "restart", "", "restart variant: durable, amnesiac, or amnesiac-server (default durable)")
	fs.StringVar(&df.repros, "repros", "", "write shrunk des-fault-repro/v1 artifacts for violating chaos runs into this directory")
	if err := sh.parse(fs, args); err != nil {
		return err
	}
	sw, err := df.validate(sh.trials)
	if err != nil {
		return err
	}

	rec := desRecord{
		recordHeader: newHeader("conciliator-des/v1", sh.seed),
		Trials:       sw.trials,
		Latency:      sw.net.Latency.String(),
		Loss:         sw.net.Loss,
		Crash:        df.crash,
		Restart:      df.restart,
	}
	if sw.net.Latency.Mean <= 0 {
		rec.Latency = "exp:1ms" // the engine default, applied per run
	}
	for _, p := range sw.net.Partitions {
		rec.Partitions = append(rec.Partitions, p.String())
	}

	chaotic := sw.chaos.Active()
	title := fmt.Sprintf("message-passing sweep (latency %s, loss %g, %d partitions, %d trials)", rec.Latency, sw.net.Loss, len(sw.net.Partitions), sw.trials)
	columns := []string{"n", "protocol", "rounds/phase", "phases", "steps/proc", "p99", "max", "retransmits", "virtual ms", "all decided", "violations"}
	if chaotic {
		title = fmt.Sprintf("chaos sweep (latency %s, loss %g, crash %s, restart %s, %d trials)", rec.Latency, sw.net.Loss, df.crash, restartLabel(df.restart), sw.trials)
		columns = append(columns, "crashes", "restarts", "wipes", "resyncs", "gave up", "run errors")
	}
	tbl := experiment.Table{ID: "DES", Title: title, Columns: columns}

	var (
		atomicViolations int
		reprosSaved      int
	)
	// Per-trial seeds come from a named fork of the master seed, so the
	// sweep composition (which cells run, in what order) cannot change
	// any cell's results.
	seedRng := xrand.New(sh.seed).ForkNamed(0xde5)
	for _, n := range sw.ns {
		for _, protocol := range sw.protocols {
			cellSeeds := make([]uint64, sw.trials)
			for t := range cellSeeds {
				cellSeeds[t] = seedRng.Uint64()
			}
			var (
				steps      []float64
				vtimes     []float64
				row        = desRow{N: n, Protocol: protocol, AllDecided: true}
				cellRepros int
			)
			for _, s := range cellSeeds {
				cfg := des.Config{N: n, Protocol: protocol, Net: sw.net, Chaos: sw.chaos, Seed: s}
				res, rerr := des.Run(cfg)
				if rerr != nil {
					if !sw.weakened {
						return fmt.Errorf("des n=%d %s: %w", n, protocol, rerr)
					}
					// Weakened regime: the run itself may wedge (e.g. a
					// process blocked on state the server forgot). That is
					// a measured outcome of leaving the atomic model.
					row.RunErrors++
					continue
				}
				row.Rounds = res.Rounds
				if res.Phases > row.Phases {
					row.Phases = res.Phases
				}
				for _, st := range res.Steps {
					steps = append(steps, float64(st))
				}
				vtimes = append(vtimes, float64(res.VirtualTime.Microseconds())/1000)
				row.MsgsSent += res.MsgsSent
				row.MsgsDropped += res.MsgsDropped
				row.MsgsBlocked += res.MsgsBlocked
				row.Retransmits += res.Retransmits
				row.Events += res.Events
				row.AllDecided = row.AllDecided && res.AllDecided
				row.Violations += len(res.Violations)
				row.Crashes += res.Crashes
				row.Restarts += res.Restarts
				row.Wipes += res.Wipes
				row.Resyncs += res.Resyncs
				row.GaveUp += res.GaveUp
				if m := res.MaxSteps(); m > row.StepsMax {
					row.StepsMax = m
				}
				if len(res.Violations) > 0 {
					if !sw.weakened {
						atomicViolations += len(res.Violations)
					}
					if df.repros != "" && cellRepros < desMaxReprosPerCell {
						path, serr := shrinkAndSaveRepro(cfg, df.repros, cellRepros)
						if serr != nil {
							return fmt.Errorf("des n=%d %s seed %d: shrinking repro: %w", n, protocol, s, serr)
						}
						fmt.Fprintf(out, "saved fault repro: %s\n", path)
						cellRepros++
						reprosSaved++
					}
				}
			}
			sum := stats.Summarize(steps)
			qs := stats.Quantiles(steps, 0.5, 0.9, 0.99)
			row.StepsMean, row.StepsCI95 = sum.Mean, sum.CI95()
			row.StepsP50, row.StepsP90, row.StepsP99 = qs[0], qs[1], qs[2]
			vsum := stats.Summarize(vtimes)
			row.VirtualMsMean = vsum.Mean
			rec.Rows = append(rec.Rows, row)
			cells := []any{n, protocol, row.Rounds, row.Phases, sum.String(), qs[2], row.StepsMax,
				row.Retransmits, vsum.String(), fmt.Sprintf("%v", row.AllDecided), row.Violations}
			if chaotic {
				cells = append(cells, row.Crashes, row.Restarts, row.Wipes, row.Resyncs, row.GaveUp, row.RunErrors)
			}
			tbl.AddRow(cells...)
		}
	}

	render(out, sh.format, &tbl)

	if df.jsonOut != "" {
		if err := writeJSON(df.jsonOut, rec); err != nil {
			return fmt.Errorf("writing DES record: %w", err)
		}
	}
	if atomicViolations > 0 {
		return fmt.Errorf("des: %d safety violations under atomic semantics — the shared objects are durable, so this is a protocol or simulator bug", atomicViolations)
	}
	return nil
}

// desMaxReprosPerCell caps artifact output per (n, protocol) cell: the
// first failures are the interesting ones; hundreds of near-identical
// artifacts are noise.
const desMaxReprosPerCell = 2

// restartLabel names the restart variant for table titles.
func restartLabel(v string) string {
	if v == "" {
		return "durable"
	}
	return v
}

// shrinkAndSaveRepro takes a violating chaos config, ddmin-shrinks its
// materialized schedule against "still violates", and writes the
// des-fault-repro/v1 artifact into dir.
func shrinkAndSaveRepro(cfg des.Config, dir string, idx int) (string, error) {
	events, err := cfg.ChaosSchedule()
	if err != nil {
		return "", err
	}
	reproduces := func(cand []des.ChaosEvent) bool {
		c := cfg
		c.Chaos = des.ChaosConfig{Events: cand, ProcRestart: cfg.Chaos.ProcRestart, ServerRestart: cfg.Chaos.ServerRestart}
		res, rerr := des.Run(c)
		return rerr == nil && len(res.Violations) > 0
	}
	shrunk := des.ShrinkChaos(events, 256, reproduces)
	final := cfg
	final.Chaos = des.ChaosConfig{Events: shrunk, ProcRestart: cfg.Chaos.ProcRestart, ServerRestart: cfg.Chaos.ServerRestart}
	res, rerr := des.Run(final)
	if rerr != nil || len(res.Violations) == 0 {
		// The shrunk schedule must still violate — ShrinkChaos guarantees
		// this when the input violates, so reaching here is a bug.
		return "", fmt.Errorf("shrunk schedule no longer reproduces the violation (err=%v)", rerr)
	}
	repro := des.BuildRepro(final, shrunk, res.Violations)
	path := filepath.Join(dir, fmt.Sprintf("des_fault_n%d_%s_%d.json", cfg.N, cfg.Protocol, idx))
	if err := repro.Save(path); err != nil {
		return "", err
	}
	return path, nil
}

// runDESFaultReplay loads a committed des-fault-repro/v1 artifact and
// replays it, verifying the recorded violations reproduce byte-for-byte.
func runDESFaultReplay(out io.Writer, path string) error {
	repro, err := des.LoadFaultRepro(path)
	if err != nil {
		return err
	}
	res, err := repro.Replay()
	if err != nil {
		return fmt.Errorf("replaying %s: %w", path, err)
	}
	fmt.Fprintf(out, "replayed %s: schema %s, n=%d protocol=%s seed=%d\n", path, repro.Schema, repro.N, repro.Protocol, repro.Seed)
	fmt.Fprintf(out, "  %d chaos events reproduced %d violation(s) byte-identically:\n", len(repro.Chaos), len(res.Violations))
	for _, v := range res.Violations {
		fmt.Fprintf(out, "  - %s: %s\n", v.Monitor, v.Detail)
	}
	return nil
}

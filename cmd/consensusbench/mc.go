package main

import (
	"fmt"
	"io"
	"runtime"
	"strings"
	"time"

	"github.com/oblivious-consensus/conciliator/internal/artifact"
	"github.com/oblivious-consensus/conciliator/internal/consensus"
	"github.com/oblivious-consensus/conciliator/internal/experiment"
	"github.com/oblivious-consensus/conciliator/internal/sched"
	"github.com/oblivious-consensus/conciliator/internal/stats"
)

// mcFlags are the mc subcommand's own flags: millions of full consensus
// trials on the flat state-machine interpreter, aggregated by streaming
// integer histograms.
type mcFlags struct {
	spec    string
	n       int
	schedK  string
	jsonOut string
}

// protocols maps the -protocols spec to flat configurations. "all"
// expands to the three corollary protocols the flat engine supports.
func (f *mcFlags) protocols() ([]consensus.FlatConfig, error) {
	spec := f.spec
	if spec == "all" {
		spec = "sifter:register,sifter-half:register,priority-max:snapshot"
	}
	var cfgs []consensus.FlatConfig
	for _, tok := range strings.Split(spec, ",") {
		tok = strings.TrimSpace(tok)
		if tok == "" {
			continue
		}
		conc, ac, ok := strings.Cut(tok, ":")
		if !ok {
			return nil, fmt.Errorf("-protocols entry %q: want conciliator:adopt-commit (e.g. sifter:register)", tok)
		}
		cfgs = append(cfgs, consensus.FlatConfig{Conciliator: conc, AC: ac})
	}
	if len(cfgs) == 0 {
		return nil, fmt.Errorf("-protocols %q selects no protocols", f.spec)
	}
	return cfgs, nil
}

// mcRecord is the machine-readable Monte Carlo record written by -json.
type mcRecord struct {
	recordHeader           // schema "conciliator-mc/v1"
	N            int       `json:"n"`
	Trials       int64     `json:"trials"`
	Sched        string    `json:"sched"`
	Parallelism  int       `json:"parallelism"`
	WallSeconds  float64   `json:"total_wall_seconds"`
	Entries      []mcEntry `json:"entries"`
}

type mcEntry struct {
	ID          string  `json:"id"` // "mc/<conciliator>+<ac>"
	Trials      int64   `json:"trials"`
	Agreed      int64   `json:"agreed"`
	MeanSteps   float64 `json:"mean_steps"`
	P50         int64   `json:"p50"`
	P90         int64   `json:"p90"`
	P99         int64   `json:"p99"`
	P99Lo       int64   `json:"p99_lo"`
	P99Hi       int64   `json:"p99_hi"`
	P999        int64   `json:"p999"`
	MaxSteps    int64   `json:"max_steps"`
	PhasesMax   int64   `json:"phases_max"`
	TotalSteps  int64   `json:"total_steps"`
	WallSeconds float64 `json:"wall_seconds"`
	StepsPerSec float64 `json:"steps_per_sec"`
}

// runMC is the mc subcommand: one RunMonteCarlo sweep per selected
// protocol, a rendered table, and optionally the JSON record.
func runMC(args []string, out io.Writer) error {
	fs, sh := newFlagSet("mc", seedFlag|quickFlag|formatFlag|parallelFlag|trialsFlag)
	var f mcFlags
	fs.StringVar(&f.spec, "protocols", "all", "comma-separated conciliator:adopt-commit pairs, or all")
	fs.IntVar(&f.n, "n", 16, "processes per trial")
	fs.StringVar(&f.schedK, "sched", "random", "schedule kind driving the trials")
	fs.StringVar(&f.jsonOut, "json", "", "write a conciliator-mc/v1 JSON record of the sweep to this path")
	if err := sh.parse(fs, args); err != nil {
		return err
	}
	cfgs, err := f.protocols()
	if err != nil {
		return err
	}
	if f.n < 1 || sh.trials < 0 {
		return fmt.Errorf("-n and -trials must be positive")
	}
	trials := int64(sh.trials)
	if trials == 0 {
		trials = 1_000_000
		if sh.quick {
			trials = 20_000
		}
	}
	kind, ok := sched.KindByName(f.schedK)
	if !ok {
		return fmt.Errorf("unknown -sched %q", f.schedK)
	}
	parallel := sh.parallel
	if parallel < 1 {
		parallel = runtime.NumCPU()
	}
	rec := mcRecord{
		recordHeader: newHeader("conciliator-mc/v1", sh.seed),
		N:            f.n,
		Trials:       trials,
		Sched:        kind.String(),
		Parallelism:  parallel,
	}
	tbl := experiment.Table{
		ID:    "MC",
		Title: fmt.Sprintf("flat-engine Monte Carlo, n=%d, %d trials, %s schedule", f.n, trials, kind),
		Columns: []string{"protocol", "agree", "mean", "p50", "p90", "p99 [95% CI]", "p999", "max",
			"phases max", "Msteps/s"},
		Notes: []string{
			"Exact nearest-rank quantiles of per-process steps to decide over all trials;",
			"[lo, hi] is the distribution-free order-statistic ~95% CI (stats.IntHist).",
		},
	}
	start := time.Now()
	for i, cfg := range cfgs {
		res, err := consensus.RunMonteCarlo(consensus.MCConfig{
			N:       f.n,
			Trials:  trials,
			Flat:    cfg,
			Sched:   kind,
			Seed:    sh.seed + uint64(i),
			Workers: parallel,
		})
		if err != nil {
			return fmt.Errorf("mc %s:%s: %w", cfg.Conciliator, cfg.AC, err)
		}
		p99, p99lo, p99hi := res.Steps.QuantileCI(0.99)
		agree, _ := stats.Proportion(int(res.Agreed), int(res.Trials))
		tbl.AddRow(cfg.Conciliator+"+"+cfg.AC, agree,
			res.Steps.Mean(), res.Steps.Quantile(0.5), res.Steps.Quantile(0.9),
			fmt.Sprintf("%d [%d, %d]", p99, p99lo, p99hi),
			res.Steps.Quantile(0.999), res.Steps.Max(), res.Phases.Max(),
			res.StepsPerSec/1e6)
		rec.Entries = append(rec.Entries, mcEntry{
			ID:          "mc/" + cfg.Conciliator + "+" + cfg.AC,
			Trials:      res.Trials,
			Agreed:      res.Agreed,
			MeanSteps:   res.Steps.Mean(),
			P50:         res.Steps.Quantile(0.5),
			P90:         res.Steps.Quantile(0.9),
			P99:         p99,
			P99Lo:       p99lo,
			P99Hi:       p99hi,
			P999:        res.Steps.Quantile(0.999),
			MaxSteps:    res.Steps.Max(),
			PhasesMax:   res.Phases.Max(),
			TotalSteps:  res.TotalSteps,
			WallSeconds: res.Elapsed.Seconds(),
			StepsPerSec: res.StepsPerSec,
		})
	}
	render(out, sh.format, &tbl)
	if f.jsonOut != "" {
		rec.WallSeconds = time.Since(start).Seconds()
		if err := artifact.WriteJSON(f.jsonOut, rec); err != nil {
			return fmt.Errorf("writing mc record: %w", err)
		}
	}
	return nil
}

// Command consensusbench runs the paper-reproduction experiments and the
// sweeps behind them. Each run shape is a subcommand with its own flags:
//
//	consensusbench exp -list
//	consensusbench exp -experiment E4 -trials 200 -format markdown
//	consensusbench exp -all -quick
//	consensusbench mc -protocols all -n 16 -trials 5000
//	consensusbench des -n 10000 -trials 1
//	consensusbench attack -protocols all -json ATTACK_E19.json
//	consensusbench fault -kinds all -trials 10
//	consensusbench load -shards 1,4 -json svc.json
//	consensusbench replay ATTACK_E19_sifter.json
//
// "consensusbench <subcommand> -h" lists a subcommand's flags. Every run
// is deterministic in its seed and flags; see EXPERIMENTS.md for the
// interpretation of every table.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"strings"

	"github.com/oblivious-consensus/conciliator/internal/experiment"
)

// subcommands is the command table: one run shape per entry.
var subcommands = []struct {
	name, summary string
	run           func(args []string, out io.Writer) error
}{
	{"exp", "experiment tables E1-E21, bench and metrics records", runExp},
	{"mc", "flat-engine Monte Carlo sweep", runMC},
	{"des", "discrete-event message-passing sweep, optionally under crash chaos", runDES},
	{"attack", "oblivious adversary search", runAttack},
	{"fault", "fault-injection matrix with counterexample shrinking", runFault},
	{"load", "consensus-as-a-service load generator", runLoad},
	{"replay", "replay a committed artifact: replay <file>", runReplay},
}

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "consensusbench:", err)
		os.Exit(1)
	}
}

func run(args []string, out io.Writer) error {
	if len(args) == 0 {
		return fmt.Errorf("missing subcommand\n%s", usage())
	}
	for _, c := range subcommands {
		if c.name == args[0] {
			return c.run(args[1:], out)
		}
	}
	return fmt.Errorf("unknown subcommand %q\n%s", args[0], usage())
}

func usage() string {
	var b strings.Builder
	b.WriteString("usage: consensusbench <subcommand> [flags]\n\nsubcommands:\n")
	for _, c := range subcommands {
		fmt.Fprintf(&b, "  %-7s %s\n", c.name, c.summary)
	}
	b.WriteString("\nrun \"consensusbench <subcommand> -h\" for a subcommand's flags")
	return b.String()
}

// defaultSeed is the documented master seed a zero -seed resolves to.
const defaultSeed = 20120716

// The flags more than one subcommand reads. Each subcommand registers
// only the ones it uses, so a flag its mode would ignore is an
// unknown-flag error rather than a silent no-op.
const (
	seedFlag = 1 << iota
	quickFlag
	formatFlag
	parallelFlag
	trialsFlag
)

type sharedFlags struct {
	seed     uint64
	quick    bool
	format   string
	parallel int
	trials   int
}

// newFlagSet returns the named subcommand's FlagSet with the shared flags
// in mask registered.
func newFlagSet(name string, mask int) (*flag.FlagSet, *sharedFlags) {
	fs := flag.NewFlagSet("consensusbench "+name, flag.ContinueOnError)
	sh := &sharedFlags{format: "text"}
	if mask&seedFlag != 0 {
		fs.Uint64Var(&sh.seed, "seed", 0, "master seed (0 = default 20120716)")
	}
	if mask&quickFlag != 0 {
		fs.BoolVar(&sh.quick, "quick", false, "small sweeps for a fast smoke run")
	}
	if mask&formatFlag != 0 {
		fs.StringVar(&sh.format, "format", "text", "output format: text, markdown, or tsv")
	}
	if mask&parallelFlag != 0 {
		fs.IntVar(&sh.parallel, "parallel", 0, "workers (0 = NumCPU); results are identical for any value")
	}
	if mask&trialsFlag != 0 {
		fs.IntVar(&sh.trials, "trials", 0, "trials per configuration (0 = the mode's default)")
	}
	return fs, sh
}

// parse parses a subcommand's arguments and validates the shared flags
// before any work runs: a typo must not burn a minutes-long sweep first.
func (sh *sharedFlags) parse(fs *flag.FlagSet, args []string) error {
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() != 0 {
		return fmt.Errorf("%s: unexpected arguments %q", fs.Name(), fs.Args())
	}
	switch sh.format {
	case "text", "markdown", "tsv":
	default:
		return fmt.Errorf("unknown format %q (want text, markdown, or tsv)", sh.format)
	}
	if sh.seed == 0 {
		sh.seed = defaultSeed
	}
	return nil
}

// render writes tbl in a format sharedFlags.parse accepted.
func render(out io.Writer, format string, tbl *experiment.Table) {
	switch format {
	case "markdown":
		fmt.Fprintln(out, tbl.Markdown())
	case "tsv":
		fmt.Fprintf(out, "# %s: %s\n%s\n", tbl.ID, tbl.Title, tbl.TSV())
	default:
		fmt.Fprintln(out, tbl.Text())
	}
}

// recordHeader is the provenance every JSON record of this command
// starts with: the schema, the resolved master seed (omitted by records
// no seed drives), and the host shape the baseline gate compares.
type recordHeader struct {
	Schema     string `json:"schema"`
	Seed       uint64 `json:"seed,omitempty"`
	GOOS       string `json:"goos"`
	GOARCH     string `json:"goarch"`
	NumCPU     int    `json:"num_cpu"`
	GOMAXPROCS int    `json:"gomaxprocs,omitempty"`
}

func newHeader(schema string, seed uint64) recordHeader {
	return recordHeader{
		Schema:     schema,
		Seed:       seed,
		GOOS:       runtime.GOOS,
		GOARCH:     runtime.GOARCH,
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
	}
}

// writeJSON writes v to path as indented JSON with a trailing newline.
func writeJSON(path string, v any) error {
	data, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// regressionTolerance is how far below its baseline a gated rate may
// fall before compareBaseline fails the run.
const regressionTolerance = 0.9

// rate is one gated throughput figure of this run.
type rate struct {
	id string
	v  float64
}

// compareBaseline gates this run's rates whose ids start with prefix
// against the committed record at path: steps/s of a bench or concurrent
// record ("experiments"), writes/s of a service record ("entries"). It
// prints one line per rate and fails if any fell below
// regressionTolerance of its baseline. Ids absent from the baseline are
// reported and skipped, so new workloads can land before the baseline is
// refreshed.
func compareBaseline(out io.Writer, path, prefix, unit string, got []rate) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return fmt.Errorf("reading baseline: %w", err)
	}
	var base struct {
		recordHeader
		Experiments []benchEntry   `json:"experiments"`
		Entries     []serviceEntry `json:"entries"`
	}
	if err := json.Unmarshal(data, &base); err != nil {
		return fmt.Errorf("parsing baseline %s: %w", path, err)
	}
	// Throughput is a property of the measuring host: a record taken on a
	// 1-CPU runner says nothing about a 16-core laptop, and gating on the
	// comparison would pass or fail meaninglessly. Skip (loudly) when the
	// host shape differs from the record's; a zero field means an older
	// record that never captured the value, which can't be checked.
	if (base.NumCPU != 0 && base.NumCPU != runtime.NumCPU()) ||
		(base.GOMAXPROCS != 0 && base.GOMAXPROCS != runtime.GOMAXPROCS(0)) {
		fmt.Fprintf(out, "baseline: skipping %s: baseline host (num_cpu=%d, gomaxprocs=%d) does not match this host (num_cpu=%d, gomaxprocs=%d); %s are not comparable across hosts\n",
			path, base.NumCPU, base.GOMAXPROCS, runtime.NumCPU(), runtime.GOMAXPROCS(0), unit)
		return nil
	}
	baseline := make(map[string]float64, len(base.Experiments)+len(base.Entries))
	for _, e := range base.Experiments {
		baseline[e.ID] = e.StepsPerSec
	}
	for _, e := range base.Entries {
		baseline[e.ID] = e.WriteThroughput
	}
	var failures []string
	compared := 0
	for _, g := range got {
		if !strings.HasPrefix(g.id, prefix) {
			continue
		}
		b := baseline[g.id]
		if b <= 0 {
			fmt.Fprintf(out, "baseline: %-32s no baseline entry, skipped\n", g.id)
			continue
		}
		compared++
		ratio := g.v / b
		fmt.Fprintf(out, "baseline: %-32s %11.0f %s vs %11.0f baseline (%+.1f%%)\n",
			g.id, g.v, unit, b, (ratio-1)*100)
		if ratio < regressionTolerance {
			failures = append(failures, fmt.Sprintf("%s (%.1f%% of baseline)", g.id, ratio*100))
		}
	}
	if compared == 0 {
		return fmt.Errorf("baseline: %s has no entries for this run's %s* ids", path, prefix)
	}
	if len(failures) > 0 {
		return fmt.Errorf("baseline: %s regressed more than %d%%: %s",
			unit, int((1-regressionTolerance)*100), strings.Join(failures, ", "))
	}
	return nil
}

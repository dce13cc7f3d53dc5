package main

import (
	"bytes"
	"fmt"
	"io"
	"path/filepath"
	"strings"

	"github.com/oblivious-consensus/conciliator/internal/attack/search"
	"github.com/oblivious-consensus/conciliator/internal/experiment"
)

// attackFlags are the attack subcommand's own flags.
type attackFlags struct {
	spec    string // -protocols: protocols to search, comma-separated or "all"
	jsonOut string // -json: write attack-record/v1 artifacts
	n       int    // -n
	budget  int    // -budget
	faults  bool   // -faults
}

// validate parses and checks every flag value, returning the resolved
// protocol list.
func (f *attackFlags) validate(trials int) ([]string, error) {
	var protocols []string
	if f.spec == "all" {
		protocols = search.Protocols()
	} else {
		known := make(map[string]bool)
		for _, p := range search.Protocols() {
			known[p] = true
		}
		for _, s := range strings.Split(f.spec, ",") {
			s = strings.TrimSpace(s)
			if s == "" {
				continue
			}
			if !known[s] {
				return nil, fmt.Errorf("-protocols: unknown protocol %q (want all, %s)", s, strings.Join(search.Protocols(), ", "))
			}
			protocols = append(protocols, s)
		}
		if len(protocols) == 0 {
			return nil, fmt.Errorf("-protocols: no protocols in %q", f.spec)
		}
	}
	if f.n < 0 || f.n == 1 || f.n > 64 {
		return nil, fmt.Errorf("-n: %d outside [2, 64]", f.n)
	}
	if f.budget < 0 {
		return nil, fmt.Errorf("-budget: %d must be positive", f.budget)
	}
	if trials < 0 {
		return nil, fmt.Errorf("-trials: %d must be positive", trials)
	}
	return protocols, nil
}

// attackArtifactPath derives the per-protocol artifact path from the
// -json base: "dir/ATTACK.json" becomes "dir/ATTACK_sifter.json".
// With a single protocol the base path is used as given.
func attackArtifactPath(base, protocol string, multi bool) string {
	if !multi {
		return base
	}
	ext := filepath.Ext(base)
	return strings.TrimSuffix(base, ext) + "_" + protocol + ext
}

// runAttack is the attack subcommand: one search per requested
// protocol, a result table, and optionally one committed attack-record/v1
// artifact per protocol. Deterministic in (seed, flags); -parallel only
// changes wall-clock time.
func runAttack(args []string, out io.Writer) error {
	fs, sh := newFlagSet("attack", seedFlag|quickFlag|formatFlag|parallelFlag|trialsFlag)
	var af attackFlags
	fs.StringVar(&af.spec, "protocols", "all", "protocols to search, comma-separated (all, sifter, priority)")
	fs.StringVar(&af.jsonOut, "json", "", "write an attack-record/v1 artifact per searched protocol (multi-protocol runs insert _<protocol> before the extension)")
	fs.IntVar(&af.n, "n", 0, "processes per searched schedule (0 = default 8, quick 4)")
	fs.IntVar(&af.budget, "budget", 0, "candidate evaluations per search (0 = default 64, quick 16)")
	fs.BoolVar(&af.faults, "faults", false, "let the search add stutter/stall fault-schedule components to candidates")
	if err := sh.parse(fs, args); err != nil {
		return err
	}
	protocols, err := af.validate(sh.trials)
	if err != nil {
		return err
	}
	n, budget, trials := af.n, af.budget, sh.trials
	if n == 0 {
		n = 8
		if sh.quick {
			n = 4
		}
	}
	if budget == 0 {
		budget = 64
		if sh.quick {
			budget = 16
		}
	}
	if trials == 0 {
		trials = 4
		if sh.quick {
			trials = 2
		}
	}

	tbl := experiment.Table{
		ID:      "ATTACK",
		Title:   fmt.Sprintf("oblivious adversary search (n=%d, budget=%d evaluations, %d trials/candidate)", n, budget, trials),
		Columns: []string{"protocol", "evaluations", "round-robin steps", "best oblivious steps", "white-box steps", "phases best/wb", "undecided"},
		Notes: []string{
			"Steps are mean max individual steps to decision on fresh " +
				"confirmation seeds. The white-box column grafts the " +
				"coin-aware phase-1 freeze onto the winner's own schedule " +
				"and must dominate the oblivious column (Section 1.1).",
		},
	}
	for _, protocol := range protocols {
		res, err := search.Search(search.Config{
			Protocol:    protocol,
			N:           n,
			Seed:        sh.seed,
			Budget:      budget,
			EvalTrials:  trials,
			Faults:      af.faults,
			Parallelism: sh.parallel,
		})
		if err != nil {
			return fmt.Errorf("attack search %s: %w", protocol, err)
		}
		tbl.AddRow(
			protocol,
			res.Evaluations,
			res.Baselines["round-robin"].StepsMean,
			res.Confirm.StepsMean,
			res.WhiteBox.StepsMean,
			fmt.Sprintf("%.1f/%.1f", res.Confirm.PhasesMean, res.WhiteBox.PhasesMean),
			res.Confirm.Undecided,
		)
		if af.jsonOut != "" {
			path := attackArtifactPath(af.jsonOut, protocol, len(protocols) > 1)
			if err := search.NewRecord(res).Save(path); err != nil {
				return fmt.Errorf("writing attack record: %w", err)
			}
			fmt.Fprintf(out, "attack: wrote %s\n", path)
		}
	}

	render(out, sh.format, &tbl)
	return nil
}

// runAttackReplay re-runs a committed artifact's search from its recorded
// configuration and verifies the regenerated artifact is byte-identical —
// the CI check that committed attack records have not rotted.
func runAttackReplay(out io.Writer, path string, parallel int) error {
	rec, err := search.LoadRecord(path)
	if err != nil {
		return fmt.Errorf("replay: %w", err)
	}
	want, err := rec.Encode()
	if err != nil {
		return fmt.Errorf("replay: %w", err)
	}
	fresh, err := search.Replay(rec, parallel)
	if err != nil {
		return fmt.Errorf("replay: %w", err)
	}
	got, err := fresh.Encode()
	if err != nil {
		return fmt.Errorf("replay: %w", err)
	}
	if !bytes.Equal(got, want) {
		return fmt.Errorf("replay: %s did not replay byte-identically: the search or its schedule family changed; regenerate with consensusbench attack -json", path)
	}
	fmt.Fprintf(out, "replay: %s replayed byte-identically (protocol=%s n=%d evaluations=%d best=%.2f whitebox=%.2f)\n",
		path, rec.Protocol, rec.N, rec.Evaluations, rec.Confirm.StepsMean, rec.WhiteBox.StepsMean)
	return nil
}

package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestList(t *testing.T) {
	var b strings.Builder
	if err := run([]string{"exp", "-list"}, &b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, id := range []string{"E1", "E7", "E14"} {
		if !strings.Contains(out, id) {
			t.Errorf("list missing %s", id)
		}
	}
	if !strings.Contains(out, "claim:") {
		t.Error("list missing claims")
	}
}

func TestRunSingleExperimentText(t *testing.T) {
	var b strings.Builder
	if err := run([]string{"exp", "-experiment", "E3", "-quick"}, &b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	if !strings.Contains(out, "E3") || !strings.Contains(out, "log* n") {
		t.Errorf("unexpected output:\n%s", out)
	}
}

func TestLowercaseIDAccepted(t *testing.T) {
	var b strings.Builder
	if err := run([]string{"exp", "-experiment", "e3", "-quick"}, &b); err != nil {
		t.Fatal(err)
	}
}

func TestFormats(t *testing.T) {
	for _, format := range []string{"text", "markdown", "tsv"} {
		format := format
		t.Run(format, func(t *testing.T) {
			var b strings.Builder
			if err := run([]string{"exp", "-experiment", "E6", "-quick", "-format", format}, &b); err != nil {
				t.Fatal(err)
			}
			if b.Len() == 0 {
				t.Fatal("empty output")
			}
		})
	}
}

func TestMarkdownFormatShape(t *testing.T) {
	var b strings.Builder
	if err := run([]string{"exp", "-experiment", "E6", "-quick", "-format", "markdown"}, &b); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(b.String(), "| n |") {
		t.Errorf("markdown table header missing:\n%s", b.String())
	}
}

func TestTimingsFlag(t *testing.T) {
	var b strings.Builder
	if err := run([]string{"exp", "-experiment", "E6", "-quick", "-timings"}, &b); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(b.String(), "took") {
		t.Error("timings missing")
	}
}

func TestErrors(t *testing.T) {
	tests := []struct {
		name string
		args []string
	}{
		{name: "no action", args: []string{"exp"}},
		{name: "unknown experiment", args: []string{"exp", "-experiment", "E99"}},
		{name: "unknown format", args: []string{"exp", "-experiment", "E6", "-quick", "-format", "xml"}},
		{name: "bad flag", args: []string{"exp", "-nope"}},
		{name: "positional argument", args: []string{"exp", "-all", "E3"}},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			var b strings.Builder
			if err := run(tt.args, &b); err == nil {
				t.Error("expected error")
			}
		})
	}
}

func TestCommaSeparatedExperiments(t *testing.T) {
	var b strings.Builder
	if err := run([]string{"exp", "-experiment", "E3, e6", "-quick"}, &b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	if !strings.Contains(out, "E3") || !strings.Contains(out, "E6") {
		t.Errorf("expected both experiments in output:\n%s", out)
	}
}

func TestCommaSeparatedEmpty(t *testing.T) {
	var b strings.Builder
	if err := run([]string{"exp", "-experiment", " , "}, &b); err == nil {
		t.Error("expected error for empty id list")
	}
}

func TestFormatValidatedBeforeRunning(t *testing.T) {
	// A bad -format must fail before any experiment runs: the error
	// arrives with nothing written, rather than after a minutes-long
	// suite has already printed its tables.
	var b strings.Builder
	err := run([]string{"exp", "-all", "-format", "jsn"}, &b)
	if err == nil {
		t.Fatal("expected error for unknown format")
	}
	if !strings.Contains(err.Error(), "jsn") {
		t.Errorf("error does not name the bad format: %v", err)
	}
	if b.Len() != 0 {
		t.Errorf("output written before format validation: %q", b.String())
	}
}

func TestParallelFlagDeterministic(t *testing.T) {
	// Identical seed => byte-identical tables regardless of -parallel.
	render := func(parallel string) string {
		var b strings.Builder
		if err := run([]string{"exp", "-experiment", "E3", "-quick", "-parallel", parallel}, &b); err != nil {
			t.Fatal(err)
		}
		return b.String()
	}
	if one, many := render("1"), render("7"); one != many {
		t.Errorf("output differs between -parallel 1 and -parallel 7:\n%s\n---\n%s", one, many)
	}
}

func TestMetricsJSONSchemaAndReconciliation(t *testing.T) {
	// E6 is the sifter experiment: every one of its shared-memory steps
	// is a register operation, so three independent views of the same
	// execution must agree exactly — the simulator's step counter, the
	// memory layer's per-object op counters, and the conciliator layer's
	// phase attribution.
	path := filepath.Join(t.TempDir(), "metrics.json")
	var b strings.Builder
	if err := run([]string{"exp", "-experiment", "E6", "-quick", "-metrics-json", path}, &b); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var rec metricsRecord
	if err := json.Unmarshal(data, &rec); err != nil {
		t.Fatalf("invalid JSON: %v", err)
	}
	if rec.Schema != "conciliator-metrics/v1" {
		t.Errorf("schema = %q", rec.Schema)
	}
	if rec.Seed == 0 || rec.Parallelism == 0 {
		t.Errorf("defaults not recorded: seed=%d parallelism=%d", rec.Seed, rec.Parallelism)
	}
	if len(rec.Experiments) != 1 || rec.Experiments[0].ID != "E6" {
		t.Fatalf("experiments = %+v", rec.Experiments)
	}

	tot := rec.Totals
	steps := tot.Counters["sim.steps"]
	if steps <= 0 {
		t.Fatalf("sim.steps = %d", steps)
	}
	if memOps := tot.SumCounters("memory.register.", "memory.snapshot.update", "memory.snapshot.scan",
		"memory.maxreg.read", "memory.maxreg.write"); memOps != steps {
		t.Errorf("memory op counters = %d, sim.steps = %d", memOps, steps)
	}
	if sift := tot.Counters["conciliator.sifter.write_steps"] + tot.Counters["conciliator.sifter.read_steps"]; sift != steps {
		t.Errorf("sifter phase steps = %d, sim.steps = %d", sift, steps)
	}

	// The per-experiment delta must carry the same counters (one
	// experiment ran, so delta == totals for counters it moved) and the
	// histograms must have observations consistent with their counts.
	d := rec.Experiments[0].Metrics
	if d.Counters["sim.steps"] != steps {
		t.Errorf("delta sim.steps = %d, totals = %d", d.Counters["sim.steps"], steps)
	}
	perProc, ok := d.Histograms["conciliator.sifter.steps_per_proc"]
	if !ok || perProc.Count == 0 {
		t.Fatalf("missing sifter per-proc histogram: %+v", d.Histograms)
	}
	if perProc.Sum != steps {
		t.Errorf("per-proc histogram sum = %d, sim.steps = %d", perProc.Sum, steps)
	}
	var bucketTotal int64
	for _, bk := range perProc.Buckets {
		bucketTotal += bk.Count
	}
	if bucketTotal != perProc.Count {
		t.Errorf("bucket counts sum to %d, histogram count = %d", bucketTotal, perProc.Count)
	}
	if lat, ok := d.Histograms["sim.step_latency_ns"]; !ok || lat.Count == 0 {
		t.Errorf("missing step-latency histogram: %+v", d.Histograms)
	}
	if runs := d.Counters["sim.runs"]; runs <= 0 {
		t.Errorf("sim.runs = %d", runs)
	}
}

func TestMetricsTableFlag(t *testing.T) {
	var b strings.Builder
	if err := run([]string{"exp", "-experiment", "E6", "-quick", "-metrics"}, &b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{"metrics:", "sim.steps", "memory.register.read", "conciliator.sifter.steps_per_proc"} {
		if !strings.Contains(out, want) {
			t.Errorf("metrics table missing %q:\n%s", want, out)
		}
	}
}

func TestDebugAddrFlag(t *testing.T) {
	var b strings.Builder
	if err := run([]string{"exp", "-experiment", "E6", "-quick", "-debug-addr", "127.0.0.1:0"}, &b); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(b.String(), "debug server on http://") {
		t.Errorf("bound debug address not reported:\n%s", b.String())
	}
}

func TestBenchJSON(t *testing.T) {
	path := filepath.Join(t.TempDir(), "bench.json")
	var b strings.Builder
	if err := run([]string{"exp", "-experiment", "E3,E6", "-quick", "-bench-json", path}, &b); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var rec benchRecord
	if err := json.Unmarshal(data, &rec); err != nil {
		t.Fatalf("invalid JSON: %v", err)
	}
	if rec.Schema != "conciliator-bench/v1" {
		t.Errorf("schema = %q", rec.Schema)
	}
	if rec.Seed == 0 || rec.Parallelism == 0 {
		t.Errorf("defaults not recorded: seed=%d parallelism=%d", rec.Seed, rec.Parallelism)
	}
	// Two experiment entries plus the controlled-steps and flat-steps
	// microbenchmark entries the baseline gate compares against.
	var expEntries, ctrlEntries, flatEntries int
	for _, e := range rec.Experiments {
		switch {
		case strings.HasPrefix(e.ID, "controlled-steps/"):
			ctrlEntries++
		case strings.HasPrefix(e.ID, "flat-steps/"):
			flatEntries++
		default:
			expEntries++
		}
		if e.ID == "" || e.Steps <= 0 || e.Slots <= 0 {
			t.Errorf("degenerate entry: %+v", e)
		}
		if e.WallSeconds > 0 && e.StepsPerSec <= 0 {
			t.Errorf("steps/sec not computed: %+v", e)
		}
	}
	if expEntries != 2 {
		t.Fatalf("got %d experiment entries, want 2", expEntries)
	}
	if ctrlEntries != 4 {
		t.Fatalf("got %d controlled-steps entries, want 4", ctrlEntries)
	}
	if flatEntries != 4 {
		t.Fatalf("got %d flat-steps entries, want 4", flatEntries)
	}
}

func TestBenchBaselineGate(t *testing.T) {
	// Produce a record with this very binary, then doctor its numbers in
	// both directions. Comparing a fresh measurement against an unmodified
	// record of the same machine would race against timing noise (the
	// race detector alone can swing throughput well past the tolerance),
	// so the pass case deflates the baseline and the fail case inflates
	// it far beyond what any machine can recover.
	path := filepath.Join(t.TempDir(), "bench.json")
	var b strings.Builder
	if err := run([]string{"exp", "-experiment", "E3", "-quick", "-bench-json", path}, &b); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var rec benchRecord
	if err := json.Unmarshal(data, &rec); err != nil {
		t.Fatal(err)
	}
	doctor := func(name string, factor float64) string {
		scaled := rec
		scaled.Experiments = make([]benchEntry, len(rec.Experiments))
		copy(scaled.Experiments, rec.Experiments)
		for i := range scaled.Experiments {
			scaled.Experiments[i].StepsPerSec *= factor
		}
		out, err := json.Marshal(scaled)
		if err != nil {
			t.Fatal(err)
		}
		p := filepath.Join(t.TempDir(), name)
		if err := os.WriteFile(p, out, 0o644); err != nil {
			t.Fatal(err)
		}
		return p
	}

	b.Reset()
	if err := run([]string{"exp", "-experiment", "E3", "-quick", "-bench-baseline", doctor("deflated.json", 1e-3)}, &b); err != nil {
		t.Fatalf("gate failed against a deflated baseline: %v\n%s", err, b.String())
	}
	if !strings.Contains(b.String(), "baseline: controlled-steps/round-robin/n=8") {
		t.Errorf("comparison lines not printed:\n%s", b.String())
	}

	b.Reset()
	err = run([]string{"exp", "-experiment", "E3", "-quick", "-bench-baseline", doctor("inflated.json", 1e3)}, &b)
	if err == nil || !strings.Contains(err.Error(), "regressed") {
		t.Fatalf("gate did not fail against inflated baseline: %v", err)
	}
}

func TestBenchBaselineWithoutControlledEntries(t *testing.T) {
	// A baseline without controlled-steps entries (e.g. a pre-upgrade
	// record) is an error, not a silent pass.
	stale := filepath.Join(t.TempDir(), "stale.json")
	if err := os.WriteFile(stale, []byte(`{"schema":"conciliator-bench/v1","experiments":[{"id":"E1","steps_per_sec":1}]}`), 0o644); err != nil {
		t.Fatal(err)
	}
	var b strings.Builder
	err := run([]string{"exp", "-experiment", "E3", "-quick", "-bench-baseline", stale}, &b)
	if err == nil || !strings.Contains(err.Error(), "has no entries for this run's controlled-steps/* ids") {
		t.Fatalf("expected no-entries error, got: %v", err)
	}
}

func TestBenchConcurrentJSON(t *testing.T) {
	// The concurrent sweep runs standalone: no -experiment/-all needed.
	path := filepath.Join(t.TempDir(), "conc.json")
	var b strings.Builder
	if err := run([]string{"exp", "-bench-concurrent-json", path}, &b); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var rec concurrentRecord
	if err := json.Unmarshal(data, &rec); err != nil {
		t.Fatalf("invalid JSON: %v", err)
	}
	if rec.Schema != "conciliator-concurrent-bench/v1" {
		t.Errorf("schema = %q", rec.Schema)
	}
	if rec.NumCPU <= 0 || rec.GOMAXPROCS <= 0 || rec.OpsPerProc != concurrentOpsPerProc {
		t.Errorf("environment not recorded: %+v", rec)
	}
	wantEntries := 2 * len(concurrentSizes) // lock-free and locked per n
	if len(rec.Experiments) != wantEntries {
		t.Fatalf("got %d entries, want %d", len(rec.Experiments), wantEntries)
	}
	wantSteps := int64(concurrentStepsRuns * concurrentOpsPerProc * 4)
	for _, e := range rec.Experiments {
		var n int
		if _, err := fmt.Sscanf(e.ID[strings.LastIndex(e.ID, "n=")+2:], "%d", &n); err != nil {
			t.Fatalf("unparseable entry id %q", e.ID)
		}
		if e.Steps != wantSteps*int64(n) {
			t.Errorf("%s: %d steps, want %d", e.ID, e.Steps, wantSteps*int64(n))
		}
		if e.WallSeconds > 0 && e.StepsPerSec <= 0 {
			t.Errorf("%s: steps/sec not computed", e.ID)
		}
	}
	for _, n := range concurrentSizes {
		if _, ok := rec.SpeedupVsLocked[fmt.Sprintf("n=%d", n)]; !ok {
			t.Errorf("speedup_vs_locked missing n=%d", n)
		}
	}
	if !strings.Contains(b.String(), "concurrent-steps/lock-free/n=8") {
		t.Errorf("sweep lines not printed:\n%s", b.String())
	}
}

func TestBenchConcurrentBaselineGate(t *testing.T) {
	// Same doctored-baseline shape as TestBenchBaselineGate: deflated
	// passes, inflated fails, so the assertions are immune to timing
	// noise on the measuring machine.
	path := filepath.Join(t.TempDir(), "conc.json")
	var b strings.Builder
	if err := run([]string{"exp", "-bench-concurrent-json", path}, &b); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var rec concurrentRecord
	if err := json.Unmarshal(data, &rec); err != nil {
		t.Fatal(err)
	}
	doctor := func(name string, factor float64) string {
		scaled := rec
		scaled.Experiments = make([]benchEntry, len(rec.Experiments))
		copy(scaled.Experiments, rec.Experiments)
		for i := range scaled.Experiments {
			scaled.Experiments[i].StepsPerSec *= factor
		}
		out, err := json.Marshal(scaled)
		if err != nil {
			t.Fatal(err)
		}
		p := filepath.Join(t.TempDir(), name)
		if err := os.WriteFile(p, out, 0o644); err != nil {
			t.Fatal(err)
		}
		return p
	}

	b.Reset()
	if err := run([]string{"exp", "-bench-concurrent-baseline", doctor("deflated.json", 1e-3)}, &b); err != nil {
		t.Fatalf("gate failed against a deflated baseline: %v\n%s", err, b.String())
	}
	b.Reset()
	err = run([]string{"exp", "-bench-concurrent-baseline", doctor("inflated.json", 1e3)}, &b)
	if err == nil || !strings.Contains(err.Error(), "regressed") {
		t.Fatalf("gate did not fail against inflated baseline: %v", err)
	}
}

// TestUsage: a missing or unknown subcommand, including a bare flag of
// the old single-FlagSet interface, fails with the subcommand list.
func TestUsage(t *testing.T) {
	for _, args := range [][]string{nil, {"bogus"}, {"-all"}, {"-all", "-quick"}} {
		t.Run(fmt.Sprint(args), func(t *testing.T) {
			var b strings.Builder
			err := run(args, &b)
			if err == nil {
				t.Fatalf("run(%q) succeeded", args)
			}
			for _, c := range subcommands {
				if !strings.Contains(err.Error(), "  "+c.name+" ") {
					t.Errorf("usage does not list %q:\n%v", c.name, err)
				}
			}
			if b.Len() != 0 {
				t.Errorf("output written: %q", b.String())
			}
		})
	}
	if len(subcommands) != 7 {
		t.Errorf("%d subcommands, want exp, mc, des, attack, fault, load, replay", len(subcommands))
	}
}

// unknownFlag is the flag package's error for a flag the subcommand does
// not register: how a flag of another mode is rejected.
const unknownFlag = "flag provided but not defined"

// TestFlagsBelongToOneMode: each subcommand registers only the flags its
// mode reads, so a flag of another mode, or a shared flag the mode would
// ignore, is an unknown-flag error before any work runs.
func TestFlagsBelongToOneMode(t *testing.T) {
	for _, args := range [][]string{
		{"exp", "-all", "-json", "x.json"},
		{"mc", "-all"},
		{"mc", "-bench-json", "x.json"},
		{"des", "-experiment", "E18"},
		{"des", "-quick"},
		{"des", "-parallel", "2"},
		{"attack", "-crash", "proc:0.2"},
		{"attack", "-bench-baseline", "b.json"},
		{"fault", "-format", "markdown"},
		{"fault", "-list"},
		{"load", "-trials", "3"},
		{"load", "-parallel", "2"},
		{"replay", "-n", "8", "r.json"},
		{"replay", "-seed", "3", "r.json"},
	} {
		var b strings.Builder
		err := run(args, &b)
		if err == nil || !strings.Contains(err.Error(), unknownFlag) {
			t.Errorf("run(%q) = %v, want an unknown-flag error", args, err)
		}
	}
}

// TestBenchConcurrentConflictsWithFaults: the concurrent-substrate sweep
// and the fault sweep belong to different subcommands, so neither accepts
// the other's flag.
func TestBenchConcurrentConflictsWithFaults(t *testing.T) {
	for _, args := range [][]string{
		{"fault", "-kinds", "all", "-bench-concurrent-json", "x.json"},
		{"exp", "-bench-concurrent-json", "x.json", "-kinds", "all"},
	} {
		var b strings.Builder
		err := run(args, &b)
		if err == nil || !strings.Contains(err.Error(), unknownFlag) {
			t.Errorf("run(%q) = %v, want an unknown-flag error", args, err)
		}
		if b.Len() != 0 {
			t.Errorf("run(%q) wrote output: %q", args, b.String())
		}
	}
}

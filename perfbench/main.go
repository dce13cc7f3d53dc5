// Command perfbench is the repository benchmark: one process that runs a
// named workload against the service, simulator and DES layers, checks
// the outputs, and prints every metric by name with its unit.
//
//	go run . --workload kv-http --seed 1 --seconds 10 --trace 0
//
// With --trace 0 the workload is timed with no instrumentation and the
// last line of standard output carries the end-to-end metrics. With
// --trace 1 the named workload runs plain and then traced (spans around
// each call into a layer, the internal/metrics registry, a CPU profile),
// every other workload runs one traced pass, and the last line carries
// the per-layer metrics. Spans and the full result record are written
// under .bench_out.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"io/fs"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"time"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// workloadOrder lists the workloads; traced runs execute them in this
// order so every per-layer metric is present whatever --workload names.
var workloadOrder = []string{"kv-http", "kv-open", "trials", "des"}

var workloadFuncs = map[string]func(*env) (*outcome, error){
	"kv-http": runKVHTTP,
	"kv-open": runKVOpen,
	"trials":  runTrials,
	"des":     runDES,
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	workload := fs.String("workload", "", "workload to run: kv-http, kv-open, trials or des")
	seed := fs.Uint64("seed", 1, "workload seed; every generated input is a pure function of it")
	seconds := fs.Int("seconds", 10, "measurement time in seconds")
	trace := fs.Int("trace", 0, "1 runs the traced pass and reports per-layer metrics")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if _, ok := workloadFuncs[*workload]; !ok {
		fmt.Fprintf(stderr, "perfbench: unknown workload %q (want one of %v)\n", *workload, workloadOrder)
		return 2
	}
	if *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(stderr, "perfbench: --seconds must be >= 1 and --trace 0 or 1")
		return 2
	}
	budget := time.Duration(*seconds) * time.Second
	prov := provenance(*workload, *seed, *trace == 1)

	var res *result
	var err error
	if *trace == 1 {
		res, err = runTraced(*workload, *seed, budget)
	} else {
		res, err = runPlain(*workload, *seed, budget)
	}
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", *workload, err)
		return 1
	}
	res.Provenance = prov
	if err := checkDeclared(res, "BENCHMARK.json"); err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	if err := writeRecord(res); err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	for _, line := range res.Notes {
		fmt.Fprintln(stderr, line)
	}
	for _, p := range res.Problems {
		fmt.Fprintln(stderr, "check failed:", p)
	}
	pj, _ := json.Marshal(prov)
	fmt.Fprintf(stdout, "provenance %s\n", pj)
	last, err := json.Marshal(res.summary())
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n", last)
	return 0
}

// runPlain runs one workload untraced and reports its end-to-end metrics.
func runPlain(name string, seed uint64, budget time.Duration) (*result, error) {
	o, err := workloadFuncs[name](&env{seed: seed, budget: budget})
	if err != nil {
		return nil, err
	}
	res := newResult(name, seed, false)
	res.add(o)
	res.Metrics = o.endToEnd()
	return res, nil
}

// runTraced runs the named workload plain and then traced, with the same
// inputs and budget, and reports the tracing overhead as the relative
// change of its end-to-end figures. It then runs a traced pass of every
// other workload, so the per-layer metrics of all layers are present
// whichever workload is named.
func runTraced(first string, seed uint64, budget time.Duration) (*result, error) {
	per := budget / time.Duration(len(workloadOrder)+1)
	res := newResult(first, seed, true)
	res.Metrics = map[string]metric{}
	prof := newProfileShares()
	self := selfTimes{}
	var spans []span

	plain, err := workloadFuncs[first](&env{seed: seed, budget: per})
	if err != nil {
		return nil, fmt.Errorf("%s plain pass: %w", first, err)
	}
	res.add(plain)
	res.UntracedE2E[first] = plain.endToEnd()
	order := []string{first}
	for _, w := range workloadOrder {
		if w != first {
			order = append(order, w)
		}
	}
	for _, name := range order {
		tr := newTracer(name)
		stopProfile, err := prof.start()
		if err != nil {
			return nil, err
		}
		enableRegistry(true)
		traced, err := workloadFuncs[name](&env{seed: seed, budget: per, tr: tr})
		enableRegistry(false)
		if perr := stopProfile(); perr != nil && err == nil {
			err = perr
		}
		if err != nil {
			return nil, fmt.Errorf("%s traced pass: %w", name, err)
		}
		res.add(traced)
		res.TracedE2E[name] = traced.endToEnd()
		for k, m := range traced.layer {
			res.Metrics[k] = m
		}
		self.add(tr)
		spans = append(spans, tr.spans()...)
		if tr.dropped > 0 {
			res.Notes = append(res.Notes, fmt.Sprintf("%s: %d spans beyond the tracer's limit were not kept", name, tr.dropped))
		}
	}
	// Overhead is the share by which tracing made each figure worse:
	// throughput lost, CPU per operation added.
	traced := res.TracedE2E[first]
	thr, cpu := plain.e2e["throughput_per_s"].Value, plain.e2e["cpu_us_per_op"].Value
	res.Metrics["trace.overhead_frac.throughput_per_s"] = metric{(thr - traced["throughput_per_s"].Value) / thr, "fraction"}
	res.Metrics["trace.overhead_frac.cpu_us_per_op"] = metric{(traced["cpu_us_per_op"].Value - cpu) / cpu, "fraction"}
	for k, m := range self.metrics() {
		res.Metrics[k] = m
	}
	for k, m := range prof.metrics() {
		res.Metrics[k] = m
	}
	res.Metrics["trace.spans"] = metric{float64(len(spans)), "count"}
	if err := writeSpans(res, spans); err != nil {
		return nil, err
	}
	return res, nil
}

// Provenance identifies the host shape and code a result came from.
// Results are comparable only between runs with equal host shape.
type Provenance struct {
	Workload   string `json:"workload"`
	Seed       uint64 `json:"seed"`
	Traced     bool   `json:"traced"`
	NumCPU     int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	Revision   string `json:"vcs_revision"`
	Modified   bool   `json:"vcs_modified"`
}

func provenance(workload string, seed uint64, traced bool) Provenance {
	p := Provenance{
		Workload:   workload,
		Seed:       seed,
		Traced:     traced,
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		Revision:   "unknown",
	}
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			switch s.Key {
			case "vcs.revision":
				p.Revision = s.Value
			case "vcs.modified":
				p.Modified = s.Value == "true"
			}
		}
	}
	return p
}

// outDir holds the result records and span dumps, relative to the
// working directory (the checkout root under run.sh).
const outDir = ".bench_out"

// writeRecord stores the full result (both metric sets, provenance and
// notes) as JSON under outDir.
func writeRecord(res *result) error {
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return fmt.Errorf("create output directory: %w", err)
	}
	name := fmt.Sprintf("result-%s-seed%d-trace%d.json", res.Workload, res.Seed, boolInt(res.Traced))
	b, err := json.MarshalIndent(res, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(filepath.Join(outDir, name), append(b, '\n'), 0o644); err != nil {
		return fmt.Errorf("write result record: %w", err)
	}
	return nil
}

// declaredMetric is one metric entry of BENCHMARK.json.
type declaredMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

// benchmarkSpec is the part of BENCHMARK.json the benchmark checks
// itself against.
type benchmarkSpec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []declaredMetric `json:"end_to_end"`
	PerLayer []declaredMetric `json:"per_layer"`
}

func loadSpec(path string) (*benchmarkSpec, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var s benchmarkSpec
	if err := json.Unmarshal(b, &s); err != nil {
		return nil, fmt.Errorf("parse %s: %w", path, err)
	}
	return &s, nil
}

// checkDeclared marks the result incorrect unless it reports exactly the
// metrics BENCHMARK.json declares for its mode, with the declared units.
// Without a BENCHMARK.json (the benchmark run on its own) it only notes
// that the check was skipped.
func checkDeclared(res *result, path string) error {
	spec, err := loadSpec(path)
	if errors.Is(err, fs.ErrNotExist) {
		res.Notes = append(res.Notes, path+" not found; reported metric names not checked")
		return nil
	}
	if err != nil {
		return err
	}
	want := spec.EndToEnd
	if res.Traced {
		want = spec.PerLayer
	}
	seen := map[string]bool{}
	for _, d := range want {
		seen[d.Name] = true
		m, ok := res.Metrics[d.Name]
		switch {
		case !ok:
			res.fail("metric %s is declared in %s but not reported", d.Name, path)
		case m.Unit != d.Unit:
			res.fail("metric %s is reported in %s but declared in %s", d.Name, m.Unit, d.Unit)
		case math.IsNaN(m.Value) || math.IsInf(m.Value, 0):
			res.fail("metric %s has no value", d.Name)
		}
	}
	for name := range res.Metrics {
		if !seen[name] {
			res.fail("metric %s is reported but not declared in %s", name, path)
		}
	}
	return nil
}

func boolInt(b bool) int {
	if b {
		return 1
	}
	return 0
}

package main

import (
	"bytes"
	"compress/gzip"
	"path/filepath"
	"regexp"
	"runtime/pprof"
	"slices"
	"testing"

	"github.com/oblivious-consensus/conciliator/internal/consensus"
)

func TestOpenScheduleIsPureFunctionOfSeed(t *testing.T) {
	a := genOpenSchedule(7, openRefRate, 3, openRungWrites)
	b := genOpenSchedule(7, openRefRate, 3, openRungWrites)
	if !slices.Equal(a.due, b.due) || !slices.Equal(a.ops, b.ops) {
		t.Fatal("same seed, rate and repetition gave different schedules")
	}
	c := genOpenSchedule(8, openRefRate, 3, openRungWrites)
	if slices.Equal(a.due, c.due) {
		t.Fatal("different seeds gave the same arrival times")
	}
	d := genOpenSchedule(7, openRefRate, 4, openRungWrites)
	if slices.Equal(a.due, d.due) {
		t.Fatal("different repetitions gave the same arrival times")
	}
	for i := 1; i < len(a.due); i++ {
		if a.due[i] < a.due[i-1] {
			t.Fatalf("arrival %d is due before arrival %d", i, i-1)
		}
	}
	// The mean gap of a Poisson schedule is 1/rate; 7500 draws put the
	// sample mean within a few percent.
	got := float64(len(a.due)) / a.due[len(a.due)-1].Seconds()
	if got < 0.95*openRefRate || got > 1.05*openRefRate {
		t.Fatalf("schedule rate %.0f/s, want about %d/s", got, openRefRate)
	}
}

func TestHTTPOpsArePureFunctionOfSeed(t *testing.T) {
	a, b := genHTTPOps(3, 2, 1), genHTTPOps(3, 2, 1)
	if !slices.Equal(a, b) {
		t.Fatal("same seed gave different requests")
	}
	if slices.Equal(a, genHTTPOps(3, 2, 0)) {
		t.Fatal("two clients were given the same requests")
	}
	if slices.Equal(a, genHTTPOps(4, 2, 1)) {
		t.Fatal("two seeds gave the same requests")
	}
}

func TestPercentileTailRule(t *testing.T) {
	xs := func(n int) []float64 {
		out := make([]float64, n)
		for i := range out {
			out[i] = float64(n - i)
		}
		return out
	}
	if v, ok := percentile(xs(1000), 0.99); !ok || v != 990 {
		t.Fatalf("p99 of 1..1000 = %v (ok %v), want 990 with 10 samples beyond", v, ok)
	}
	if _, ok := percentile(xs(999), 0.99); ok {
		t.Fatal("p99 of 999 samples has only 9 beyond it but passed the rule")
	}
	if v, ok := percentile(xs(21), 0.5); !ok || v != 11 {
		t.Fatalf("p50 of 1..21 = %v (ok %v), want 11", v, ok)
	}
}

// TestSampleCountsMeetTailRule pins the sizes that guarantee every
// reported percentile of an untraced run has minTail samples beyond it.
func TestSampleCountsMeetTailRule(t *testing.T) {
	p99ok := func(n int) bool {
		_, ok := percentile(make([]float64, n), 0.99)
		return ok
	}
	for seed := range uint64(20) {
		writes := 0
		for c := range httpClients {
			for _, op := range genHTTPOps(seed, 0, c) {
				if op.write {
					writes++
				}
			}
		}
		if !p99ok(writes) {
			t.Errorf("seed %d: a kv-http segment's %d writes are too few for a p99", seed, writes)
		}
	}
	if !p99ok(openRungWrites) {
		t.Errorf("a kv-open rung's %d writes are too few for a p99", openRungWrites)
	}
}

var (
	nameRe = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRe = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

func TestBenchmarkSpec(t *testing.T) {
	spec, err := loadSpec(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range spec.Workloads {
		if !slices.Contains(workloadOrder, w.Name) {
			t.Errorf("declared workload %s is not one the benchmark runs (%v)", w.Name, workloadOrder)
		}
	}
	seen := map[string]bool{}
	for _, m := range append(slices.Clone(spec.EndToEnd), spec.PerLayer...) {
		if !nameRe.MatchString(m.Name) {
			t.Errorf("metric name %q is not valid", m.Name)
		}
		if !unitRe.MatchString(m.Unit) {
			t.Errorf("metric %s unit %q is not valid", m.Name, m.Unit)
		}
		if m.Better != "higher" && m.Better != "lower" {
			t.Errorf("metric %s: better is %q", m.Name, m.Better)
		}
		if seen[m.Name] {
			t.Errorf("metric %s declared twice", m.Name)
		}
		seen[m.Name] = true
	}
	var e2e []string
	maxBound := 0.0
	for _, m := range spec.EndToEnd {
		e2e = append(e2e, m.Name)
		if m.Unit != endToEndUnits[m.Name] {
			t.Errorf("end-to-end %s declared in %s, reported in %s", m.Name, m.Unit, endToEndUnits[m.Name])
		}
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("end-to-end %s bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
		maxBound = max(maxBound, m.Bound)
	}
	if !slices.Equal(e2e, endToEndNames) {
		t.Errorf("declared end-to-end metrics %v, reported %v", e2e, endToEndNames)
	}
	for _, m := range spec.EndToEnd {
		if m.Name == "setup_s" && (m.Better != "lower" || m.Bound != maxBound) {
			t.Errorf("setup_s must be lower-is-better with the largest bound, got %s %v", m.Better, m.Bound)
		}
	}
	for _, name := range spanNames {
		if !seen["trace.self_us."+name] {
			t.Errorf("span %s has no declared trace.self_us metric", name)
		}
	}
	for _, m := range profileModules {
		if !seen["profile.self_frac."+m] {
			t.Errorf("module %s has no declared profile.self_frac metric", m)
		}
	}
}

func TestCovered(t *testing.T) {
	ivs := [][2]int64{{5, 10}, {0, 3}, {8, 12}, {20, 30}}
	if got := covered(ivs, 2, 25); got != 1+7+5 {
		t.Fatalf("covered = %d, want 13", got)
	}
	if got := covered(nil, 0, 10); got != 0 {
		t.Fatalf("covered(nil) = %d", got)
	}
}

func TestSelfTimes(t *testing.T) {
	tr := newTracer("test")
	tr.all = []span{
		{ID: 1, Name: "root", Start: 0, End: 100},
		{ID: 2, Parent: 1, Name: "child", Start: 10, End: 40},
		{ID: 3, Parent: 1, Name: "child", Start: 30, End: 60},
	}
	st := selfTimes{}
	st.add(tr)
	if a := st["root"]; a.n != 1 || a.self != 50 {
		t.Fatalf("root self = %+v, want one span of 50ns", *a)
	}
	if a := st["child"]; a.n != 2 || a.self != 60 {
		t.Fatalf("child self = %+v, want two spans totalling 60ns", *a)
	}
}

// TestTrialSeedsMatchMonteCarlo reruns one flat chunk on the coroutine
// engine: the histograms only agree if trialSeeds derives the same
// per-trial seeds as consensus.RunMonteCarlo.
func TestTrialSeedsMatchMonteCarlo(t *testing.T) {
	e := &env{seed: 5}
	o := newOutcome(e)
	for k, kind := range trialKinds {
		flat, err := consensus.RunMonteCarlo(consensus.MCConfig{
			N: trialN, Trials: trialChunk, Flat: trialFlat, Sched: kind,
			Seed: chunkSeed(e.seed, 0, k), Workers: 1,
		})
		if err != nil {
			t.Fatal(err)
		}
		if err := runCoroutineChunk(e, o, &trialPass{}, 0, k, kind, flat); err != nil {
			t.Fatal(err)
		}
	}
	if len(o.problems) > 0 {
		t.Fatal(o.problems)
	}
}

func TestProfileAttribution(t *testing.T) {
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		t.Skip("CPU profiler busy:", err)
	}
	_, err := consensus.RunMonteCarlo(consensus.MCConfig{
		N: trialN, Trials: 4096, Flat: trialFlat, Sched: trialKinds[0], Seed: 1, Workers: 1,
	})
	pprof.StopCPUProfile()
	if err != nil {
		t.Fatal(err)
	}
	p := newProfileShares()
	if err := p.addProfile(buf.Bytes()); err != nil {
		t.Fatal(err)
	}
	if p.total == 0 {
		t.Skip("no CPU samples taken")
	}
	engine := p.byModule["sim"] + p.byModule["consensus"] + p.byModule["conciliator"] +
		p.byModule["adoptcommit"] + p.byModule["sched"]
	if engine == 0 {
		t.Fatalf("no samples charged to the simulator modules: %v", p.byModule)
	}
	if err := p.addProfile([]byte("not gzip")); err == nil {
		t.Fatal("garbage decoded as a profile")
	}
	var z bytes.Buffer
	zw := gzip.NewWriter(&z)
	zw.Write([]byte{0x0a, 0xff})
	zw.Close()
	if err := p.addProfile(z.Bytes()); err == nil {
		t.Fatal("truncated protobuf decoded as a profile")
	}
}

func TestModuleOf(t *testing.T) {
	for fn, want := range map[string]string{
		"github.com/oblivious-consensus/conciliator/internal/service.(*group).worker":        "service",
		"github.com/oblivious-consensus/conciliator/internal/sim.(*FlatRunner[...]).RunInto": "sim",
		"net/http.(*conn).serve":                  "net_http",
		"net/http/internal.(*chunkedReader).Read": "net_http",
		"runtime.mallocgc":                        "other",
		"main.runTrials":                          "other",
	} {
		if got := moduleOf(fn); got != want {
			t.Errorf("moduleOf(%q) = %q, want %q", fn, got, want)
		}
	}
}

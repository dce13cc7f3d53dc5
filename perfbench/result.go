package main

import (
	"encoding/json"
	"fmt"
	"math"
	"runtime"
	"runtime/metrics"
	"slices"
	"sort"
	"sync/atomic"
	"syscall"
	"time"

	cmetrics "github.com/oblivious-consensus/conciliator/internal/metrics"
)

// metric is one reported figure with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// MarshalJSON writes a value JSON cannot hold (NaN, ±Inf) as 0; the run
// is already marked incorrect by then (see checkDeclared).
func (m metric) MarshalJSON() ([]byte, error) {
	v := m.Value
	if math.IsNaN(v) || math.IsInf(v, 0) {
		v = 0
	}
	type plain metric
	return json.Marshal(plain{Value: v, Unit: m.Unit})
}

// endToEndNames are the metrics every workload reports untraced. Their
// meaning per workload is documented in README.md.
var endToEndNames = []string{"setup_s", "throughput_per_s", "cpu_us_per_op", "peak_heap_mb"}

var endToEndUnits = map[string]string{
	"setup_s":          "s",
	"throughput_per_s": "1/s",
	"cpu_us_per_op":    "us",
	"peak_heap_mb":     "MB",
}

// env is what a workload gets: its seed, its measurement budget and,
// on a traced pass, the tracer (nil otherwise).
type env struct {
	seed   uint64
	budget time.Duration
	tr     *tracer
}

func (e *env) traced() bool { return e.tr != nil }

// outcome is one workload pass: counts, the correctness verdict, the
// end-to-end figures and, when traced, the per-layer figures.
type outcome struct {
	traced    bool
	attempted int64
	failed    int64
	problems  []string
	e2e       map[string]metric
	layer     map[string]metric
	notes     []string
}

func newOutcome(e *env) *outcome {
	return &outcome{traced: e.traced(), e2e: map[string]metric{}, layer: map[string]metric{}}
}

// fail records a failed correctness check.
func (o *outcome) fail(format string, args ...any) {
	o.problems = append(o.problems, fmt.Sprintf(format, args...))
}

func (o *outcome) setE2E(name string, v float64) {
	o.e2e[name] = metric{v, endToEndUnits[name]}
}

func (o *outcome) setLayer(name string, v float64, unit string) {
	o.layer[name] = metric{v, unit}
}

func (o *outcome) note(format string, args ...any) {
	o.notes = append(o.notes, fmt.Sprintf(format, args...))
}

// endToEnd returns the end-to-end metric set, failing loudly (NaN) on
// any a workload forgot to fill so the omission cannot pass unnoticed.
func (o *outcome) endToEnd() map[string]metric {
	out := make(map[string]metric, len(endToEndNames))
	for _, n := range endToEndNames {
		m, ok := o.e2e[n]
		if !ok {
			m = metric{math.NaN(), endToEndUnits[n]}
		}
		out[n] = m
	}
	return out
}

// result is the full record of one invocation.
type result struct {
	Workload    string                       `json:"workload"`
	Seed        uint64                       `json:"seed"`
	Traced      bool                         `json:"traced"`
	Provenance  Provenance                   `json:"provenance"`
	Correct     bool                         `json:"correct"`
	Attempted   int64                        `json:"attempted"`
	Failed      int64                        `json:"failed"`
	Problems    []string                     `json:"problems,omitempty"`
	Metrics     map[string]metric            `json:"metrics"`
	UntracedE2E map[string]map[string]metric `json:"untraced_end_to_end,omitempty"`
	TracedE2E   map[string]map[string]metric `json:"traced_end_to_end,omitempty"`
	Notes       []string                     `json:"notes,omitempty"`
}

func newResult(workload string, seed uint64, traced bool) *result {
	r := &result{Workload: workload, Seed: seed, Traced: traced, Correct: true}
	if traced {
		r.UntracedE2E = map[string]map[string]metric{}
		r.TracedE2E = map[string]map[string]metric{}
	}
	return r
}

// fail records a failed check on the whole run.
func (r *result) fail(format string, args ...any) {
	r.Correct = false
	r.Problems = append(r.Problems, fmt.Sprintf(format, args...))
}

func (r *result) add(o *outcome) {
	r.Attempted += o.attempted
	r.Failed += o.failed
	if len(o.problems) > 0 {
		r.Correct = false
		r.Problems = append(r.Problems, o.problems...)
	}
	r.Notes = append(r.Notes, o.notes...)
}

// summary is the benchmark's last output line.
type summary struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func (r *result) summary() summary {
	return summary{Correct: r.Correct && r.Failed == 0, Attempted: r.Attempted, Failed: r.Failed, Metrics: r.Metrics}
}

// minTail is the least number of samples that must lie beyond a
// reported percentile.
const minTail = 10

// percentile returns the nearest-rank q-quantile of xs (sorted in
// place) and whether at least minTail samples lie strictly beyond its
// rank, the rule every reported percentile must meet.
func percentile(xs []float64, q float64) (float64, bool) {
	if len(xs) == 0 {
		return math.NaN(), false
	}
	if !sort.Float64sAreSorted(xs) {
		slices.Sort(xs)
	}
	rank := int(math.Ceil(q*float64(len(xs)) - 1e-9))
	if rank < 1 {
		rank = 1
	}
	if rank > len(xs) {
		rank = len(xs)
	}
	return xs[rank-1], len(xs)-rank >= minTail
}

// tailPercentile is percentile for a figure that is reported: too few
// samples beyond the rank is a benchmark defect, reported on o. A traced
// pass only notes it: its shorter passes feed per-layer figures and the
// overhead comparison, not the gated end-to-end figures.
func tailPercentile(o *outcome, what string, xs []float64, q float64) float64 {
	v, ok := percentile(xs, q)
	if !ok && o.traced {
		o.note("%s: p%g has fewer than %d of %d samples beyond it", what, q*100, minTail, len(xs))
	} else if !ok {
		o.fail("%s: p%g has fewer than %d of %d samples beyond it", what, q*100, minTail, len(xs))
	}
	return v
}

// median returns the median of xs (mean of the middle pair when even).
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	m := len(s) / 2
	if len(s)%2 == 1 {
		return s[m]
	}
	return (s[m-1] + s[m]) / 2
}

// timeSetups runs a workload's set-up reps times and returns each
// duration in seconds; setup_s reports their median.
func timeSetups(reps int, setup func() (time.Duration, error)) ([]float64, error) {
	out := make([]float64, 0, reps)
	for range reps {
		d, err := setup()
		if err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		out = append(out, d.Seconds())
	}
	return out, nil
}

// cpuTime returns the process's user+system CPU time.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// heapLive forces a collection and returns the live heap in bytes.
func heapLive() uint64 {
	runtime.GC()
	s := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
	metrics.Read(s)
	return s[0].Value.Uint64()
}

// heapSampler tracks the peak heap in use (live objects plus garbage the
// collector has not yet freed) while a workload runs, sampled every 5 ms,
// per window (segment, pass or rung): the heap footprint the process
// holds, not the live heap as of the last mark, which moves with where
// collections happen to fall.
type heapSampler struct {
	peak  atomic.Uint64
	peaks []float64 // MB, one per take
	stop  chan struct{}
	done  chan struct{}
}

func startHeapSampler() *heapSampler {
	h := &heapSampler{stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(h.done)
		tick := time.NewTicker(5 * time.Millisecond)
		defer tick.Stop()
		for {
			h.sample()
			select {
			case <-h.stop:
				return
			case <-tick.C:
			}
		}
	}()
	return h
}

func (h *heapSampler) sample() {
	s := []metrics.Sample{{Name: "/memory/classes/heap/objects:bytes"}}
	metrics.Read(s)
	v := s[0].Value.Uint64()
	for cur := h.peak.Load(); v > cur && !h.peak.CompareAndSwap(cur, v); cur = h.peak.Load() {
	}
}

// take ends a segment, pass or rung: it records the peak since the last
// take and starts a new window.
func (h *heapSampler) take() {
	h.sample()
	h.peaks = append(h.peaks, float64(h.peak.Swap(0))/(1<<20))
}

// finish stops the sampler and returns the median per-window peak in MB.
func (h *heapSampler) finish() float64 {
	close(h.stop)
	<-h.done
	return median(h.peaks)
}

// runtimeStats reads the runtime figures the per-layer "runtime" metrics
// are computed from.
type runtimeStats struct {
	gcCPU, totalCPU float64
	pauses          *metrics.Float64Histogram
	allocBytes      uint64
	allocObjects    uint64
}

func readRuntime() runtimeStats {
	s := []metrics.Sample{
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/cpu/classes/total:cpu-seconds"},
		{Name: "/sched/pauses/total/gc:seconds"},
		{Name: "/gc/heap/allocs:bytes"},
		{Name: "/gc/heap/allocs:objects"},
	}
	metrics.Read(s)
	return runtimeStats{
		gcCPU:        s[0].Value.Float64(),
		totalCPU:     s[1].Value.Float64(),
		pauses:       s[2].Value.Float64Histogram(),
		allocBytes:   s[3].Value.Uint64(),
		allocObjects: s[4].Value.Uint64(),
	}
}

// runtimeLayer fills the runtime.* per-layer metrics for the interval
// between two readings.
func runtimeLayer(o *outcome, before, after runtimeStats) {
	if d := after.totalCPU - before.totalCPU; d > 0 {
		o.setLayer("runtime.gc_cpu_frac", (after.gcCPU-before.gcCPU)/d, "fraction")
	}
	// Pause histogram delta, then its p99 bucket's upper bound.
	counts := slices.Clone(after.pauses.Counts)
	for i := range counts {
		counts[i] -= before.pauses.Counts[i]
	}
	var total uint64
	for _, c := range counts {
		total += c
	}
	p99 := 0.0
	if total > 0 {
		want := uint64(math.Ceil(0.99 * float64(total)))
		var cum uint64
		for i, c := range counts {
			cum += c
			if cum >= want {
				p99 = after.pauses.Buckets[i+1]
				break
			}
		}
	}
	if math.IsInf(p99, 1) {
		p99 = after.pauses.Buckets[len(after.pauses.Buckets)-2]
	}
	o.setLayer("runtime.gc_pause_p99_us", p99*1e6, "us")
	o.setLayer("runtime.gc_pauses", float64(total), "count")
}

// enableRegistry installs (or removes) the internal/metrics registry.
// Only traced passes run with it installed; toggle it only while no
// workload goroutine is running.
func enableRegistry(on bool) {
	if on {
		cmetrics.SetDefault(cmetrics.New())
		return
	}
	cmetrics.SetDefault(nil)
}

// registryCounters snapshots the installed registry's counters.
func registryCounters() map[string]int64 {
	return cmetrics.Default().Snapshot().Counters
}

package main

import (
	"fmt"
	"math"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"github.com/oblivious-consensus/conciliator/internal/rsm"
	"github.com/oblivious-consensus/conciliator/internal/service"
	"github.com/oblivious-consensus/conciliator/internal/stats"
	"github.com/oblivious-consensus/conciliator/internal/xrand"
)

// kv-open: open-loop Poisson writes with zipf keys against an in-process
// node, at a fixed ladder of offered rates. Every rung runs on a fresh
// node. The ladder runs once to find the highest rate meeting the
// latency limit; the reference rung then repeats for the rest of the
// budget to give the latency figures.
var (
	// openLadder is the offered write rates in 1/s, lowest first.
	openLadder = []float64{1250, 2500, 5000, 8000}
)

const (
	// openRungWrites is the number of writes every rung offers. A fixed
	// count (not a fixed duration) gives every rung's node the same
	// retained heap, so rungs differ only in arrival rate.
	openRungWrites = 3750
	// openRefRate is the reference rung whose latency is reported.
	openRefRate = 2500
	// openLimit is the latency limit on a rung's p99, measured from when
	// each request was due.
	openLimit = 100 * time.Millisecond
	// openCompleted is the share of a rung's requests that must complete
	// within the limit after the rung's last due time.
	openCompleted = 0.99
)

// openSchedule is one rung's generated input: due offsets from the rung
// start and the op due at each.
type openSchedule struct {
	due []time.Duration
	ops []rsm.Op
}

// genOpenSchedule draws the Poisson arrivals and zipf-keyed writes of
// rung (rate, rep). It is a pure function of its arguments.
func genOpenSchedule(seed uint64, rate float64, rep, n int) openSchedule {
	rng := xrand.New(seed).ForkNamed(labelOpen).ForkNamed(uint64(rate)).ForkNamed(uint64(rep))
	keys := newKeySampler(kvKeys, true)
	s := openSchedule{due: make([]time.Duration, n), ops: make([]rsm.Op, n)}
	var t float64 // seconds
	for i := range n {
		t += -math.Log(1-rng.Float64()) / rate
		s.due[i] = time.Duration(t * 1e9)
		s.ops[i] = writeOp(rng, keys.key(rng))
	}
	return s
}

// rungResult is one rung's measurements.
type rungResult struct {
	rate     float64
	setup    time.Duration
	lat      []float64 // µs from due to completion
	late     []float64 // µs the generator issued each request after it was due
	failed   int64
	inTime   int     // completed within openLimit of the last due time
	achieved float64 // completed requests per second of rung time
	cpu      time.Duration
	queue    []float64 // sampled total intake queue length (traced)
	check    kvCheck
	occ      *stats.IntHist
	liveMB   float64 // live heap with the rung's node still up (traced)
}

func (r *rungResult) p99() float64 { v, _ := percentile(r.lat, 0.99); return v }

// meets reports whether the rung meets the latency limit with enough
// requests completed.
func (r *rungResult) meets() bool {
	n := len(r.lat)
	return n > 0 && r.failed == 0 && r.p99() <= float64(openLimit.Microseconds()) &&
		float64(r.inTime) >= openCompleted*float64(n)
}

// runRung offers one rung's schedule to a fresh node. One generator
// goroutine issues the requests in due order; requests already due go
// out immediately, and each waits for its reply in its own goroutine.
func runRung(e *env, rate float64, rep int, o *outcome) (*rungResult, error) {
	sch := genOpenSchedule(e.seed, rate, rep, openRungWrites)
	n := len(sch.due)
	r := &rungResult{rate: rate, lat: make([]float64, n), late: make([]float64, n)}
	t0 := time.Now()
	node, err := startNode(xrand.New(e.seed).ForkNamed(labelOpen).SeedNamed(uint64(rate)*1000+uint64(rep)), e.tr)
	if err != nil {
		return nil, err
	}
	defer node.Close()
	r.setup = time.Since(t0)

	stopSampler := func() {}
	if e.traced() {
		stopSampler = sampleQueue(node, e.tr, &r.queue)
	}
	var failed atomic.Int64
	doneAt := make([]time.Duration, n)
	var wg sync.WaitGroup
	wg.Add(n)
	cpu0 := cpuTime()
	start := time.Now()
	for i := range n {
		due := start.Add(sch.due[i])
		if d := time.Until(due); d > 0 {
			sleepFor(d)
		}
		r.late[i] = float64(time.Since(due).Nanoseconds()) / 1e3
		go func() {
			defer wg.Done()
			id := e.tr.begin("service.Submit", 0, uint64(i))
			_, err := node.Submit(uint32(i%64), sch.ops[i])
			e.tr.end(id)
			now := time.Now()
			if err != nil {
				failed.Add(1)
			}
			r.lat[i] = float64(now.Sub(due).Nanoseconds()) / 1e3
			doneAt[i] = now.Sub(start)
		}()
	}
	wg.Wait()
	r.cpu = cpuTime() - cpu0
	stopSampler()

	r.failed = failed.Load()
	last := sch.due[n-1]
	var end time.Duration
	for _, d := range doneAt {
		if d <= last+openLimit {
			r.inTime++
		}
		end = max(end, d)
	}
	r.achieved = float64(int64(n)-r.failed) / end.Seconds()
	if r.failed > 0 {
		o.fail("kv-open rung %.0f/s: %d of %d writes failed", rate, r.failed, n)
	}
	r.check = verifyNode(node, int64(n)-r.failed, o, e.tr)
	if e.traced() {
		id := e.tr.begin("service.BatchOccupancy", 0, 0)
		r.occ = node.BatchOccupancy()
		e.tr.end(id)
		r.liveMB = float64(heapLive()) / (1 << 20)
	}
	if err := node.Close(); err != nil {
		o.fail("kv-open rung %.0f/s: node drain: %v", rate, err)
	}
	return r, nil
}

// sleepFor blocks the generator for d with nanosleep(2), whose wakeups
// on Linux run tens of microseconds late where the runtime's timers run
// up to a millisecond late; the generator's lateness counts in every
// open-loop latency.
func sleepFor(d time.Duration) {
	ts := syscall.NsecToTimespec(d.Nanoseconds())
	for syscall.Nanosleep(&ts, &ts) == syscall.EINTR {
	}
}

// sampleQueue samples the node's total intake queue length every
// millisecond until the returned stop function is called.
func sampleQueue(node *service.Node, tr *tracer, out *[]float64) func() {
	stop := make(chan struct{})
	done := make(chan struct{})
	go func() {
		defer close(done)
		tick := time.NewTicker(time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-stop:
				return
			case <-tick.C:
				id := tr.begin("service.Status", 0, 0)
				st := node.Status()
				tr.end(id)
				q := 0
				for _, g := range st.Groups {
					q += g.QueueLen
				}
				*out = append(*out, float64(q))
			}
		}
	}()
	return func() { close(stop); <-done }
}

func runKVOpen(e *env) (*outcome, error) {
	o := newOutcome(e)
	setups, err := timeSetups(kvSetupReps, func() (time.Duration, error) {
		t0 := time.Now()
		n, err := startNode(e.seed, nil)
		if err != nil {
			return 0, err
		}
		d := time.Since(t0)
		return d, n.Close()
	})
	if err != nil {
		return nil, err
	}
	peak := startHeapSampler()
	deadline := time.Now().Add(e.budget)
	r0 := readRuntime()
	var rungs []*rungResult
	slo := 0.0
	for _, rate := range openLadder {
		r, err := runRung(e, rate, 0, o)
		peak.take()
		if err != nil {
			peak.finish()
			return nil, err
		}
		rungs = append(rungs, r)
		setups = append(setups, r.setup.Seconds())
		if r.meets() {
			slo = r.achieved
		}
		o.note("kv-open rung %5.0f/s: p99 %.0fus, %d/%d in time, %.0f/s completed, meets=%v",
			rate, r.p99(), r.inTime, len(r.lat), r.achieved, r.meets())
	}
	var refs []*rungResult
	for _, r := range rungs {
		if r.rate == openRefRate {
			refs = append(refs, r)
		}
	}
	for rep := 1; time.Now().Before(deadline); rep++ {
		r, err := runRung(e, openRefRate, rep, o)
		peak.take()
		if err != nil {
			peak.finish()
			return nil, err
		}
		rungs = append(rungs, r)
		refs = append(refs, r)
		setups = append(setups, r.setup.Seconds())
	}
	r1 := readRuntime()

	// The reference latency pools every repetition's samples: the tail
	// is set by collector cycles, which a single rung sees too few of.
	var lat, cpus, late []float64
	for _, r := range refs {
		lat = append(lat, r.lat...)
		cpus = append(cpus, float64(r.cpu.Nanoseconds())/1e3/float64(len(r.lat)))
		late = append(late, r.late...)
	}
	for _, r := range rungs {
		o.attempted += int64(len(r.lat))
		o.failed += r.failed
	}
	what := fmt.Sprintf("kv-open latency at %d/s", openRefRate)
	p50, p99 := tailPercentile(o, what, lat, 0.50), tailPercentile(o, what, lat, 0.99)
	o.setE2E("setup_s", median(setups))
	o.setE2E("throughput_per_s", slo)
	o.setE2E("cpu_us_per_op", median(cpus))
	o.setE2E("peak_heap_mb", peak.finish())
	o.note("kv-open: write latency at %d/s p50 %.1fus p99 %.1fus over %d writes", openRefRate, p50, p99, len(lat))
	if !e.traced() {
		return o, nil
	}
	o.setLayer("kvopen.write_p50_us", p50, "us")
	o.setLayer("kvopen.write_p99_us", p99, "us")
	o.setLayer("kvopen.slo_rate_per_s", slo, "1/s")
	for _, r := range rungs[:len(openLadder)] {
		o.setLayer(fmt.Sprintf("kvopen.p99_us.%.0f", r.rate), r.p99(), "us")
	}
	o.setLayer("loadgen.late_p50_us", tailPercentile(o, "generator lateness", late, 0.50), "us")
	o.setLayer("loadgen.late_p99_us", tailPercentile(o, "generator lateness", late, 0.99), "us")
	submits := e.tr.durations("service.Submit")
	o.setLayer("service.submit_p50_us", tailPercentile(o, "submit latency", submits, 0.50), "us")
	o.setLayer("service.submit_p99_us", tailPercentile(o, "submit latency", submits, 0.99), "us")
	var queue []float64
	occ := stats.NewIntHist(65)
	var slots int64
	var checks []kvCheck
	liveMB := 0.0
	for _, r := range rungs {
		queue = append(queue, r.queue...)
		occ.Merge(r.occ)
		slots += r.check.slots
		checks = append(checks, r.check)
		liveMB = max(liveMB, r.liveMB)
	}
	mean := 0.0
	for _, q := range queue {
		mean += q / float64(len(queue))
	}
	o.setLayer("service.queue_len_mean", mean, "ops")
	batchLayer(o, occ, slots)
	codecLayer(o, checks)
	runtimeLayer(o, r0, r1)
	o.setLayer("runtime.heap_live_mb", liveMB, "MB")
	ref := refs[len(refs)-1]
	if err := replayLayer(o, e.tr, e.seed, ref.check.decidedLogs); err != nil {
		return nil, err
	}
	return o, nil
}

package main

import (
	"fmt"
	"time"

	"github.com/oblivious-consensus/conciliator/internal/des"
	"github.com/oblivious-consensus/conciliator/internal/xrand"
)

// des: one pass is a lossless sifter run at n=100k and a priority-max
// run at n=50k with 5% message loss, both with exponential 1ms message
// latency. Passes repeat the same two runs until the budget is spent.
const (
	labelDES     = 0x64657321 // "des!"
	desSetupReps = 201
)

// desRun names one run of a pass.
type desRun struct {
	name     string
	protocol string
	n        int
	loss     float64
}

var desRuns = []desRun{
	{"lossless", des.ProtoSifter, 100_000, 0},
	{"lossy", des.ProtoPriorityMax, 50_000, 0.05},
}

// desConfigs builds a pass's run configurations from the workload seed.
func desConfigs(seed uint64, scale int) ([]des.Config, error) {
	lat, err := des.ParseLatency("exp:1ms")
	if err != nil {
		return nil, err
	}
	rng := xrand.New(seed).ForkNamed(labelDES)
	cfgs := make([]des.Config, len(desRuns))
	for i, r := range desRuns {
		cfgs[i] = des.Config{
			N:        max(r.n/scale, 2),
			Protocol: r.protocol,
			Seed:     rng.SeedNamed(uint64(i)),
			Net:      des.NetConfig{Latency: lat, Loss: r.loss},
		}
	}
	return cfgs, nil
}

// desPass is one pass's measurements.
type desPass struct {
	wall, cpu time.Duration
	perRun    []time.Duration
	results   []des.Result
}

func runDESPass(e *env, o *outcome, cfgs []des.Config) (*desPass, error) {
	p := &desPass{}
	cpu0, t0 := cpuTime(), time.Now()
	for i, cfg := range cfgs {
		id := e.tr.begin("des.Run", 0, uint64(i))
		t := time.Now()
		res, err := des.Run(cfg)
		p.perRun = append(p.perRun, time.Since(t))
		e.tr.end(id)
		o.attempted++
		switch {
		case err != nil:
			o.failed++
			o.fail("des %s: %v", desRuns[i].name, err)
		case !res.AllDecided || len(res.Violations) > 0:
			o.failed++
			o.fail("des %s: all decided %v, %d monitor violations", desRuns[i].name, res.AllDecided, len(res.Violations))
		}
		p.results = append(p.results, res)
	}
	p.wall, p.cpu = time.Since(t0), cpuTime()-cpu0
	return p, nil
}

// desSetup times building a pass's configurations plus a run at a
// hundred-thousandth of the size, which pays the per-run set-up (network,
// memory server, process table) and almost nothing else.
func desSetup(seed uint64) (time.Duration, error) {
	t0 := time.Now()
	cfgs, err := desConfigs(seed, 100_000)
	if err != nil {
		return 0, err
	}
	if _, err := des.Run(cfgs[0]); err != nil {
		return 0, fmt.Errorf("des set-up run: %w", err)
	}
	return time.Since(t0), nil
}

func runDES(e *env) (*outcome, error) {
	o := newOutcome(e)
	setups, err := timeSetups(desSetupReps, func() (time.Duration, error) { return desSetup(e.seed) })
	if err != nil {
		return nil, err
	}
	cfgs, err := desConfigs(e.seed, 1)
	if err != nil {
		return nil, err
	}
	peak := startHeapSampler()
	deadline := time.Now().Add(e.budget)
	var passes []*desPass
	var rates, cpus []float64
	for len(passes) == 0 || time.Now().Before(deadline) {
		p, err := runDESPass(e, o, cfgs)
		peak.take()
		if err != nil {
			peak.finish()
			return nil, err
		}
		passes = append(passes, p)
		var events int64
		for _, r := range p.results {
			events += r.Events
		}
		rates = append(rates, float64(events)/p.wall.Seconds())
		cpus = append(cpus, float64(p.cpu.Nanoseconds())/1e3/float64(events))
	}
	o.setE2E("setup_s", median(setups))
	o.setE2E("throughput_per_s", median(rates))
	o.setE2E("cpu_us_per_op", median(cpus))
	o.setE2E("peak_heap_mb", peak.finish())
	o.note("des: %d passes", len(passes))
	for i, p := range passes[1:] {
		for j, r := range p.results {
			if r.Events != passes[0].results[j].Events {
				o.fail("des %s: pass %d handled %d events, pass 0 handled %d (runs must replay exactly)",
					desRuns[j].name, i+1, r.Events, passes[0].results[j].Events)
			}
		}
	}
	if e.traced() {
		p := passes[0]
		var events, sent, retrans int64
		var virt time.Duration
		for i, r := range p.results {
			events += r.Events
			sent += r.MsgsSent
			retrans += r.Retransmits
			virt += r.VirtualTime
			var ns []float64
			for _, q := range passes {
				ns = append(ns, float64(q.perRun[i].Nanoseconds())/float64(q.results[i].Events))
			}
			o.setLayer("des.ns_per_event."+desRuns[i].name, median(ns), "ns")
		}
		o.setLayer("des.events", float64(events), "count")
		o.setLayer("des.msgs_sent", float64(sent), "count")
		o.setLayer("des.retransmits", float64(retrans), "count")
		o.setLayer("des.virtual_ms", float64(virt.Nanoseconds())/1e6, "ms")
	}
	return o, nil
}

package main

import (
	"fmt"
	"runtime"
	"time"

	"github.com/oblivious-consensus/conciliator/internal/consensus"
	"github.com/oblivious-consensus/conciliator/internal/sched"
	"github.com/oblivious-consensus/conciliator/internal/sim"
	"github.com/oblivious-consensus/conciliator/internal/stats"
	"github.com/oblivious-consensus/conciliator/internal/xrand"
)

// trials: one seeded set of n=16 sifter+register consensus trials, half
// under the random schedule and half under zipf. The set is trialPairs
// chunk pairs; each pair is one random and one zipf chunk of
// trialChunk trials, run by the flat engine through
// consensus.RunMonteCarlo with Workers=1. The coroutine engine reruns the
// first coroutinePairs pairs trial by trial. A pass runs the whole set;
// passes repeat until the budget is spent.
const (
	trialN         = 16
	trialChunk     = 64
	trialPairs     = 120
	coroutinePairs = 8
	labelTrials    = 0x74726961 // "tria"
	trialSetupReps = 1001
)

var trialFlat = consensus.FlatConfig{Conciliator: consensus.ConcSifter, AC: consensus.ACRegister}

var trialKinds = [2]sched.Kind{sched.KindRandom, sched.KindZipf}

// chunkSeed is the Monte Carlo seed of chunk (pair, kind).
func chunkSeed(seed uint64, pair, kind int) uint64 {
	return xrand.New(seed).ForkNamed(labelTrials).ForkNamed(uint64(pair)).SeedNamed(uint64(kind))
}

// trialSeeds mirrors consensus.RunMonteCarlo's derivation of trial t's
// (algorithm, schedule) seeds from its chunk seed; the cross-engine
// check fails if the two ever drift apart.
func trialSeeds(base, t uint64) (alg, sch uint64) {
	var root, tr xrand.Rand
	root.Reseed(base)
	root.ForkNamedInto(t, &tr)
	return tr.Uint64(), tr.Uint64()
}

// trialPass is one pass's measurements.
type trialPass struct {
	flatTime, coTime     time.Duration
	flatTrials, coTrials int64
	flatSteps, coSteps   int64
	slots                [2]int64 // flat slots per schedule kind
	flatAllocs, coAllocs uint64
	cpu                  time.Duration
}

func runTrialPass(e *env, o *outcome) (*trialPass, error) {
	p := &trialPass{}
	cpu0 := cpuTime()
	for pair := range trialPairs {
		a0 := readRuntime().allocObjects
		t0 := time.Now()
		var res [2]*consensus.MCResult
		for k, kind := range trialKinds {
			id := e.tr.begin("consensus.RunMonteCarlo", 0, uint64(pair))
			r, err := consensus.RunMonteCarlo(consensus.MCConfig{
				N: trialN, Trials: trialChunk, Flat: trialFlat, Sched: kind,
				Seed: chunkSeed(e.seed, pair, k), Workers: 1,
			})
			e.tr.end(id)
			if err != nil {
				return nil, fmt.Errorf("flat trials: %w", err)
			}
			res[k] = r
		}
		p.flatTime += time.Since(t0)
		p.flatAllocs += readRuntime().allocObjects - a0
		for k, r := range res {
			p.flatTrials += r.Trials
			p.flatSteps += r.TotalSteps
			p.slots[k] += r.TotalSlots
			if r.Agreed != r.Trials {
				o.failed += r.Trials - r.Agreed
				o.fail("flat pair %d kind %v: %d of %d trials disagreed", pair, trialKinds[k], r.Trials-r.Agreed, r.Trials)
			}
		}
		if pair < coroutinePairs {
			for k, kind := range trialKinds {
				if err := runCoroutineChunk(e, o, p, pair, k, kind, res[k]); err != nil {
					return nil, err
				}
			}
		}
	}
	p.cpu = cpuTime() - cpu0
	return p, nil
}

// runCoroutineChunk reruns one flat chunk on the coroutine engine, trial
// by trial with the same seeds, and checks that both engines produced
// the same per-process step histogram.
func runCoroutineChunk(e *env, o *outcome, p *trialPass, pair, k int, kind sched.Kind, flat *consensus.MCResult) error {
	base := chunkSeed(e.seed, pair, k)
	steps := stats.NewIntHist(1024)
	a0 := readRuntime().allocObjects
	t0 := time.Now()
	for t := range uint64(trialChunk) {
		alg, sch := trialSeeds(base, t)
		proto, err := consensus.EquivalentProtocol(trialN, trialFlat)
		if err != nil {
			return err
		}
		id := e.tr.begin("sim.Collect", 0, t)
		outs, fin, res, err := sim.Collect(sched.New(kind, trialN, sch), sim.Config{AlgSeed: alg}, func(pr *sim.Proc) int {
			return proto.Propose(pr, pr.ID()%2)
		})
		e.tr.end(id)
		if err != nil {
			return fmt.Errorf("coroutine trial: %w", err)
		}
		agreed := true
		for pid := range trialN {
			if !fin[pid] {
				continue
			}
			steps.Add(res.Steps[pid])
			if outs[pid] != outs[0] {
				agreed = false
			}
		}
		if !agreed {
			o.failed++
			o.fail("coroutine pair %d kind %v trial %d disagreed", pair, kind, t)
		}
		p.coSteps += res.TotalSteps
	}
	p.coTime += time.Since(t0)
	p.coAllocs += readRuntime().allocObjects - a0
	p.coTrials += trialChunk
	if !sameHist(steps, flat.Steps) {
		o.fail("pair %d kind %v: coroutine step histogram (n=%d sum=%d) differs from flat (n=%d sum=%d)",
			pair, kind, steps.N(), steps.Sum(), flat.Steps.N(), flat.Steps.Sum())
	}
	return nil
}

// sameHist reports whether two histograms hold the same multiset.
func sameHist(a, b *stats.IntHist) bool {
	if a.N() != b.N() || a.Sum() != b.Sum() || a.Min() != b.Min() || a.Max() != b.Max() {
		return false
	}
	n := float64(a.N())
	for r := int64(1); r <= a.N(); r++ {
		q := (float64(r) - 0.5) / n
		if a.Quantile(q) != b.Quantile(q) {
			return false
		}
	}
	return true
}

// trialSetup times building what one trial needs: the flat machine and
// runner, and the coroutine protocol.
func trialSetup() (time.Duration, error) {
	t0 := time.Now()
	m, err := consensus.NewFlat(trialN, trialFlat)
	if err != nil {
		return 0, err
	}
	r := sim.NewFlatRunner[*consensus.FlatConsensus]()
	proto, err := consensus.EquivalentProtocol(trialN, trialFlat)
	if err != nil {
		return 0, err
	}
	d := time.Since(t0)
	runtime.KeepAlive(m)
	runtime.KeepAlive(r)
	runtime.KeepAlive(proto)
	return d, nil
}

func runTrials(e *env) (*outcome, error) {
	o := newOutcome(e)
	setups, err := timeSetups(trialSetupReps, trialSetup)
	if err != nil {
		return nil, err
	}
	peak := startHeapSampler()
	deadline := time.Now().Add(e.budget)
	var passes []*trialPass
	var rates, cpus []float64
	for len(passes) == 0 || time.Now().Before(deadline) {
		p, err := runTrialPass(e, o)
		peak.take()
		if err != nil {
			peak.finish()
			return nil, err
		}
		passes = append(passes, p)
		o.attempted += p.flatTrials + p.coTrials
		rates = append(rates, float64(p.flatTrials)/p.flatTime.Seconds())
		cpus = append(cpus, float64(p.cpu.Nanoseconds())/1e3/float64(p.flatTrials+p.coTrials))
	}
	o.setE2E("setup_s", median(setups))
	o.setE2E("throughput_per_s", median(rates))
	o.setE2E("cpu_us_per_op", median(cpus))
	o.setE2E("peak_heap_mb", peak.finish())
	o.note("trials: %d passes of %d flat + %d coroutine trials", len(passes), passes[0].flatTrials, passes[0].coTrials)
	if e.traced() {
		p := passes[0]
		var coRates []float64
		for _, q := range passes {
			coRates = append(coRates, float64(q.coTrials)/q.coTime.Seconds())
		}
		o.setLayer("sim.coroutine.trials_per_s", median(coRates), "1/s")
		o.setLayer("sim.flat.ns_per_step", float64(p.flatTime.Nanoseconds())/float64(p.flatSteps), "ns")
		o.setLayer("sim.coroutine.ns_per_step", float64(p.coTime.Nanoseconds())/float64(p.coSteps), "ns")
		o.setLayer("sim.flat.allocs_per_trial", float64(p.flatAllocs)/float64(p.flatTrials), "count")
		o.setLayer("sim.coroutine.allocs_per_trial", float64(p.coAllocs)/float64(p.coTrials), "count")
		o.setLayer("consensus.steps_per_trial", float64(p.flatSteps)/float64(p.flatTrials), "count")
		o.setLayer("consensus.slots_per_trial", float64(p.slots[0]+p.slots[1])/float64(p.flatTrials), "count")
		schedLayer(e, o, p)
		if err := scalingLayer(e, o); err != nil {
			return nil, err
		}
	}
	return o, nil
}

// schedLayer drives each schedule source alone, with the trials' own
// schedule seeds, for as many slots as the flat engine consumed under
// it, and reports the source's cost per slot.
func schedLayer(e *env, o *outcome, p *trialPass) {
	for k, kind := range trialKinds {
		perTrial := p.slots[k] / (trialPairs * trialChunk)
		var sink int
		t0 := time.Now()
		for pair := range trialPairs {
			base := chunkSeed(e.seed, pair, k)
			for t := range uint64(trialChunk) {
				_, sch := trialSeeds(base, t)
				id := e.tr.begin("sched.Source", 0, t)
				src := sched.New(kind, trialN, sch)
				for range perTrial {
					sink += src.Next()
				}
				e.tr.end(id)
			}
		}
		d := time.Since(t0)
		runtime.KeepAlive(sink)
		o.setLayer("sched.ns_per_slot."+kind.String(), float64(d.Nanoseconds())/float64(perTrial*trialPairs*trialChunk), "ns")
	}
}

// scalingLayer reports how the flat Monte Carlo scales to every CPU:
// trials/s at Workers=nproc over nproc times the rate at Workers=1, on
// the same random-schedule trials.
func scalingLayer(e *env, o *outcome) error {
	const trials = 16384
	rate := func(workers int) (float64, error) {
		id := e.tr.begin("consensus.RunMonteCarlo", 0, uint64(workers))
		r, err := consensus.RunMonteCarlo(consensus.MCConfig{
			N: trialN, Trials: trials, Flat: trialFlat, Sched: sched.KindRandom,
			Seed: chunkSeed(e.seed, -1, 0), Workers: workers,
		})
		e.tr.end(id)
		if err != nil {
			return 0, err
		}
		return float64(r.Trials) / r.Elapsed.Seconds(), nil
	}
	nproc := runtime.NumCPU()
	one, err := rate(1)
	if err != nil {
		return err
	}
	all, err := rate(nproc)
	if err != nil {
		return err
	}
	o.setLayer("mc.scaling_nproc", all/(float64(nproc)*one), "fraction")
	return nil
}

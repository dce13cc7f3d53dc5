package main

import (
	"fmt"
	"math"
	"runtime"
	"sort"
	"strings"
	"sync/atomic"
	"time"

	"github.com/oblivious-consensus/conciliator/internal/consensus"
	"github.com/oblivious-consensus/conciliator/internal/rsm"
	"github.com/oblivious-consensus/conciliator/internal/service"
	"github.com/oblivious-consensus/conciliator/internal/sim"
	"github.com/oblivious-consensus/conciliator/internal/stats"
	"github.com/oblivious-consensus/conciliator/internal/xrand"
)

// kvShards and kvKeys are the node shape and keyspace of both kv
// workloads.
const (
	kvShards = 2
	kvKeys   = 1024
	// kvPipeline is the node's proposer workers per shard (the service
	// default), used again when the decided log is replayed.
	kvPipeline = 2
	// kvSetupReps is how many extra set-ups the kv workloads time before
	// the load starts, on top of one per segment or rung.
	kvSetupReps = 31
)

// Stream labels: each generated input forks its own named stream from
// the workload seed, so no two inputs share random draws.
const (
	labelHTTP uint64 = 0x6b762d68 // "kv-h"
	labelOpen uint64 = 0x6b762d6f // "kv-o"
	labelNode uint64 = 0x6e6f6465 // "node"
)

// keySampler draws key names uniformly or with zipf(1.1) popularity,
// the service load generator's two skews.
type keySampler struct {
	keys []string
	cdf  []float64 // nil for uniform
}

func newKeySampler(n int, zipf bool) *keySampler {
	s := &keySampler{keys: make([]string, n)}
	for i := range s.keys {
		s.keys[i] = fmt.Sprintf("k%05d", i)
	}
	if zipf {
		s.cdf = make([]float64, n)
		total := 0.0
		for i := range n {
			total += 1 / math.Pow(float64(i+1), 1.1)
			s.cdf[i] = total
		}
		for i := range s.cdf {
			s.cdf[i] /= total
		}
	}
	return s
}

func (s *keySampler) key(rng *xrand.Rand) string {
	if s.cdf == nil {
		return s.keys[rng.Intn(len(s.keys))]
	}
	i := sort.SearchFloat64s(s.cdf, rng.Float64())
	return s.keys[min(i, len(s.keys)-1)]
}

// writeOp draws one mutating op with the load generator's mix: 50% PUT,
// 40% INC, 10% DELETE.
func writeOp(rng *xrand.Rand, key string) rsm.Op {
	switch r := rng.Float64(); {
	case r < 0.5:
		return rsm.Op{Kind: rsm.OpSet, Key: key, Value: fmt.Sprintf("v%d", rng.Uint64n(1<<20))}
	case r < 0.9:
		return rsm.Op{Kind: rsm.OpInc, Key: key}
	default:
		return rsm.Op{Kind: rsm.OpDel, Key: key}
	}
}

// startNode starts a fresh node for one segment or rung.
func startNode(seed uint64, tr *tracer) (*service.Node, error) {
	id := tr.begin("service.Start", 0, 0)
	n, err := service.Start(service.Config{Shards: kvShards, Pipeline: kvPipeline, Seed: seed})
	tr.end(id)
	if err != nil {
		return nil, fmt.Errorf("start node: %w", err)
	}
	return n, nil
}

// kvCheck is what verifying one node measured along the way.
type kvCheck struct {
	slots       int64
	ops         int64
	codecNanos  int64
	applyNanos  int64
	decidedLogs [][]string
}

// verifyNode checks a node after its load: acknowledged writes equal the
// ops it applied, every shard's decided log decodes and re-encodes to
// the same bytes, replaying the log through a fresh rsm.KV reproduces
// the shard's fingerprint, and every key reads back as the replay holds
// it.
func verifyNode(n *service.Node, acked int64, o *outcome, tr *tracer) kvCheck {
	var c kvCheck
	id := tr.begin("service.Status", 0, 0)
	st := n.Status()
	tr.end(id)
	var applied int64
	for _, g := range st.Groups {
		applied += g.AppliedOps
		c.slots += int64(g.AppliedSlots)
	}
	if applied != acked {
		o.fail("node applied %d ops but acknowledged %d writes", applied, acked)
	}
	replayed := make([]*rsm.KV, n.Shards())
	for shard := range n.Shards() {
		id := tr.begin("service.DecidedLog", 0, 0)
		log := n.DecidedLog(shard)
		tr.end(id)
		c.decidedLogs = append(c.decidedLogs, log)
		kv := rsm.NewKV()
		for slot, enc := range log {
			t0 := time.Now()
			id := tr.begin("service.DecodeBatch", 0, uint64(slot))
			ops, err := service.DecodeBatch(enc)
			tr.end(id)
			if err != nil {
				o.fail("shard %d slot %d: decided batch does not decode: %v", shard, slot, err)
				continue
			}
			id = tr.begin("service.EncodeBatch", 0, uint64(slot))
			reenc := service.EncodeBatch(ops)
			tr.end(id)
			t1 := time.Now()
			if reenc != enc {
				o.fail("shard %d slot %d: batch encoding is not canonical", shard, slot)
			}
			id = tr.begin("rsm.KV.Apply", 0, uint64(slot))
			for _, bo := range ops {
				kv.Apply(bo.Op)
			}
			tr.end(id)
			c.applyNanos += int64(time.Since(t1))
			c.codecNanos += int64(t1.Sub(t0))
			c.ops += int64(len(ops))
		}
		if got, want := kv.Fingerprint(), n.KVFingerprint(shard); got != want {
			o.fail("shard %d: replayed state differs from the node's (%d vs %d bytes of fingerprint)", shard, len(got), len(want))
		}
		replayed[shard] = kv
	}
	// Every read the node serves must agree with the replayed state.
	for _, key := range newKeySampler(kvKeys, false).keys {
		id := tr.begin("service.Get", 0, 0)
		v, ok := n.Get(key)
		tr.end(id)
		if wv, wok := replayed[n.ShardOf(key)].Get(key); v != wv || ok != wok {
			o.fail("read of %s returned (%q, %v), replayed state holds (%q, %v)", key, v, ok, wv, wok)
		}
	}
	return c
}

// codecLayer reports the codec and apply costs measured by verifyNode.
func codecLayer(o *outcome, checks []kvCheck) {
	var ops, codec, apply int64
	for _, c := range checks {
		ops += c.ops
		codec += c.codecNanos
		apply += c.applyNanos
	}
	if ops > 0 {
		o.setLayer("service.codec_ns_per_op", float64(codec)/float64(ops), "ns")
		o.setLayer("rsm.kv_apply_ns_per_op", float64(apply)/float64(ops), "ns")
	}
}

// replayLayer replays decided logs through a fresh rsm.Log the way a
// service group proposes them (kvPipeline processes under
// sim.RunConcurrent, each claiming the next slot) and reports the rsm,
// consensus and memory per-layer metrics: propose latency, bytes
// allocated and retained per slot, modeled steps and memory operations
// per slot, and the CAS success ratio from the metrics registry.
func replayLayer(o *outcome, tr *tracer, seed uint64, logs [][]string) error {
	var slots, steps int64
	var allocBytes, retained float64
	c0 := registryCounters()
	for shard, log := range logs {
		if len(log) == 0 {
			continue
		}
		h0 := heapLive()
		r0 := readRuntime()
		l := rsm.NewLog[string](kvPipeline, consensus.NewRegister[string])
		var next atomic.Int64
		var mismatch atomic.Int64
		res, err := sim.RunConcurrent(kvPipeline, func(p *sim.Proc) {
			for {
				s := int(next.Add(1) - 1)
				if s >= len(log) {
					return
				}
				id := tr.begin("rsm.Log.Propose", 0, uint64(s))
				d := l.Propose(p, s, log[s])
				tr.end(id)
				if d != log[s] {
					mismatch.Add(1)
				}
			}
		}, sim.Config{AlgSeed: seed + uint64(shard)})
		if err != nil {
			return fmt.Errorf("replay shard %d: %w", shard, err)
		}
		r1 := readRuntime()
		h1 := heapLive()
		runtime.KeepAlive(l)
		if m := mismatch.Load(); m > 0 {
			o.fail("replay shard %d: %d single-proposer slots decided a value nobody proposed", shard, m)
		}
		slots += int64(len(log))
		steps += res.TotalSteps
		allocBytes += float64(r1.allocBytes - r0.allocBytes)
		retained += float64(h1) - float64(h0)
	}
	if slots == 0 {
		return fmt.Errorf("replay: no decided slots")
	}
	c1 := registryCounters()
	var memOps, casRetry int64
	for name, v := range c1 {
		d := v - c0[name]
		switch {
		case !strings.HasPrefix(name, "memory."):
		case strings.HasSuffix(name, ".casretry"):
			casRetry += d
		case strings.HasSuffix(name, ".contended"), strings.HasPrefix(name, "memory.treemax."), strings.HasPrefix(name, "memory.afek."):
		default:
			memOps += d
		}
	}
	fs := float64(slots)
	o.setLayer("rsm.propose_p50_us", median(tr.durations("rsm.Log.Propose")), "us")
	o.setLayer("rsm.propose_alloc_kb", allocBytes/fs/1024, "KB")
	o.setLayer("rsm.retained_kb_per_slot", retained/fs/1024, "KB")
	o.setLayer("consensus.steps_per_slot", float64(steps)/fs, "count")
	o.setLayer("memory.ops_per_slot", float64(memOps)/fs, "count")
	ratio := 1.0
	if memOps+casRetry > 0 {
		ratio = float64(memOps) / float64(memOps+casRetry)
	}
	o.setLayer("memory.cas_success_ratio", ratio, "fraction")
	return nil
}

// batchLayer reports batch occupancy merged over every node of a pass.
func batchLayer(o *outcome, occ *stats.IntHist, slots int64) {
	o.setLayer("service.batch_mean", occ.Mean(), "ops")
	o.setLayer("service.batch_p99", float64(occ.Quantile(0.99)), "ops")
	o.setLayer("service.slots", float64(slots), "count")
}

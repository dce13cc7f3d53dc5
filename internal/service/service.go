// Package service turns the replicated-state-machine layer into a
// servable consensus-as-a-service node: a KV API in front of S
// independent consensus groups, amortizing agreement cost through
// request batching and pipelining.
//
// Three throughput levers, composed:
//
//   - Batching: each group's proposer workers drain a bounded intake
//     queue and propose one Batch command — many tagged client ops
//     encoded as a single string — into one consensus slot, so k client
//     writes cost one agreement instead of k.
//   - Pipelining: up to W proposer workers per group each own the slot
//     they atomically claimed, so W consensus instances are in flight
//     concurrently; a reorder buffer applies decided batches strictly in
//     slot order, preserving state-machine determinism.
//   - Sharding: a consistent hash of the key routes each op to one of S
//     independent groups, each with its own slot counter and KV state, so
//     aggregate throughput scales with S (no cross-group coordination —
//     and therefore no cross-key transactions across shards).
//
// Every mutating op carries a (client, seq) Tag, making byte-identical
// payloads distinct consensus commands — the service-level twin of
// rsm.Tagged — so retries and duplicates can never be conflated.
//
// The consensus work runs on the concurrent simulator substrate: each
// group owns one sim.RunConcurrent universe of W long-lived processes
// (the proposer workers), each deciding its slots on its own
// consensus.FlatConsensus by proposing its worker index.
// Reads are served from the group's applied state under a read lock —
// sequentially consistent with respect to the decided log each group has
// applied, not linearizable across groups.
package service

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"

	"github.com/oblivious-consensus/conciliator/internal/consensus"
	"github.com/oblivious-consensus/conciliator/internal/metrics"
	"github.com/oblivious-consensus/conciliator/internal/rsm"
	"github.com/oblivious-consensus/conciliator/internal/sim"
	"github.com/oblivious-consensus/conciliator/internal/stats"
	"github.com/oblivious-consensus/conciliator/internal/xrand"
)

// ErrClosed reports a submission to a node that is draining or closed.
var ErrClosed = errors.New("service: node is closed")

// Config parameterizes a Node. The zero value of each field selects the
// documented default.
type Config struct {
	// Shards is the number of independent consensus groups S (default 1).
	Shards int
	// Pipeline is the number of proposer workers — and so the maximum
	// number of in-flight consensus slots — per group (default 2).
	Pipeline int
	// BatchMax caps the ops batched into one consensus slot (default 64).
	BatchMax int
	// QueueDepth bounds each group's intake queue; submitters block when
	// their group's queue is full (default 256).
	QueueDepth int
	// Seed seeds the consensus stack's per-process RNG streams. Group g
	// forks its own named stream, so groups are decorrelated.
	Seed uint64
}

func (c *Config) defaults() error {
	if c.Shards == 0 {
		c.Shards = 1
	}
	if c.Pipeline == 0 {
		c.Pipeline = 2
	}
	if c.BatchMax == 0 {
		c.BatchMax = 64
	}
	if c.QueueDepth == 0 {
		c.QueueDepth = 256
	}
	if c.Shards < 0 || c.Pipeline < 0 || c.BatchMax < 0 || c.QueueDepth < 0 {
		return fmt.Errorf("service: negative config value (shards %d, pipeline %d, batch-max %d, queue %d)",
			c.Shards, c.Pipeline, c.BatchMax, c.QueueDepth)
	}
	return nil
}

// acFor is the adopt-commit for w proposer ids: the binary register one
// while the ids fit in {0, 1}, the snapshot one otherwise.
func acFor(w int) string {
	if w <= 2 {
		return consensus.ACRegister
	}
	return consensus.ACSnapshot
}

// slotCore is one proposer worker's consensus instance over the group's
// W processes, process i proposing i. Only a slot's claimant steps it,
// so it needs no lock; Reset reuses it across the worker's slots.
type slotCore struct {
	fc  *consensus.FlatConsensus
	ids []int64 // ids[i] = i
}

func newSlotCore(w int) *slotCore {
	fc, err := consensus.NewFlat(w, consensus.FlatConfig{AC: acFor(w)})
	if err != nil {
		panic(err) // acFor names only adopt-commits NewFlat builds
	}
	ids := make([]int64, w)
	for i := range ids {
		ids[i] = int64(i)
	}
	return &slotCore{fc: fc, ids: ids}
}

// decide runs one slot with worker w as its only stepping process and
// returns the decided proposer id and the steps w took.
func (c *slotCore) decide(w int, rng *xrand.Rand) (decided, steps int64) {
	c.fc.Reset(c.ids)
	c.fc.Init(w, rng)
	for steps = 1; !c.fc.Step(w, rng); steps++ {
	}
	return c.fc.Output(w), steps
}

// OpResult reports where a mutating op committed and, for OpInc, the
// post-increment value.
type OpResult struct {
	Shard int
	Slot  int // group-local slot the op's batch committed in
	Value string
	Found bool
}

// pendingOp is one submission waiting for its batch to commit and apply.
type pendingOp struct {
	tag  Tag
	op   rsm.Op
	done chan OpResult // buffered 1; applier completes it
}

// decidedBatch is a worker's handoff to the group applier: the slot it
// claimed, its own proposer id, the id consensus decided there, and the
// encoded batch with the submissions riding in it.
type decidedBatch struct {
	slot     int
	proposer int64
	decided  int64
	batch    string
	waiters  []*pendingOp
}

// Node is a consensus-as-a-service KV node.
type Node struct {
	cfg    Config
	groups []*group
	seq    atomic.Uint64

	closeMu  sync.RWMutex
	closed   bool
	closeErr error
	wg       sync.WaitGroup
}

type group struct {
	id  int
	cfg *Config

	intake  chan *pendingOp
	decided chan decidedBatch

	nextSlot atomic.Int64

	mu           sync.RWMutex
	kv           *rsm.KV
	decidedLog   []string
	appliedSlots int
	appliedOps   int64
	batchSizes   *stats.IntHist

	runErr error

	// shardOps is the per-shard committed-op counter, resolved at Start
	// from the then-installed registry (enable metrics before Start).
	shardOps *metrics.Counter
}

// Start validates cfg, spins up the consensus groups, and returns a
// serving node. Callers must Close it to drain and release the workers.
func Start(cfg Config) (*Node, error) {
	if err := cfg.defaults(); err != nil {
		return nil, err
	}
	n := &Node{cfg: cfg}
	root := xrand.New(cfg.Seed)
	for gid := 0; gid < cfg.Shards; gid++ {
		g := &group{
			id:         gid,
			cfg:        &n.cfg,
			intake:     make(chan *pendingOp, cfg.QueueDepth),
			decided:    make(chan decidedBatch, cfg.Pipeline),
			kv:         rsm.NewKV(),
			batchSizes: stats.NewIntHist(cfg.BatchMax + 1),
			shardOps:   metrics.Default().Counter(fmt.Sprintf("service.shard_ops.%d", gid)),
		}
		n.groups = append(n.groups, g)
		algSeed := root.SeedNamed(uint64(gid))
		n.wg.Add(2)
		go func() {
			defer n.wg.Done()
			// The group's proposer workers are W long-lived processes in
			// their own concurrent-simulator universe; RunConcurrent
			// returns when every worker has drained and exited.
			_, err := sim.RunConcurrent(g.cfg.Pipeline, g.worker, sim.Config{AlgSeed: algSeed})
			g.runErr = err
			close(g.decided)
		}()
		go func() {
			defer n.wg.Done()
			g.applier()
		}()
	}
	return n, nil
}

// Shards returns the number of consensus groups.
func (n *Node) Shards() int { return n.cfg.Shards }

// ShardOf returns the group serving key: an FNV-1a hash of the key
// modulo the shard count. The mapping is a pure function of (key,
// Shards), so routing is stable across runs and nodes.
func (n *Node) ShardOf(key string) int { return shardOfKey(key, n.cfg.Shards) }

func shardOfKey(key string, shards int) int {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	for i := 0; i < len(key); i++ {
		h ^= uint64(key[i])
		h *= prime64
	}
	return int(h % uint64(shards))
}

// Submit routes one mutating op to its key's group, waits for the batch
// carrying it to commit and apply, and returns the op's result. client
// identifies the submitting session; it only needs to be meaningful to
// the caller (tags are made unique by the node-wide sequence number).
// Submit blocks while the group's intake queue is full — backpressure —
// and fails with ErrClosed once Close has begun.
func (n *Node) Submit(client uint32, op rsm.Op) (OpResult, error) {
	switch op.Kind {
	case rsm.OpSet, rsm.OpDel, rsm.OpInc:
	default:
		return OpResult{}, fmt.Errorf("service: op kind %v is not submittable", op.Kind)
	}
	g := n.groups[n.ShardOf(op.Key)]
	po := &pendingOp{
		tag:  Tag{Client: client, Seq: n.seq.Add(1)},
		op:   op,
		done: make(chan OpResult, 1),
	}
	// The send happens under the read half of closeMu: Close flips the
	// flag and closes the intakes under the write half, so it can only
	// proceed once no submitter is mid-send (a blocked send on a closing
	// channel would panic) and no new submitter can slip in after the
	// drain began.
	n.closeMu.RLock()
	if n.closed {
		n.closeMu.RUnlock()
		return OpResult{}, ErrClosed
	}
	mQueueDepth.Observe(int64(len(g.intake)))
	g.intake <- po
	n.closeMu.RUnlock()
	mSubmitted.Inc()
	return <-po.done, nil
}

// Get serves a read from the key's group state: the result reflects
// every batch that group has applied (sequentially consistent per
// group). Reads cost no consensus.
func (n *Node) Get(key string) (string, bool) {
	g := n.groups[n.ShardOf(key)]
	mReads.Inc()
	g.mu.RLock()
	defer g.mu.RUnlock()
	return g.kv.Get(key)
}

// worker is one proposer process: it blocks for the first queued op,
// drains up to BatchMax-1 more without blocking, claims the group's next
// slot, decides the slot on its own consensus core proposing its worker
// index, and hands the decision with the encoded batch to the applier.
// Exactly one worker proposes per slot (the claim is an atomic counter),
// so by validity the decided id is always the claimant's own.
func (g *group) worker(p *sim.Proc) {
	w := p.ID()
	core := newSlotCore(g.cfg.Pipeline)
	for {
		first, ok := <-g.intake
		if !ok {
			return
		}
		batch := []*pendingOp{first}
	drain:
		for len(batch) < g.cfg.BatchMax {
			select {
			case po, ok := <-g.intake:
				if !ok {
					// Intake closed mid-drain: propose what we have; the
					// next outer receive exits the loop.
					break drain
				}
				batch = append(batch, po)
			default:
				break drain
			}
		}
		ops := make([]BatchOp, len(batch))
		for i, po := range batch {
			ops[i] = BatchOp{Tag: po.tag, Op: po.op}
		}
		enc := EncodeBatch(ops)
		slot := int(g.nextSlot.Add(1) - 1)
		dec, steps := core.decide(w, p.Rng())
		mConsensusSteps.Add(steps)
		g.decided <- decidedBatch{slot: slot, proposer: int64(w), decided: dec, batch: enc, waiters: batch}
	}
}

// applier is the group's single in-order apply loop: workers decide
// slots out of order (pipelining), the reorder buffer holds early
// arrivals, and state only ever advances slot by slot.
func (g *group) applier() {
	stash := make(map[int]decidedBatch)
	next := 0
	for db := range g.decided {
		stash[db.slot] = db
		for {
			d, ok := stash[next]
			if !ok {
				break
			}
			delete(stash, next)
			g.apply(d)
			next++
		}
	}
}

func (g *group) apply(d decidedBatch) {
	if d.decided != d.proposer {
		// Slots are single-proposer by construction, so consensus
		// validity forces the claimant's id; anything else means the
		// slot-claim invariant broke and waiters would be lost.
		panic(fmt.Sprintf("service: group %d slot %d decided proposer %d, claimed by %d", g.id, d.slot, d.decided, d.proposer))
	}
	ops, err := DecodeBatch(d.batch)
	if err != nil {
		panic(fmt.Sprintf("service: group %d slot %d decided undecodable batch: %v", g.id, d.slot, err))
	}
	results := make([]OpResult, len(ops))
	g.mu.Lock()
	for i, bo := range ops {
		g.kv.Apply(bo.Op)
		res := OpResult{Shard: g.id, Slot: d.slot}
		res.Value, res.Found = g.kv.Get(bo.Op.Key)
		results[i] = res
	}
	g.decidedLog = append(g.decidedLog, d.batch)
	g.appliedSlots++
	g.appliedOps += int64(len(ops))
	g.batchSizes.Add(int64(len(ops)))
	g.mu.Unlock()
	for i, po := range d.waiters {
		po.done <- results[i]
	}
	mBatches.Inc()
	mBatchOps.Observe(int64(len(ops)))
	mCommitted.Add(int64(len(ops)))
	g.shardOps.Add(int64(len(ops)))
}

// Close drains the node gracefully: no new submissions are accepted,
// every already-queued op still commits and applies, in-flight slots
// flush in order, and all worker and applier goroutines exit. Close is
// idempotent; later calls return the first result.
func (n *Node) Close() error {
	n.closeMu.Lock()
	if n.closed {
		n.closeMu.Unlock()
		return n.closeErr
	}
	n.closed = true
	for _, g := range n.groups {
		close(g.intake)
	}
	n.closeMu.Unlock()
	n.wg.Wait()
	errs := make([]error, 0, len(n.groups))
	for _, g := range n.groups {
		if g.runErr != nil {
			errs = append(errs, fmt.Errorf("group %d: %w", g.id, g.runErr))
		}
	}
	n.closeErr = errors.Join(errs...)
	return n.closeErr
}

// GroupStatus is one group's point-in-time counters.
type GroupStatus struct {
	Shard        int   `json:"shard"`
	AppliedSlots int   `json:"applied_slots"`
	AppliedOps   int64 `json:"applied_ops"`
	QueueLen     int   `json:"queue_len"`
	Keys         int   `json:"keys"`
}

// Status is the /v1/status payload.
type Status struct {
	Shards     int           `json:"shards"`
	Pipeline   int           `json:"pipeline"`
	BatchMax   int           `json:"batch_max"`
	QueueDepth int           `json:"queue_depth"`
	Protocol   string        `json:"protocol"` // slot adopt-commit: register or snapshot
	Submitted  uint64        `json:"submitted"`
	Groups     []GroupStatus `json:"groups"`
}

// Status snapshots the node.
func (n *Node) Status() Status {
	s := Status{
		Shards:     n.cfg.Shards,
		Pipeline:   n.cfg.Pipeline,
		BatchMax:   n.cfg.BatchMax,
		QueueDepth: n.cfg.QueueDepth,
		Protocol:   acFor(n.cfg.Pipeline),
		Submitted:  n.seq.Load(),
	}
	for _, g := range n.groups {
		g.mu.RLock()
		gs := GroupStatus{
			Shard:        g.id,
			AppliedSlots: g.appliedSlots,
			AppliedOps:   g.appliedOps,
			QueueLen:     len(g.intake),
			Keys:         g.kv.Len(),
		}
		g.mu.RUnlock()
		s.Groups = append(s.Groups, gs)
	}
	return s
}

// DecidedLog returns a copy of shard's applied batch log in slot order —
// the canonical byte string the determinism tests fingerprint.
func (n *Node) DecidedLog(shard int) []string {
	g := n.groups[shard]
	g.mu.RLock()
	defer g.mu.RUnlock()
	out := make([]string, len(g.decidedLog))
	copy(out, g.decidedLog)
	return out
}

// KVFingerprint returns shard's canonical state digest.
func (n *Node) KVFingerprint(shard int) string {
	g := n.groups[shard]
	g.mu.RLock()
	defer g.mu.RUnlock()
	return g.kv.Fingerprint()
}

// BatchOccupancy merges every group's batch-size histogram: how many ops
// rode in each decided consensus slot so far.
func (n *Node) BatchOccupancy() *stats.IntHist {
	out := stats.NewIntHist(n.cfg.BatchMax + 1)
	for _, g := range n.groups {
		g.mu.RLock()
		out.Merge(g.batchSizes)
		g.mu.RUnlock()
	}
	return out
}

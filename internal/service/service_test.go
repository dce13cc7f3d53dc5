package service

import (
	"errors"
	"fmt"
	"runtime"
	"strconv"
	"sync"
	"testing"

	"github.com/oblivious-consensus/conciliator/internal/metrics"
	"github.com/oblivious-consensus/conciliator/internal/rsm"
	"github.com/oblivious-consensus/conciliator/internal/xrand"
)

// sequentialWorkload drives one deterministic op stream through a node,
// one op at a time, and returns every shard's decided log.
func sequentialWorkload(t *testing.T, cfg Config, nops int) ([][]string, []string) {
	t.Helper()
	n, err := Start(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer n.Close()
	rng := xrand.New(99)
	for i := 0; i < nops; i++ {
		op := randOp(rng, fmt.Sprintf("k%03d", rng.Intn(64)))
		if _, err := n.Submit(1, op); err != nil {
			t.Fatalf("op %d: %v", i, err)
		}
	}
	if err := n.Close(); err != nil {
		t.Fatal(err)
	}
	logs := make([][]string, n.Shards())
	fps := make([]string, n.Shards())
	for s := 0; s < n.Shards(); s++ {
		logs[s] = n.DecidedLog(s)
		fps[s] = n.KVFingerprint(s)
	}
	return logs, fps
}

// TestBatchingDeterminism: the same seed and the same arrival order must
// produce byte-identical decided logs and state fingerprints, run to run
// — batching, encoding, and slot assignment are all deterministic for a
// sequential submitter.
func TestBatchingDeterminism(t *testing.T) {
	cfg := Config{Shards: 2, Pipeline: 3, Seed: 42}
	logsA, fpsA := sequentialWorkload(t, cfg, 200)
	logsB, fpsB := sequentialWorkload(t, cfg, 200)
	for s := range logsA {
		if len(logsA[s]) != len(logsB[s]) {
			t.Fatalf("shard %d: %d vs %d decided slots across identical runs", s, len(logsA[s]), len(logsB[s]))
		}
		for i := range logsA[s] {
			if logsA[s][i] != logsB[s][i] {
				t.Fatalf("shard %d slot %d differs across identical runs:\n%q\nvs\n%q", s, i, logsA[s][i], logsB[s][i])
			}
		}
		if fpsA[s] != fpsB[s] {
			t.Fatalf("shard %d fingerprint differs: %s vs %s", s, fpsA[s], fpsB[s])
		}
	}
}

// TestShardRoutingStability pins the key→shard mapping: it is a pure
// function of (key, shard count), identical across nodes and runs, and
// spreads a modest keyspace over every shard. The golden values detect
// accidental hash changes, which would silently re-home every key.
func TestShardRoutingStability(t *testing.T) {
	golden := []struct {
		key    string
		shards int
		want   int
	}{
		{"", 4, shardOfKey("", 4)},
		{"k00000", 4, shardOfKey("k00000", 4)},
		{"counter", 4, shardOfKey("counter", 4)},
	}
	// Self-derived goldens only pin cross-node agreement; the FNV-1a
	// constants are pinned explicitly through one hand-computed point:
	// FNV-1a("a") = 0xaf63dc4c8601ec8c.
	const fnvA = 0xaf63dc4c8601ec8c
	if got := shardOfKey("a", 1<<16); got != fnvA%(1<<16) {
		t.Fatalf("shardOfKey(\"a\", 2^16) = %d, want FNV-1a low bits %d", got, fnvA%(1<<16))
	}

	nA, err := Start(Config{Shards: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer nA.Close()
	nB, err := Start(Config{Shards: 4, Seed: 777, Pipeline: 8})
	if err != nil {
		t.Fatal(err)
	}
	defer nB.Close()
	for _, g := range golden {
		if got := nA.ShardOf(g.key); got != g.want {
			t.Fatalf("node A routes %q to %d, want %d", g.key, got, g.want)
		}
		if got := nB.ShardOf(g.key); got != g.want {
			t.Fatalf("node B routes %q to %d, want %d", g.key, got, g.want)
		}
	}
	hit := make(map[int]int)
	for i := 0; i < 1000; i++ {
		hit[nA.ShardOf(fmt.Sprintf("key-%d", i))]++
	}
	for s := 0; s < 4; s++ {
		if hit[s] == 0 {
			t.Fatalf("1000 keys never touched shard %d: %v", s, hit)
		}
	}
}

// TestPipelinedApplyConcurrentClients is the exactly-once accounting test
// under real concurrency (run with -race): many clients increment both a
// private and a shared counter through pipelined, batched consensus, and
// every increment must land exactly once, in slot order, with strictly
// increasing post-increment values per client.
func TestPipelinedApplyConcurrentClients(t *testing.T) {
	const (
		clients = 8
		incs    = 40
	)
	n, err := Start(Config{Shards: 2, Pipeline: 4, BatchMax: 8, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	defer n.Close()

	var wg sync.WaitGroup
	errs := make([]error, clients)
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			own := fmt.Sprintf("own-%d", c)
			prevOwn, prevSlot := 0, -1
			for i := 0; i < incs; i++ {
				res, err := n.Submit(uint32(c), rsm.Op{Kind: rsm.OpInc, Key: own})
				if err != nil {
					errs[c] = err
					return
				}
				v, err := strconv.Atoi(res.Value)
				if err != nil || v != prevOwn+1 {
					errs[c] = fmt.Errorf("own counter after inc %d: %q (prev %d)", i, res.Value, prevOwn)
					return
				}
				prevOwn = v
				// A client's sequential submits to one shard commit in
				// strictly increasing slots: the batch carrying op i+1 is
				// claimed after op i's slot applied.
				if res.Slot <= prevSlot {
					errs[c] = fmt.Errorf("slot went backwards: %d after %d", res.Slot, prevSlot)
					return
				}
				prevSlot = res.Slot
				if _, err := n.Submit(uint32(c), rsm.Op{Kind: rsm.OpInc, Key: "shared"}); err != nil {
					errs[c] = err
					return
				}
			}
		}(c)
	}
	wg.Wait()
	for c, err := range errs {
		if err != nil {
			t.Fatalf("client %d: %v", c, err)
		}
	}

	for c := 0; c < clients; c++ {
		key := fmt.Sprintf("own-%d", c)
		if v, ok := n.Get(key); !ok || v != strconv.Itoa(incs) {
			t.Fatalf("%s = %q, want %d", key, v, incs)
		}
	}
	if v, ok := n.Get("shared"); !ok || v != strconv.Itoa(clients*incs) {
		t.Fatalf("shared = %q, want %d (an increment was conflated or dropped)", v, clients*incs)
	}

	// Decided logs must replay to the applied state, slot by slot.
	if err := n.Close(); err != nil {
		t.Fatal(err)
	}
	var totalOps int64
	for s := 0; s < n.Shards(); s++ {
		replay := rsm.NewKV()
		for _, enc := range n.DecidedLog(s) {
			ops, err := DecodeBatch(enc)
			if err != nil {
				t.Fatalf("shard %d decided log holds undecodable batch: %v", s, err)
			}
			for _, bo := range ops {
				replay.Apply(bo.Op)
				totalOps++
			}
		}
		if got, want := replay.Fingerprint(), n.KVFingerprint(s); got != want {
			t.Fatalf("shard %d: decided-log replay fingerprint %s != applied state %s", s, got, want)
		}
	}
	if want := int64(clients * incs * 2); totalOps != want {
		t.Fatalf("decided logs carry %d ops, want %d", totalOps, want)
	}
	occ := n.BatchOccupancy()
	if occ.N() == 0 || occ.Sum() != totalOps {
		t.Fatalf("batch occupancy histogram: N=%d Sum=%d, want Sum=%d", occ.N(), occ.Sum(), totalOps)
	}
}

// TestGracefulShutdownDrain: every op accepted before Close commits and
// applies; ops arriving after Close fail fast with ErrClosed; Close is
// idempotent.
func TestGracefulShutdownDrain(t *testing.T) {
	n, err := Start(Config{Shards: 2, Pipeline: 2, BatchMax: 4, QueueDepth: 128, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	const (
		submitters = 32
		keys       = 4
	)
	// Client c increments key drain-(c%keys); each client reports its own
	// success count, so the exact per-key total is known after the race.
	successes := make([]int, submitters)
	var wg sync.WaitGroup
	for c := 0; c < submitters; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for {
				_, err := n.Submit(uint32(c), rsm.Op{Kind: rsm.OpInc, Key: fmt.Sprintf("drain-%d", c%keys)})
				if errors.Is(err, ErrClosed) {
					return
				}
				if err != nil {
					t.Errorf("client %d: %v", c, err)
					return
				}
				successes[c]++
			}
		}(c)
	}
	// Let the submitters race the shutdown: half the point is that Close
	// overlaps in-flight Submits without panicking or stranding waiters.
	if err := n.Close(); err != nil {
		t.Fatal(err)
	}
	wg.Wait()

	perKey := make([]int, keys)
	var want int
	for c, s := range successes {
		perKey[c%keys] += s
		want += s
	}
	var applied int64
	for _, gs := range n.Status().Groups {
		applied += gs.AppliedOps
		if gs.QueueLen != 0 {
			t.Fatalf("shard %d queue not drained: %d ops stranded", gs.Shard, gs.QueueLen)
		}
	}
	if applied != int64(want) {
		t.Fatalf("applied %d ops but %d submissions succeeded — drain lost or invented ops", applied, want)
	}

	if _, err := n.Submit(0, rsm.Op{Kind: rsm.OpSet, Key: "late", Value: "x"}); !errors.Is(err, ErrClosed) {
		t.Fatalf("Submit after Close: %v, want ErrClosed", err)
	}
	if err := n.Close(); err != nil {
		t.Fatalf("second Close: %v", err)
	}
	// Reads still serve the final applied state after Close: every key
	// holds exactly the number of increments that were acknowledged.
	for k, cnt := range perKey {
		key := fmt.Sprintf("drain-%d", k)
		got, ok := n.Get(key)
		switch {
		case cnt == 0 && ok:
			t.Errorf("post-Close read: %s = %q, but no increment was acknowledged", key, got)
		case cnt > 0 && got != strconv.Itoa(cnt):
			t.Errorf("post-Close read: %s = %q (present %v), want %d acknowledged increments", key, got, ok, cnt)
		}
	}
}

// TestSubmitValidation rejects non-mutating kinds and bad configs.
func TestSubmitValidation(t *testing.T) {
	if _, err := Start(Config{Shards: -1}); err == nil {
		t.Fatal("Start accepted negative shard count")
	}
	n, err := Start(Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer n.Close()
	if got := n.Status(); got.Shards != 1 || got.Pipeline != 2 || got.BatchMax != 64 || got.QueueDepth != 256 {
		t.Fatalf("defaults not applied: %+v", got)
	}
	if _, err := n.Submit(0, rsm.Op{Kind: rsm.OpKind(99), Key: "k"}); err == nil {
		t.Fatal("Submit accepted unknown op kind")
	}
}

// TestPipelineWidths runs concurrent clients through nodes of pipeline
// width W = 1, 2 and 4, covering both adopt-commits a slot core can run:
// the register one while the proposer ids fit in {0, 1}, the snapshot
// one above. Every slot's decided id must be its claimant's (apply
// panics otherwise), and Status reports the adopt-commit.
func TestPipelineWidths(t *testing.T) {
	for _, tc := range []struct {
		w    int
		want string
	}{{1, "register"}, {2, "register"}, {4, "snapshot"}} {
		t.Run(fmt.Sprintf("W=%d", tc.w), func(t *testing.T) {
			const clients, incs = 4, 10
			n, err := Start(Config{Pipeline: tc.w, BatchMax: 2, Seed: 8})
			if err != nil {
				t.Fatal(err)
			}
			defer n.Close()
			var wg sync.WaitGroup
			for c := 0; c < clients; c++ {
				wg.Add(1)
				go func(c int) {
					defer wg.Done()
					for i := 0; i < incs; i++ {
						if _, err := n.Submit(uint32(c), rsm.Op{Kind: rsm.OpInc, Key: "n"}); err != nil {
							t.Error(err)
							return
						}
					}
				}(c)
			}
			wg.Wait()
			if v, _ := n.Get("n"); v != strconv.Itoa(clients*incs) {
				t.Fatalf("n = %q, want %d", v, clients*incs)
			}
			if st := n.Status(); st.Protocol != tc.want {
				t.Fatalf("status protocol %q, want %q", st.Protocol, tc.want)
			}
		})
	}
}

// TestSlotCoreZeroAllocs: deciding a slot (Reset, Init and the Step
// loop on the worker's reused core) allocates nothing, for both
// adopt-commits.
func TestSlotCoreZeroAllocs(t *testing.T) {
	for _, w := range []int{2, 4} {
		core := newSlotCore(w)
		rng := xrand.New(1)
		pid := w - 1
		if got := testing.AllocsPerRun(100, func() { core.decide(pid, rng) }); got != 0 {
			t.Errorf("W=%d: %v allocs per slot, want 0", w, got)
		}
	}
}

// TestConsensusStepsPerSlot pins the cost of agreement the service pays:
// a claimant deciding its slot alone takes 15 steps at W = 2, and the
// service.consensus_steps counter publishes exactly that per batch.
func TestConsensusStepsPerSlot(t *testing.T) {
	const want = 15
	core := newSlotCore(2)
	rng := xrand.New(3)
	for i := 0; i < 50; i++ {
		w := i % 2
		dec, steps := core.decide(w, rng)
		if dec != int64(w) || steps != want {
			t.Fatalf("slot %d by worker %d: decided %d in %d steps, want %d in %d", i, w, dec, steps, w, want)
		}
	}

	r := metrics.New()
	metrics.SetDefault(r)
	defer metrics.SetDefault(nil)
	n, err := Start(Config{Shards: 2, Pipeline: 2, Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 40; i++ {
		if _, err := n.Submit(0, rsm.Op{Kind: rsm.OpInc, Key: fmt.Sprintf("k%d", i)}); err != nil {
			t.Fatal(err)
		}
	}
	if err := n.Close(); err != nil {
		t.Fatal(err)
	}
	snap := r.Snapshot()
	steps, batches := snap.Counters["service.consensus_steps"], snap.Counters["service.batches"]
	if batches == 0 || steps != want*batches {
		t.Fatalf("service.consensus_steps = %d over %d batches, want %d per batch", steps, batches, want)
	}
}

// TestRetainedHeapPerWrite bounds what a node keeps per committed write:
// the decided batch and the KV entry, not per-slot consensus objects.
// 40k writes over 2 shards must grow the live heap by under 1 KB each.
func TestRetainedHeapPerWrite(t *testing.T) {
	if testing.Short() {
		t.Skip("40k writes")
	}
	const clients, writes = 8, 40000
	n, err := Start(Config{Shards: 2, Seed: 6})
	if err != nil {
		t.Fatal(err)
	}
	defer n.Close()
	var ms runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&ms)
	before := ms.HeapAlloc
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := c; i < writes; i += clients {
				op := rsm.Op{Kind: rsm.OpSet, Key: fmt.Sprintf("k%d", i%256), Value: "v"}
				if _, err := n.Submit(uint32(c), op); err != nil {
					t.Error(err)
					return
				}
			}
		}(c)
	}
	wg.Wait()
	runtime.GC()
	runtime.ReadMemStats(&ms)
	perWrite := (float64(ms.HeapAlloc) - float64(before)) / writes
	t.Logf("retained heap: %.0f B per write", perWrite)
	if perWrite >= 1024 {
		t.Fatalf("retained heap %.0f B per write, want < 1 KB", perWrite)
	}
}

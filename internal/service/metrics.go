package service

import "github.com/oblivious-consensus/conciliator/internal/metrics"

// Cached instruments; nil (free no-ops) until a registry is installed.
// Install the registry (metrics.SetDefault) before Start so the
// per-shard counters resolve too — see group.shardOps.
var (
	mSubmitted      *metrics.Counter   // service.ops_submitted: mutating ops accepted into a queue
	mCommitted      *metrics.Counter   // service.ops_committed: ops applied from decided batches
	mReads          *metrics.Counter   // service.reads: Get operations served from applied state
	mBatches        *metrics.Counter   // service.batches: consensus slots decided and applied
	mBatchOps       *metrics.Histogram // service.batch_ops: ops per decided batch (occupancy)
	mQueueDepth     *metrics.Histogram // service.queue_depth: intake queue length sampled at enqueue
	mConsensusSteps *metrics.Counter   // service.consensus_steps: consensus-core steps taken deciding slots
)

func init() {
	metrics.OnEnable(func(r *metrics.Registry) {
		mSubmitted = r.Counter("service.ops_submitted")
		mCommitted = r.Counter("service.ops_committed")
		mReads = r.Counter("service.reads")
		mBatches = r.Counter("service.batches")
		mBatchOps = r.Histogram("service.batch_ops")
		mQueueDepth = r.Histogram("service.queue_depth")
		mConsensusSteps = r.Counter("service.consensus_steps")
	})
}

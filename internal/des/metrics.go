package des

import "github.com/oblivious-consensus/conciliator/internal/metrics"

// Cached instruments; nil (free no-ops) until a registry is installed.
// Each is recorded once per Run, never per event, so a disabled registry
// costs the engine one nil check per run.
var (
	mRuns    *metrics.Counter   // des.runs: DES runs executed
	mEvents  *metrics.Counter   // des.events: events handled, summed over runs
	mVirtual *metrics.Histogram // des.virtual_ms: virtual time per run, in ms
)

func init() {
	metrics.OnEnable(func(r *metrics.Registry) {
		mRuns = r.Counter("des.runs")
		mEvents = r.Counter("des.events")
		mVirtual = r.Histogram("des.virtual_ms")
	})
}

// observeRun records one run into the registry. A rejected
// configuration (zero Result) executed nothing and records nothing.
func observeRun(res Result) {
	if mRuns == nil || res.N == 0 {
		return
	}
	mRuns.Inc()
	mEvents.Add(res.Events)
	mVirtual.Observe(res.VirtualTime.Milliseconds())
}

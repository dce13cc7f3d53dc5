package des

import (
	"testing"

	"github.com/oblivious-consensus/conciliator/internal/metrics"
)

// TestRunMetricsReconcile pins the DES instruments against the runs'
// own results: with the registry on, des.runs counts the executed runs,
// des.events sums Result.Events, and des.virtual_ms holds one
// observation per run; a rejected configuration records nothing.
func TestRunMetricsReconcile(t *testing.T) {
	r := metrics.New()
	metrics.SetDefault(r)
	defer metrics.SetDefault(nil)

	var events, virtualMs int64
	runs := 0
	for _, cfg := range []Config{
		{N: 64, Protocol: ProtoSifter, Seed: 1},
		{N: 48, Protocol: ProtoPriorityMax, Seed: 2, Net: NetConfig{Loss: 0.1}},
		{N: 32, Protocol: ProtoSifterHalf, Seed: 3, Chaos: ChaosConfig{ProcRate: 0.3, ServerWindows: 1}},
		{N: 64, Protocol: ProtoSifterHalf, Seed: 4, MaxEvents: 100}, // budget error: still a run
	} {
		res, _ := Run(cfg)
		runs++
		events += res.Events
		virtualMs += res.VirtualTime.Milliseconds()
	}
	if _, err := Run(Config{N: 0, Protocol: ProtoSifter}); err == nil {
		t.Fatal("n=0 validated")
	}

	snap := r.Snapshot()
	if got := snap.Counters["des.runs"]; got != int64(runs) {
		t.Errorf("des.runs = %d, want %d", got, runs)
	}
	if got := snap.Counters["des.events"]; got != events || events == 0 {
		t.Errorf("des.events = %d, want the results' sum %d", got, events)
	}
	h := snap.Histograms["des.virtual_ms"]
	if h.Count != int64(runs) || h.Sum != virtualMs {
		t.Errorf("des.virtual_ms count %d sum %d, want %d runs summing %d ms", h.Count, h.Sum, runs, virtualMs)
	}
	if virtualMs <= 0 {
		t.Errorf("runs took %d virtual ms in total, want a positive duration", virtualMs)
	}
}

package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
	"time"
)

func writeBaseline(t *testing.T, rec any) string {
	t.Helper()
	data, err := json.Marshal(rec)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "baseline.json")
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// thisHost is a record header matching the running host's shape.
func thisHost() recordHeader { return newHeader("conciliator-bench/v1", 0) }

// TestCompareBaselineHostMismatchSkips: a baseline recorded on a host
// with a different CPU count or GOMAXPROCS must be skipped with a
// warning, not gated on — throughput is not comparable across host
// shapes (the committed records were measured on a 1-CPU runner).
// TestNewHeaderProvenance pins the toolchain and start-time fields every
// record header carries.
func TestNewHeaderProvenance(t *testing.T) {
	h := newHeader("conciliator-bench/v1", 7)
	if h.GoVersion != runtime.Version() {
		t.Errorf("GoVersion = %q, want %q", h.GoVersion, runtime.Version())
	}
	started, err := time.Parse(time.RFC3339, h.Started)
	if err != nil {
		t.Fatalf("Started = %q is not RFC 3339: %v", h.Started, err)
	}
	if started.Location() != time.UTC {
		t.Errorf("Started = %q, want UTC", h.Started)
	}
	if d := time.Since(started); d < -time.Second || d > time.Minute {
		t.Errorf("Started = %q is %v from now", h.Started, d)
	}
}

func TestCompareBaselineHostMismatchSkips(t *testing.T) {
	got := []rate{{id: "concurrent-steps/x", v: 1}}
	cpus, procs := thisHost(), thisHost()
	cpus.NumCPU++
	procs.GOMAXPROCS++
	for name, h := range map[string]recordHeader{"cpu count differs": cpus, "gomaxprocs differs": procs} {
		t.Run(name, func(t *testing.T) {
			path := writeBaseline(t, benchRecord{
				recordHeader: h,
				Experiments:  []benchEntry{{ID: "concurrent-steps/x", StepsPerSec: 100}},
			})
			var b strings.Builder
			// The rate is 100x below baseline: without the skip this
			// would be a hard regression failure.
			if err := compareBaseline(&b, path, "concurrent-steps/", "steps/s", got); err != nil {
				t.Fatalf("host mismatch gated instead of skipping: %v", err)
			}
			out := b.String()
			if !strings.Contains(out, "skipping") || !strings.Contains(out, "not comparable") {
				t.Errorf("no skip warning printed:\n%s", out)
			}
		})
	}
}

// TestCompareBaselineSameHostStillGates: the mismatch skip must not
// disable the gate when the host shape matches the record.
func TestCompareBaselineSameHostStillGates(t *testing.T) {
	path := writeBaseline(t, benchRecord{
		recordHeader: thisHost(),
		Experiments:  []benchEntry{{ID: "controlled-steps/x", StepsPerSec: 1000}},
	})
	var b strings.Builder
	err := compareBaseline(&b, path, "controlled-steps/", "steps/s", []rate{{id: "controlled-steps/x", v: 10}})
	if err == nil {
		t.Fatalf("100x regression on a matching host passed:\n%s", b.String())
	}
	if !strings.Contains(err.Error(), "regressed") {
		t.Errorf("unexpected error: %v", err)
	}

	// And a non-regressed entry still passes.
	b.Reset()
	if err := compareBaseline(&b, path, "controlled-steps/", "steps/s", []rate{{id: "controlled-steps/x", v: 990}}); err != nil {
		t.Errorf("healthy entry failed the gate: %v", err)
	}
}

// TestCompareBaselineLegacyRecordWithoutGomaxprocs: records written
// before the gomaxprocs field existed (zero value) are checked on CPU
// count alone rather than spuriously skipped.
func TestCompareBaselineLegacyRecordWithoutGomaxprocs(t *testing.T) {
	h := thisHost()
	h.GOMAXPROCS = 0
	path := writeBaseline(t, benchRecord{
		recordHeader: h,
		Experiments:  []benchEntry{{ID: "controlled-steps/x", StepsPerSec: 1000}},
	})
	var b strings.Builder
	if err := compareBaseline(&b, path, "controlled-steps/", "steps/s", []rate{{id: "controlled-steps/x", v: 950}}); err != nil {
		t.Fatalf("legacy record without gomaxprocs was not compared: %v", err)
	}
	if strings.Contains(b.String(), "skipping") {
		t.Errorf("legacy record spuriously skipped:\n%s", b.String())
	}
}

// TestCommittedBaselinesGate: each committed baseline record parses
// through the one compareBaseline, and gates when its host shape is
// rewritten to match this host — its own figures pass, a 100x drop
// fails.
func TestCommittedBaselinesGate(t *testing.T) {
	for _, tc := range []struct {
		file, prefix, unit, key, list string
	}{
		{"BENCH_controlled_steps.json", "controlled-steps/", "steps/s", "steps_per_sec", "experiments"},
		{"BENCH_controlled_steps.json", "flat-steps/", "steps/s", "steps_per_sec", "experiments"},
		{"BENCH_concurrent_steps.json", "concurrent-steps/", "steps/s", "steps_per_sec", "experiments"},
		{"BENCH_rsm_service.json", "", "writes/s", "writes_per_sec", "entries"},
	} {
		t.Run(tc.file+"/"+tc.prefix, func(t *testing.T) {
			committed := filepath.Join("..", "..", tc.file)
			var b strings.Builder
			// As committed: either gated or skipped on host shape, never
			// a parse error.
			var rec map[string]any
			data, err := os.ReadFile(committed)
			if err != nil {
				t.Fatal(err)
			}
			if err := json.Unmarshal(data, &rec); err != nil {
				t.Fatal(err)
			}
			var own, dropped []rate
			for _, e := range rec[tc.list].([]any) {
				m := e.(map[string]any)
				id, v := m["id"].(string), m[tc.key].(float64)
				own = append(own, rate{id: id, v: v})
				dropped = append(dropped, rate{id: id, v: v / 100})
			}
			if len(own) == 0 {
				t.Fatalf("%s has no %s", tc.file, tc.list)
			}
			if err := compareBaseline(&b, committed, tc.prefix, tc.unit, own); err != nil {
				t.Fatalf("committed record against its own figures: %v\n%s", err, b.String())
			}

			rec["num_cpu"], rec["gomaxprocs"] = runtime.NumCPU(), runtime.GOMAXPROCS(0)
			local := writeBaseline(t, rec)
			b.Reset()
			if err := compareBaseline(&b, local, tc.prefix, tc.unit, own); err != nil {
				t.Fatalf("own figures failed the gate: %v\n%s", err, b.String())
			}
			if strings.Contains(b.String(), "skipping") {
				t.Fatalf("matching host skipped:\n%s", b.String())
			}
			if err := compareBaseline(&b, local, tc.prefix, tc.unit, dropped); err == nil || !strings.Contains(err.Error(), "regressed") {
				t.Fatalf("100x drop passed the gate: %v", err)
			}
		})
	}
}

package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestMCModeRejectsContradictoryFlags pins the up-front validation of
// the Monte Carlo run shape: another mode's flags and malformed specs
// must error before any trial executes.
func TestMCModeRejectsContradictoryFlags(t *testing.T) {
	cases := []struct {
		name string
		args []string
		want string
	}{
		{"with all", []string{"-all"}, unknownFlag},
		{"with des", []string{"-latency", "exp:1ms"}, unknownFlag},
		{"with fault", []string{"-kinds", "all"}, unknownFlag},
		{"with attack", []string{"-budget", "8"}, unknownFlag},
		{"with bench-json", []string{"-bench-json", "x.json"}, unknownFlag},
		{"bad pair", []string{"-protocols", "sifter"}, "conciliator:adopt-commit"},
		{"empty protocols", []string{"-protocols", " , "}, "selects no protocols"},
		{"bad conciliator", []string{"-protocols", "bogus:register", "-trials", "1"}, "unknown flat conciliator"},
		{"bad sched", []string{"-sched", "bogus"}, "unknown -sched"},
		{"bad format", []string{"-format", "bogus"}, "unknown format"},
		{"zero n", []string{"-n", "0"}, "must be positive"},
		{"negative trials", []string{"-trials", "-5"}, "must be positive"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var b strings.Builder
			err := run(append([]string{"mc"}, tc.args...), &b)
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("args %v: err = %v, want containing %q", tc.args, err, tc.want)
			}
		})
	}
}

// TestMCModeRunsAndWritesRecord pins the end-to-end Monte Carlo mode: a
// small sweep renders a table and writes a valid conciliator-mc/v1
// record whose entries carry sane, internally consistent statistics.
func TestMCModeRunsAndWritesRecord(t *testing.T) {
	path := filepath.Join(t.TempDir(), "mc.json")
	var b strings.Builder
	err := run([]string{
		"mc", "-protocols", "sifter:register,priority-max:snapshot",
		"-n", "8", "-trials", "200", "-json", path,
	}, &b)
	if err != nil {
		t.Fatalf("mc run failed: %v\noutput:\n%s", err, b.String())
	}
	out := b.String()
	if !strings.Contains(out, "flat-engine Monte Carlo") || !strings.Contains(out, "sifter+register") {
		t.Errorf("table missing from output:\n%s", out)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var rec mcRecord
	if err := json.Unmarshal(data, &rec); err != nil {
		t.Fatalf("parsing record: %v", err)
	}
	if rec.Schema != "conciliator-mc/v1" {
		t.Errorf("schema = %q", rec.Schema)
	}
	if rec.N != 8 || rec.Trials != 200 || len(rec.Entries) != 2 {
		t.Fatalf("record shape: n=%d trials=%d entries=%d", rec.N, rec.Trials, len(rec.Entries))
	}
	for _, e := range rec.Entries {
		if e.Agreed != e.Trials {
			t.Errorf("%s: agreement failed in %d of %d trials", e.ID, e.Trials-e.Agreed, e.Trials)
		}
		if e.P50 <= 0 || e.P99 < e.P50 || e.MaxSteps < e.P999 || e.P99Lo > e.P99 || e.P99Hi < e.P99 {
			t.Errorf("%s: inconsistent quantiles %+v", e.ID, e)
		}
		if e.TotalSteps <= 0 || e.StepsPerSec <= 0 {
			t.Errorf("%s: missing throughput figures", e.ID)
		}
	}
}

// TestMCModeDeterministicAcrossParallelism pins that the committed-record
// statistics do not depend on -parallel (timing fields aside).
func TestMCModeDeterministicAcrossParallelism(t *testing.T) {
	records := make([]mcRecord, 2)
	for i, par := range []string{"1", "4"} {
		path := filepath.Join(t.TempDir(), "mc.json")
		var b strings.Builder
		if err := run([]string{
			"mc", "-protocols", "sifter-half:register", "-n", "8", "-trials", "300",
			"-parallel", par, "-json", path,
		}, &b); err != nil {
			t.Fatalf("parallel=%s: %v", par, err)
		}
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if err := json.Unmarshal(data, &records[i]); err != nil {
			t.Fatal(err)
		}
	}
	a, b := records[0].Entries[0], records[1].Entries[0]
	a.WallSeconds, b.WallSeconds = 0, 0
	a.StepsPerSec, b.StepsPerSec = 0, 0
	if a != b {
		t.Fatalf("statistics drifted across -parallel:\n1: %+v\n4: %+v", a, b)
	}
}

// TestFlatStepsEntriesShape pins the flat-engine microbenchmark entries:
// same workload names as the coroutine suite under the flat-steps/
// prefix, with modeled-step totals that match the deterministic
// workloads.
func TestFlatStepsEntriesShape(t *testing.T) {
	entries := flatStepsEntries()
	if len(entries) != 4 {
		t.Fatalf("got %d entries, want 4", len(entries))
	}
	wantSteps := map[string]int64{
		"flat-steps/round-robin/n=8":  8 * 2048 * flatStepsRuns,
		"flat-steps/round-robin/n=64": 64 * 256 * flatStepsRuns,
		"flat-steps/random/n=64":      64 * 256 * flatStepsRuns,
		"flat-steps/skewed-tail/n=64": (4096 + 63) * flatStepsRuns,
	}
	for _, e := range entries {
		want, ok := wantSteps[e.ID]
		if !ok {
			t.Errorf("unexpected entry %q", e.ID)
			continue
		}
		if e.Steps != want {
			t.Errorf("%s: steps = %d, want %d", e.ID, e.Steps, want)
		}
		if e.StepsPerSec <= 0 {
			t.Errorf("%s: no steps/s", e.ID)
		}
	}
}

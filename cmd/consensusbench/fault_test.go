package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"github.com/oblivious-consensus/conciliator/internal/artifact"
	"github.com/oblivious-consensus/conciliator/internal/fault"
)

// TestFaultFlagValidation: every bad fault flag, and every flag of
// another mode, must fail fast with a descriptive error and nothing
// written — these runs can take minutes, so a typo must not burn the
// budget first.
func TestFaultFlagValidation(t *testing.T) {
	tests := []struct {
		name string
		args []string
		want string // substring of the error
	}{
		{"unknown fault kind", []string{"fault", "-kinds", "bogus"}, "unknown fault kind"},
		{"empty fault list", []string{"fault", "-kinds", " , "}, "no fault kinds"},
		{"negative stutter", []string{"fault", "-kinds", "stutter", "-stutter", "-2"}, "-stutter"},
		{"negative trials", []string{"fault", "-trials", "-1"}, "-trials"},
		{"negative n", []string{"fault", "-n", "-4"}, "-n"},
		{"negative shrink", []string{"fault", "-shrink", "-9"}, "-shrink"},
		{"unknown sched kind", []string{"fault", "-sched", "warp"}, "unknown schedule kind"},
		{"empty sched list", []string{"fault", "-sched", " , "}, "no schedule kinds"},
		{"replay missing file", []string{"replay", filepath.Join(t.TempDir(), "nope.json")}, "nope.json"},
		{"baseline conflict", []string{"fault", "-bench-baseline", "b.json"}, unknownFlag},
		{"bench-json conflict", []string{"fault", "-bench-json", "b.json"}, unknownFlag},
		{"experiment conflict", []string{"fault", "-experiment", "E3"}, unknownFlag},
		{"all conflict", []string{"fault", "-all"}, unknownFlag},
		{"replay plus sweep", []string{"replay", "-kinds", "all", "r.json"}, unknownFlag},
		{"replay plus json", []string{"replay", "-json", "x.json", "r.json"}, unknownFlag},
		{"orphan fault flag", []string{"exp", "-shrink", "5"}, unknownFlag},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			var b strings.Builder
			err := run(tt.args, &b)
			if err == nil {
				t.Fatalf("args %v accepted", tt.args)
			}
			if !strings.Contains(err.Error(), tt.want) {
				t.Errorf("error %q does not mention %q", err, tt.want)
			}
			if b.Len() != 0 {
				t.Errorf("output written before validation: %q", b.String())
			}
		})
	}
}

func TestFaultSweepSmokeAndReport(t *testing.T) {
	reportPath := filepath.Join(t.TempDir(), "fault.json")
	var b strings.Builder
	err := run([]string{
		"fault",
		"-kinds", "atomic,stutter",
		"-sched", "round-robin",
		"-trials", "3",
		"-json", reportPath,
	}, &b)
	if err != nil {
		t.Fatalf("sweep failed: %v\n%s", err, b.String())
	}
	out := b.String()
	if !strings.Contains(out, "atomic+stutter/round-robin") {
		t.Errorf("cell lines missing:\n%s", out)
	}
	if !strings.Contains(out, "cells,") {
		t.Errorf("summary line missing:\n%s", out)
	}

	data, err := os.ReadFile(reportPath)
	if err != nil {
		t.Fatal(err)
	}
	var rep faultReport
	if err := json.Unmarshal(data, &rep); err != nil {
		t.Fatalf("invalid report JSON: %v", err)
	}
	if rep.Schema != "conciliator-fault-report/v1" {
		t.Errorf("schema = %q", rep.Schema)
	}
	if rep.Seed == 0 {
		t.Error("default seed not recorded")
	}
	// atomic+stutter pins both axes: 1 semantics x 1 proc fault x 1 sched x
	// 2 workloads.
	if len(rep.Cells) != 2 {
		t.Fatalf("cells = %d, want 2", len(rep.Cells))
	}
	for _, c := range rep.Cells {
		if !c.Atomic || c.Violated != 0 {
			t.Errorf("atomic cell unsound: %+v", c)
		}
		if c.Trials != 3 {
			t.Errorf("trials = %d", c.Trials)
		}
	}
}

// TestFaultSweepReplayRoundTrip is the end-to-end satellite: a weakened
// sweep produces a shrunk artifact on disk, and replay confirms
// it reproduces.
func TestFaultSweepReplayRoundTrip(t *testing.T) {
	reproDir := t.TempDir()
	var b strings.Builder
	err := run([]string{
		"fault",
		"-kinds", "safe",
		"-sched", "round-robin,random",
		"-trials", "8",
		"-repros", reproDir,
	}, &b)
	if err != nil {
		t.Fatalf("sweep failed: %v\n%s", err, b.String())
	}
	entries, err := os.ReadDir(reproDir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) == 0 {
		t.Fatalf("safe-register sweep saved no repros:\n%s", b.String())
	}

	artifact := filepath.Join(reproDir, entries[0].Name())
	b.Reset()
	if err := run([]string{"replay", artifact}, &b); err != nil {
		t.Fatalf("replay failed: %v\n%s", err, b.String())
	}
	if !strings.Contains(b.String(), "reproduced") {
		t.Errorf("replay did not confirm reproduction:\n%s", b.String())
	}
}

func TestFaultReplayStaleArtifact(t *testing.T) {
	// An artifact whose schedule injects nothing cannot reproduce a
	// violation; the replay must fail loudly rather than "pass".
	path := filepath.Join(t.TempDir(), "stale.json")
	artifact := `{
  "schema": "conciliator-fault-repro/v1",
  "n": 2,
  "sched": "round-robin",
  "sched_seed": 1,
  "alg_seed": 1,
  "workload": "maxreg-probe",
  "fault": {"schema": "conciliator-fault/v1", "n": 2, "events": []},
  "violations": [{"monitor": "maxreg-monotonic", "detail": "recorded elsewhere"}]
}`
	if err := os.WriteFile(path, []byte(artifact), 0o644); err != nil {
		t.Fatal(err)
	}
	var b strings.Builder
	err := run([]string{"replay", path}, &b)
	if err == nil || !strings.Contains(err.Error(), "no violations") {
		t.Fatalf("stale artifact not rejected: %v", err)
	}
}

// TestFaultReplayRejectsDivergentViolations: replay demands the exact
// recorded violations, so an artifact that records fewer (or different)
// violations than its run produces fails instead of passing on "some
// violation fired".
func TestFaultReplayRejectsDivergentViolations(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("..", "..", "FAULT_REPRO_regular_stale_read.json"))
	if err != nil {
		t.Fatal(err)
	}
	r, err := artifact.Decode[fault.Repro](data)
	if err != nil {
		t.Fatal(err)
	}
	r.Violations = r.Violations[:len(r.Violations)-1]
	path := filepath.Join(t.TempDir(), "divergent.json")
	if err := artifact.Save(path, r); err != nil {
		t.Fatal(err)
	}
	var b strings.Builder
	err = run([]string{"replay", path}, &b)
	if err == nil || !strings.Contains(err.Error(), "diverged") {
		t.Fatalf("divergent artifact not rejected: %v\n%s", err, b.String())
	}
}

func TestFaultSweepDeterministicOutput(t *testing.T) {
	render := func() string {
		var b strings.Builder
		if err := run([]string{
			"fault",
			"-kinds", "regular,stall",
			"-sched", "random",
			"-trials", "4",
		}, &b); err != nil {
			t.Fatal(err)
		}
		return b.String()
	}
	a, c := render(), render()
	// The summary line carries wall time; compare everything above it.
	trim := func(s string) string {
		i := strings.LastIndex(s, "fault: ")
		return s[:i]
	}
	if trim(a) != trim(c) {
		t.Errorf("sweep output differs across runs:\n%s\nvs\n%s", a, c)
	}
}

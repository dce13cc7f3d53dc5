package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"github.com/oblivious-consensus/conciliator/internal/attack/search"
)

// TestAttackFlagValidation: every malformed attack flag, and every flag
// of another mode, must fail fast with a descriptive error — a full
// search spends thousands of simulated consensus runs, so a typo must not
// burn that budget first. Another mode's flag, in its old prefixed
// spelling or its subcommand spelling, is an unknown-flag error.
func TestAttackFlagValidation(t *testing.T) {
	tests := []struct {
		name string
		args []string
		want string // substring of the error
	}{
		{"unknown protocol", []string{"attack", "-protocols", "paxos"}, "unknown protocol"},
		{"empty protocols", []string{"attack", "-protocols", " , "}, "no protocols"},
		{"n too small", []string{"attack", "-protocols", "sifter", "-n", "1"}, "outside [2, 64]"},
		{"n too large", []string{"attack", "-protocols", "sifter", "-n", "65"}, "outside [2, 64]"},
		{"negative budget", []string{"attack", "-protocols", "sifter", "-budget", "-4"}, "-budget"},
		{"negative trials", []string{"attack", "-protocols", "sifter", "-trials", "-1"}, "-trials"},
		{"bad format", []string{"attack", "-protocols", "sifter", "-format", "xml"}, "unknown format"},
		{"replay missing file", []string{"replay", "no/such/record.json"}, "replay"},
		{"des conflict", []string{"attack", "-latency", "exp:1ms"}, unknownFlag},
		{"des-json conflict", []string{"attack", "-des-json", "d.json"}, unknownFlag},
		{"des-trials conflict", []string{"attack", "-des-trials", "3"}, unknownFlag},
		{"fault conflict", []string{"attack", "-kinds", "all"}, unknownFlag},
		{"fault-trials conflict", []string{"attack", "-fault-trials", "3"}, unknownFlag},
		{"fault-replay conflict", []string{"attack", "-fault-replay", "r.json"}, unknownFlag},
		{"bench-json conflict", []string{"attack", "-bench-json", "b.json"}, unknownFlag},
		{"bench-baseline conflict", []string{"attack", "-bench-baseline", "b.json"}, unknownFlag},
		{"bench-concurrent-json conflict", []string{"attack", "-bench-concurrent-json", "b.json"}, unknownFlag},
		{"bench-concurrent-baseline conflict", []string{"attack", "-bench-concurrent-baseline", "b.json"}, unknownFlag},
		{"experiment conflict", []string{"attack", "-experiment", "E19"}, unknownFlag},
		{"all conflict", []string{"attack", "-all"}, unknownFlag},
		{"list conflict", []string{"attack", "-list"}, unknownFlag},
		{"replay with attack", []string{"replay", "r.json", "attack"}, "exactly one artifact path"},
		{"replay with json", []string{"replay", "-json", "a.json", "r.json"}, unknownFlag},
		{"replay with n", []string{"replay", "-n", "8", "r.json"}, unknownFlag},
		{"replay with budget", []string{"replay", "-budget", "8", "r.json"}, unknownFlag},
		{"replay with trials", []string{"replay", "-trials", "2", "r.json"}, unknownFlag},
		{"replay with faults", []string{"replay", "-faults", "r.json"}, unknownFlag},
		{"orphan attack-json", []string{"exp", "-json", "a.json"}, unknownFlag},
		{"orphan attack-n", []string{"exp", "-n", "8"}, unknownFlag},
		{"orphan attack-budget", []string{"exp", "-budget", "32"}, unknownFlag},
		{"orphan attack-trials", []string{"load", "-trials", "2"}, unknownFlag},
		{"orphan attack-faults", []string{"exp", "-faults"}, unknownFlag},
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
		})
	}
}

// TestAttackSearchSmokeAndRecord runs a tiny two-protocol search through
// the CLI, checks the table, and verifies each written artifact decodes
// and replays byte-identically through the replay subcommand.
func TestAttackSearchSmokeAndRecord(t *testing.T) {
	base := filepath.Join(t.TempDir(), "attack.json")
	var b strings.Builder
	err := run([]string{
		"attack",
		"-quick",
		"-budget", "8",
		"-json", base,
	}, &b)
	if err != nil {
		t.Fatalf("search failed: %v\n%s", err, b.String())
	}
	out := b.String()
	for _, want := range []string{"oblivious adversary search", "sifter", "priority", "white-box"} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}

	for _, protocol := range search.Protocols() {
		path := attackArtifactPath(base, protocol, true)
		rec, err := search.LoadRecord(path)
		if err != nil {
			t.Fatalf("artifact for %s not written/decodable: %v", protocol, err)
		}
		if rec.Protocol != protocol || rec.Winner == nil {
			t.Fatalf("artifact mangled: %+v", rec)
		}
		if rec.Confirm.StepsMean > rec.WhiteBox.StepsMean {
			t.Errorf("%s: oblivious winner (%.2f) beat the white-box graft (%.2f)",
				protocol, rec.Confirm.StepsMean, rec.WhiteBox.StepsMean)
		}
		var rb strings.Builder
		if err := run([]string{"replay", path}, &rb); err != nil {
			t.Fatalf("replay of %s failed: %v\n%s", path, err, rb.String())
		}
		if !strings.Contains(rb.String(), "replayed byte-identically") {
			t.Errorf("replay output missing confirmation:\n%s", rb.String())
		}
	}
}

// TestAttackSingleProtocolPath: a single-protocol run writes exactly the
// given path, no suffix inserted.
func TestAttackSingleProtocolPath(t *testing.T) {
	path := filepath.Join(t.TempDir(), "one.json")
	var b strings.Builder
	err := run([]string{"attack", "-protocols", "sifter", "-quick", "-budget", "6", "-json", path}, &b)
	if err != nil {
		t.Fatalf("search failed: %v\n%s", err, b.String())
	}
	if _, err := os.Stat(path); err != nil {
		t.Fatalf("single-protocol artifact not at the given path: %v", err)
	}
}

// TestCommittedAttackArtifactsReplay is the acceptance-criteria pin: the
// committed E19 artifacts at the repo root replay byte-identically, and
// the searched oblivious schedule never beats the white-box baseline.
func TestCommittedAttackArtifactsReplay(t *testing.T) {
	if testing.Short() {
		t.Skip("full replay of committed artifacts")
	}
	for _, name := range []string{"ATTACK_E19_sifter.json", "ATTACK_E19_priority.json"} {
		name := name
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			path := filepath.Join("..", "..", name)
			rec, err := search.LoadRecord(path)
			if err != nil {
				t.Fatalf("committed artifact unreadable: %v", err)
			}
			if rec.Confirm.StepsMean > rec.WhiteBox.StepsMean {
				t.Errorf("oblivious winner (%.2f) beats white-box (%.2f): dominance pin broken",
					rec.Confirm.StepsMean, rec.WhiteBox.StepsMean)
			}
			var b strings.Builder
			if err := run([]string{"replay", path}, &b); err != nil {
				t.Fatalf("committed artifact rotted: %v\n%s", err, b.String())
			}
		})
	}
}

package main

import (
	"encoding/json"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestDESFlagValidation: every malformed des flag, and every flag of
// another mode, must fail fast with a descriptive error — a full DES
// sweep runs for minutes at n=100k, so a typo must not burn that budget
// first.
func TestDESFlagValidation(t *testing.T) {
	tests := []struct {
		name string
		args []string
		want string // substring of the error
	}{
		{"bad n", []string{"des", "-n", "0"}, "bad process count"},
		{"junk n", []string{"des", "-n", "many"}, "bad process count"},
		{"empty n", []string{"des", "-n", " , "}, "no process counts"},
		{"unknown protocol", []string{"des", "-protocols", "paxos"}, "unknown protocol"},
		{"negative trials", []string{"des", "-trials", "-2"}, "-trials"},
		{"loss too big", []string{"des", "-loss", "1.5"}, "out of range"},
		{"bad latency kind", []string{"des", "-latency", "normal:1ms"}, "latency"},
		{"bad latency mean", []string{"des", "-latency", "exp:zzz"}, "latency"},
		{"bad partition", []string{"des", "-partition", "5ms+25ms+0.3"}, "partition"},
		{"partition never heals", []string{"des", "-partition", "25ms:5ms:0.3"}, "heal"},
		{"partition frac zero", []string{"des", "-partition", "5ms:25ms:0"}, "fraction"},
		{"bad format", []string{"des", "-format", "xml"}, "unknown format"},
		{"restart without crash", []string{"des", "-restart", "amnesiac"}, "requires -crash"},
		{"repros without crash", []string{"des", "-repros", "out"}, "requires -crash"},
		{"crash rate too big", []string{"des", "-crash", "proc:1.5"}, "crash rate"},
		{"crash rate NaN", []string{"des", "-crash", "proc:NaN"}, "crash rate"},
		{"bad crash windows", []string{"des", "-crash", "server:0"}, "window count"},
		{"bad crash target", []string{"des", "-crash", "router:1"}, "unknown crash target"},
		{"bad crash horizon", []string{"des", "-crash", "server:1,horizon:-3ms"}, "horizon"},
		{"bad crash downtime", []string{"des", "-crash", "server:1,down:zzz"}, "downtime"},
		{"empty crash spec", []string{"des", "-crash", " , "}, "empty crash spec"},
		{"bad restart variant", []string{"des", "-crash", "proc:0.2", "-restart", "reincarnate"}, "unknown variant"},
		{"loss NaN", []string{"des", "-loss", "NaN"}, "out of range"},
		{"bench-json conflict", []string{"des", "-bench-json", "b.json"}, unknownFlag},
		{"bench-baseline conflict", []string{"des", "-bench-baseline", "b.json"}, unknownFlag},
		{"bench-concurrent-json conflict", []string{"des", "-bench-concurrent-json", "b.json"}, unknownFlag},
		{"bench-concurrent-baseline conflict", []string{"des", "-bench-concurrent-baseline", "b.json"}, unknownFlag},
		{"experiment conflict", []string{"des", "-experiment", "E18"}, unknownFlag},
		{"all conflict", []string{"des", "-all"}, unknownFlag},
		{"list conflict", []string{"des", "-list"}, unknownFlag},
		{"fault conflict", []string{"des", "-kinds", "all"}, unknownFlag},
		{"fault-trials conflict", []string{"des", "-fault-trials", "3"}, unknownFlag},
		{"orphan des-json", []string{"exp", "-json", "d.json"}, unknownFlag},
		{"orphan des-n", []string{"exp", "-n", "1000"}, unknownFlag},
		{"orphan des-loss", []string{"mc", "-loss", "0.5"}, unknownFlag},
		{"orphan des-crash", []string{"attack", "-crash", "proc:0.2"}, unknownFlag},
		{"orphan des-restart", []string{"fault", "-restart", "durable"}, unknownFlag},
		{"orphan des-fault-repros", []string{"exp", "-repros", "out"}, unknownFlag},
		{"replay with sweep flag", []string{"replay", "-protocols", "sifter", "r.json"}, unknownFlag},
		{"replay with crash flag", []string{"replay", "-crash", "proc:0.2", "r.json"}, unknownFlag},
		{"replay missing file", []string{"replay", "no-such-repro.json"}, "no-such-repro"},
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

func TestDESSweepSmokeAndRecord(t *testing.T) {
	recPath := filepath.Join(t.TempDir(), "des.json")
	var b strings.Builder
	err := run([]string{
		"des",
		"-n", "64,128",
		"-protocols", "sifter,priority-max",
		"-trials", "2",
		"-json", recPath,
	}, &b)
	if err != nil {
		t.Fatalf("sweep failed: %v\n%s", err, b.String())
	}
	out := b.String()
	for _, want := range []string{"message-passing sweep", "sifter", "priority-max", "steps/proc"} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}

	data, err := os.ReadFile(recPath)
	if err != nil {
		t.Fatalf("record not written: %v", err)
	}
	var rec desRecord
	if err := json.Unmarshal(data, &rec); err != nil {
		t.Fatalf("record is not valid JSON: %v", err)
	}
	if rec.Schema != "conciliator-des/v1" {
		t.Errorf("schema = %q, want conciliator-des/v1", rec.Schema)
	}
	if len(rec.Rows) != 4 { // 2 ns x 2 protocols
		t.Fatalf("got %d rows, want 4", len(rec.Rows))
	}
	for _, row := range rec.Rows {
		if !row.AllDecided || row.Violations != 0 {
			t.Errorf("row %+v: expected a clean decided run", row)
		}
		if row.StepsMean <= 0 || row.StepsMax <= 0 || row.Events <= 0 {
			t.Errorf("row %+v: implausible accounting", row)
		}
	}
}

// TestDESChaosSweepSmoke runs a small crash-recovery sweep under atomic
// semantics (durable server) and checks the chaos accounting columns
// land in the JSON record with zero violations.
func TestDESChaosSweepSmoke(t *testing.T) {
	recPath := filepath.Join(t.TempDir(), "chaos.json")
	var b strings.Builder
	err := run([]string{
		"des",
		"-n", "32",
		"-protocols", "sifter",
		"-trials", "3",
		"-crash", "proc:0.25,server:1",
		"-restart", "amnesiac",
		"-json", recPath,
	}, &b)
	if err != nil {
		t.Fatalf("chaos sweep failed: %v\n%s", err, b.String())
	}
	out := b.String()
	for _, want := range []string{"chaos sweep", "crashes", "restarts", "resyncs", "gave up"} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
	data, err := os.ReadFile(recPath)
	if err != nil {
		t.Fatalf("record not written: %v", err)
	}
	var rec desRecord
	if err := json.Unmarshal(data, &rec); err != nil {
		t.Fatalf("record is not valid JSON: %v", err)
	}
	if rec.Crash != "proc:0.25,server:1" || rec.Restart != "amnesiac" {
		t.Errorf("record crash/restart = %q/%q", rec.Crash, rec.Restart)
	}
	if len(rec.Rows) != 1 {
		t.Fatalf("got %d rows, want 1", len(rec.Rows))
	}
	row := rec.Rows[0]
	if row.Crashes == 0 || row.Restarts == 0 {
		t.Errorf("row %+v: chaos schedule did not crash anything", row)
	}
	if row.Resyncs == 0 {
		t.Errorf("row %+v: amnesiac process restarts must resync", row)
	}
	// Durable server: the shared objects stay atomic, so safety holds.
	if row.Violations != 0 || row.RunErrors != 0 {
		t.Errorf("row %+v: atomic-semantics chaos run must be clean", row)
	}
}

// TestDESFaultReproSaveAndReplay drives the whole artifact loop through
// the CLI: a weakened amnesiac-server sweep positioned in the violating
// regime saves a shrunk des-fault-repro/v1 artifact, and replay
// reproduces its recorded violations byte-for-byte.
func TestDESFaultReproSaveAndReplay(t *testing.T) {
	dir := t.TempDir()
	var b strings.Builder
	err := run([]string{
		"des",
		"-n", "16",
		"-protocols", "sifter",
		"-trials", "20",
		"-crash", "server:2,horizon:48ms,down:2ms",
		"-restart", "amnesiac-server",
		"-repros", dir,
	}, &b)
	if err != nil {
		t.Fatalf("weakened sweep failed: %v\n%s", err, b.String())
	}
	matches, err := filepath.Glob(filepath.Join(dir, "des_fault_*.json"))
	if err != nil || len(matches) == 0 {
		t.Fatalf("no fault repro saved (err=%v); sweep output:\n%s", err, b.String())
	}
	var r strings.Builder
	if err := run([]string{"replay", matches[0]}, &r); err != nil {
		t.Fatalf("replay of %s failed: %v\n%s", matches[0], err, r.String())
	}
	if !strings.Contains(r.String(), "byte-identically") {
		t.Errorf("replay output missing confirmation:\n%s", r.String())
	}

	// Tampering with the artifact must break the replay: the violations
	// are part of the recorded contract.
	data, err := os.ReadFile(matches[0])
	if err != nil {
		t.Fatal(err)
	}
	tampered := strings.Replace(string(data), `"seed": `, `"seed": 1`, 1)
	badPath := filepath.Join(dir, "tampered.json")
	if err := os.WriteFile(badPath, []byte(tampered), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := run([]string{"replay", badPath}, io.Discard); err == nil {
		t.Error("tampered artifact replayed cleanly")
	}
}

// TestDESSweepReplaysByteIdentically is the CLI-level determinism
// contract: the same seed and flags must render the same bytes.
func TestDESSweepReplaysByteIdentically(t *testing.T) {
	args := []string{"des", "-n", "96", "-trials", "2", "-loss", "0.1", "-seed", "7"}
	var a, b strings.Builder
	if err := run(args, &a); err != nil {
		t.Fatal(err)
	}
	if err := run(args, &b); err != nil {
		t.Fatal(err)
	}
	if a.String() != b.String() {
		t.Fatalf("same seed and flags rendered different tables:\n%s\nvs\n%s", a.String(), b.String())
	}
}

// TestCommittedDESFaultReproReplays: the committed des-fault-repro/v1
// artifact at the repo root still reproduces through replay.
func TestCommittedDESFaultReproReplays(t *testing.T) {
	var b strings.Builder
	if err := run([]string{"replay", filepath.Join("..", "..", "DES_FAULT_REPRO_server_amnesia.json")}, &b); err != nil {
		t.Fatalf("committed artifact rotted: %v\n%s", err, b.String())
	}
	if !strings.Contains(b.String(), "byte-identically") {
		t.Errorf("replay output missing confirmation:\n%s", b.String())
	}
}

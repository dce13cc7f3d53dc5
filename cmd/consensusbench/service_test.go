package main

import (
	"encoding/json"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"github.com/oblivious-consensus/conciliator/internal/service"
)

// runServiceQuick drives the load subcommand with a tiny workload and
// returns the parsed record from path.
func runServiceQuick(t *testing.T, extra ...string) serviceRecord {
	t.Helper()
	path := filepath.Join(t.TempDir(), "svc.json")
	args := append([]string{
		"load", "-quick", "-seed", "7",
		"-duration", "150ms", "-clients", "4",
		"-json", path,
	}, extra...)
	var sb strings.Builder
	if err := run(args, &sb); err != nil {
		t.Fatalf("run(%q): %v\noutput:\n%s", args, err, sb.String())
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var rec serviceRecord
	if err := json.Unmarshal(data, &rec); err != nil {
		t.Fatalf("record does not parse: %v\n%s", err, data)
	}
	return rec
}

func TestServiceLoadRecord(t *testing.T) {
	rec := runServiceQuick(t, "-shards", "1,2")
	if err := rec.Validate(); err != nil {
		t.Fatalf("emitted record does not validate: %v", err)
	}
	if rec.Schema != "rsm-service/v1" {
		t.Fatalf("schema %q", rec.Schema)
	}
	if len(rec.Entries) != 2 {
		t.Fatalf("swept 2 shard counts, got %d entries", len(rec.Entries))
	}
	if rec.Entries[0].ID != "service-load/s=1" || rec.Entries[1].ID != "service-load/s=2" {
		t.Fatalf("entry ids: %q, %q", rec.Entries[0].ID, rec.Entries[1].ID)
	}
	for _, e := range rec.Entries {
		if e.Errors != 0 {
			t.Fatalf("%s: %d errors against an in-process node", e.ID, e.Errors)
		}
		if e.WriteP50us > e.WriteP99us || e.WriteP99us > e.WriteP999us {
			t.Fatalf("%s: quantiles not monotone: p50 %d p99 %d p999 %d",
				e.ID, e.WriteP50us, e.WriteP99us, e.WriteP999us)
		}
	}
	if rec.NumCPU <= 0 || rec.GOMAXPROCS <= 0 || rec.GOOS == "" {
		t.Fatalf("host shape fields missing: %+v", rec)
	}
}

// TestServiceLoadZipfAndProtocol: the record carries the skew and the
// adopt-commit the pipeline width selects (snapshot above W = 2).
func TestServiceLoadZipfAndProtocol(t *testing.T) {
	rec := runServiceQuick(t, "-shards", "1", "-skew", "zipf", "-pipeline", "4")
	if rec.Skew != "zipf" || rec.Protocol != "snapshot" {
		t.Fatalf("record skew %q protocol %q", rec.Skew, rec.Protocol)
	}
	if err := rec.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestServiceFlagValidation(t *testing.T) {
	load := func(args ...string) []string {
		return append([]string{"load", "-duration", "50ms"}, args...)
	}
	cases := []struct {
		name string
		args []string
		want string // substring of the error; "" accepts any error
	}{
		{"mode mix mc", load("-sched", "random"), unknownFlag},
		{"mode mix attack", load("-budget", "8"), unknownFlag},
		{"mode mix des", load("-latency", "exp:1ms"), unknownFlag},
		{"mode mix fault", load("-kinds", "all"), unknownFlag},
		{"mode mix bench", load("-bench-json", "x.json"), unknownFlag},
		{"mode mix experiment", load("-experiment", "E1"), unknownFlag},
		{"mode mix list", load("-list"), unknownFlag},
		{"json without load", []string{"exp", "-json", "x.json"}, unknownFlag},
		{"addr with shards", load("-addr", "localhost:1", "-shards", "1,4"), ""},
		{"bad format", load("-format", "yaml"), ""},
		{"bad shards", load("-shards", "1,zero"), ""},
		{"zero shards", load("-shards", "0"), ""},
		{"bad skew", load("-skew", "pareto"), ""},
		{"bad read frac", load("-read-frac", "1.5"), ""},
		{"removed protocol flag", load("-protocol", "register"), unknownFlag},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var sb strings.Builder
			err := run(tc.args, &sb)
			if err == nil {
				t.Fatalf("run(%q) succeeded, want error", tc.args)
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Errorf("error %q does not mention %q", err, tc.want)
			}
		})
	}
}

func TestServiceBaselineGate(t *testing.T) {
	path := filepath.Join(t.TempDir(), "base.json")
	args := []string{
		"load", "-quick", "-seed", "7",
		"-duration", "150ms", "-clients", "4",
		"-shards", "1", "-json", path,
	}
	var sb strings.Builder
	if err := run(args, &sb); err != nil {
		t.Fatal(err)
	}

	t.Run("generous baseline passes", func(t *testing.T) {
		// Run-to-run throughput on a small host is far noisier than the
		// 10% gate, so a literal self-comparison flakes; a baseline at a
		// tenth of the measured throughput must always pass while still
		// exercising the whole comparison path.
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		var rec serviceRecord
		if err := json.Unmarshal(data, &rec); err != nil {
			t.Fatal(err)
		}
		for i := range rec.Entries {
			rec.Entries[i].WriteThroughput /= 10
		}
		generous, err := json.Marshal(rec)
		if err != nil {
			t.Fatal(err)
		}
		genPath := filepath.Join(t.TempDir(), "generous.json")
		if err := os.WriteFile(genPath, generous, 0o644); err != nil {
			t.Fatal(err)
		}
		var out strings.Builder
		err = run([]string{
			"load", "-quick", "-seed", "7",
			"-duration", "150ms", "-clients", "4",
			"-shards", "1", "-baseline", genPath,
		}, &out)
		if err != nil {
			t.Fatalf("10x-generous baseline failed the gate: %v\n%s", err, out.String())
		}
		if !strings.Contains(out.String(), "baseline: service-load/s=1") {
			t.Fatalf("no baseline output:\n%s", out.String())
		}
	})

	t.Run("cross host skips", func(t *testing.T) {
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		var rec serviceRecord
		if err := json.Unmarshal(data, &rec); err != nil {
			t.Fatal(err)
		}
		rec.NumCPU += 64 // a record from a very different machine
		alien, err := json.Marshal(rec)
		if err != nil {
			t.Fatal(err)
		}
		alienPath := filepath.Join(t.TempDir(), "alien.json")
		if err := os.WriteFile(alienPath, alien, 0o644); err != nil {
			t.Fatal(err)
		}
		var out strings.Builder
		err = run([]string{
			"load", "-quick", "-seed", "7",
			"-duration", "150ms", "-clients", "4",
			"-shards", "1", "-baseline", alienPath,
		}, &out)
		if err != nil {
			t.Fatalf("cross-host comparison must skip, not fail: %v\n%s", err, out.String())
		}
		if !strings.Contains(out.String(), "skipping") {
			t.Fatalf("no loud skip line:\n%s", out.String())
		}
	})

	t.Run("regression fails", func(t *testing.T) {
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		var rec serviceRecord
		if err := json.Unmarshal(data, &rec); err != nil {
			t.Fatal(err)
		}
		for i := range rec.Entries {
			rec.Entries[i].WriteThroughput *= 1000 // impossible baseline
		}
		inflated, err := json.Marshal(rec)
		if err != nil {
			t.Fatal(err)
		}
		infPath := filepath.Join(t.TempDir(), "inflated.json")
		if err := os.WriteFile(infPath, inflated, 0o644); err != nil {
			t.Fatal(err)
		}
		var out strings.Builder
		err = run([]string{
			"load", "-quick", "-seed", "7",
			"-duration", "150ms", "-clients", "4",
			"-shards", "1", "-baseline", infPath,
		}, &out)
		if err == nil {
			t.Fatalf("1000x regression passed the gate:\n%s", out.String())
		}
		if !strings.Contains(err.Error(), "regressed") {
			t.Fatalf("unexpected gate error: %v", err)
		}
	})
}

// TestServiceLoadOverHTTP drives a live node through the -addr
// path: the same load generator, but every op crossing a real HTTP hop.
func TestServiceLoadOverHTTP(t *testing.T) {
	node, err := service.Start(service.Config{Shards: 2, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	defer node.Close()
	srv := httptest.NewServer(service.NewHandler(node))
	defer srv.Close()

	path := filepath.Join(t.TempDir(), "remote.json")
	var sb strings.Builder
	err = run([]string{
		"load", "-seed", "7",
		"-duration", "150ms", "-clients", "4",
		"-addr", strings.TrimPrefix(srv.URL, "http://"),
		"-json", path,
	}, &sb)
	if err != nil {
		t.Fatalf("%v\n%s", err, sb.String())
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var rec serviceRecord
	if err := json.Unmarshal(data, &rec); err != nil {
		t.Fatal(err)
	}
	if len(rec.Entries) != 1 || rec.Entries[0].ID != "service-load/remote" {
		t.Fatalf("remote entries: %+v", rec.Entries)
	}
	e := rec.Entries[0]
	if e.Errors != 0 || e.Writes == 0 || e.WriteP99us == 0 {
		t.Fatalf("remote load: %+v", e)
	}
	// The remote ops really went through the node's consensus groups.
	var applied int64
	for _, gs := range node.Status().Groups {
		applied += gs.AppliedOps
	}
	if applied != e.Writes {
		t.Fatalf("node applied %d, load reported %d writes", applied, e.Writes)
	}
}

func TestServiceRecordValidate(t *testing.T) {
	good := serviceRecord{
		recordHeader: recordHeader{Schema: "rsm-service/v1"},
		Entries: []serviceEntry{{
			ID: "service-load/s=1", Writes: 10, WriteP99us: 100,
			Throughput: 50, WriteThroughput: 40, Batches: 5, BatchMean: 2,
		}},
	}
	if err := good.Validate(); err != nil {
		t.Fatalf("valid record rejected: %v", err)
	}
	bad := good
	bad.Schema = "rsm-service/v2"
	if bad.Validate() == nil {
		t.Fatal("wrong schema accepted")
	}
	bad = good
	bad.Entries = nil
	if bad.Validate() == nil {
		t.Fatal("empty record accepted")
	}
	bad = good
	bad.Entries = []serviceEntry{good.Entries[0]}
	bad.Entries[0].WriteP99us = 0
	if bad.Validate() == nil {
		t.Fatal("zero p99 accepted")
	}
}

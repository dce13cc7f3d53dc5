package main

import (
	"bufio"
	"compress/gzip"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"sync"
	"time"
)

// maxSpans bounds the tracer's memory; spans beyond it are counted, not
// kept.
const maxSpans = 1 << 20

// span is one timed call into a layer. Spans of one kv request share
// Req; Parent is the id of the enclosing span (0 for a root).
type span struct {
	Pass   string `json:"pass"`
	ID     int32  `json:"id"`
	Parent int32  `json:"parent"`
	Req    uint64 `json:"req"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer keeps spans in memory for one traced pass. Span ids are
// 1-based indexes into the slice.
type tracer struct {
	pass    string
	t0      time.Time
	mu      sync.Mutex
	all     []span
	dropped int64
}

func newTracer(pass string) *tracer {
	return &tracer{pass: pass, t0: time.Now(), all: make([]span, 0, 1<<14)}
}

// begin opens a span and returns its id (0 when the tracer is full or
// nil, which end ignores).
func (t *tracer) begin(name string, parent int32, req uint64) int32 {
	if t == nil {
		return 0
	}
	now := int64(time.Since(t.t0))
	t.mu.Lock()
	defer t.mu.Unlock()
	if len(t.all) >= maxSpans {
		t.dropped++
		return 0
	}
	t.all = append(t.all, span{Pass: t.pass, ID: int32(len(t.all) + 1), Parent: parent, Req: req, Name: name, Start: now})
	return int32(len(t.all))
}

// end closes span id.
func (t *tracer) end(id int32) {
	if t == nil || id == 0 {
		return
	}
	now := int64(time.Since(t.t0))
	t.mu.Lock()
	t.all[id-1].End = now
	t.mu.Unlock()
}

// spans returns the recorded spans.
func (t *tracer) spans() []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	return slices.Clone(t.all)
}

// durations returns the durations in µs of every closed span named name.
func (t *tracer) durations(name string) []float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	var out []float64
	for _, s := range t.all {
		if s.Name == name && s.End >= s.Start && s.End != 0 {
			out = append(out, float64(s.End-s.Start)/1e3)
		}
	}
	return out
}

// spanNames are the spans the benchmark records, one per public call it
// makes into a layer; each gets a trace.self_us.<name> metric.
var spanNames = []string{
	"http.roundtrip", "service.http.handler", "service.Start", "service.Submit", "service.Get",
	"service.Status", "service.BatchOccupancy", "service.DecidedLog", "service.DecodeBatch",
	"service.EncodeBatch", "rsm.KV.Apply", "rsm.Log.Propose", "consensus.RunMonteCarlo",
	"sim.Collect", "sched.Source", "des.Run",
}

// selfTimes aggregates span self time (duration minus the part of the
// interval its children cover) by span name across tracers.
type selfTimes map[string]*struct {
	n    int64
	self int64
}

func (st selfTimes) add(t *tracer) {
	all := t.spans()
	children := make(map[int32][][2]int64)
	for _, s := range all {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], [2]int64{s.Start, s.End})
		}
	}
	for _, s := range all {
		a := st[s.Name]
		if a == nil {
			a = &struct{ n, self int64 }{}
			st[s.Name] = a
		}
		a.n++
		a.self += (s.End - s.Start) - covered(children[s.ID], s.Start, s.End)
	}
}

// metrics reports the mean self time per span as trace.self_us.<name>.
func (st selfTimes) metrics() map[string]metric {
	out := make(map[string]metric, len(spanNames))
	for _, name := range spanNames {
		v := 0.0
		if a := st[name]; a != nil && a.n > 0 {
			v = float64(a.self) / float64(a.n) / 1e3
		}
		out["trace.self_us."+name] = metric{v, "us"}
	}
	return out
}

// covered returns the length of the union of ivs clipped to [lo, hi].
func covered(ivs [][2]int64, lo, hi int64) int64 {
	if len(ivs) == 0 {
		return 0
	}
	ivs = slices.Clone(ivs)
	slices.SortFunc(ivs, func(a, b [2]int64) int { return int(a[0] - b[0]) })
	var total int64
	curLo, curHi := int64(-1), int64(-1)
	for _, iv := range ivs {
		a, b := max(iv[0], lo), min(iv[1], hi)
		if b <= a {
			continue
		}
		if a > curHi {
			total += curHi - curLo
			curLo, curHi = a, b
			continue
		}
		curHi = max(curHi, b)
	}
	return total + curHi - curLo
}

// writeSpans dumps the spans as gzipped JSON lines, one file per traced
// run.
func writeSpans(res *result, spans []span) error {
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return fmt.Errorf("create output directory: %w", err)
	}
	path := filepath.Join(outDir, fmt.Sprintf("spans-%s-seed%d.jsonl.gz", res.Workload, res.Seed))
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("write spans: %w", err)
	}
	zw := gzip.NewWriter(f)
	w := bufio.NewWriter(zw)
	enc := json.NewEncoder(w)
	for i := range spans {
		if err := enc.Encode(&spans[i]); err != nil {
			f.Close()
			return fmt.Errorf("write spans: %w", err)
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return fmt.Errorf("write spans: %w", err)
	}
	if err := zw.Close(); err != nil {
		f.Close()
		return fmt.Errorf("write spans: %w", err)
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("write spans: %w", err)
	}
	return nil
}

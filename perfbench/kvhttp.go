package main

import (
	"context"
	"fmt"
	"io"
	"log"
	"net"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"time"

	"github.com/oblivious-consensus/conciliator/internal/rsm"
	"github.com/oblivious-consensus/conciliator/internal/service"
	"github.com/oblivious-consensus/conciliator/internal/xrand"
)

// kv-http: a closed loop of httpClients keep-alive clients over loopback
// HTTP against an in-process node. Each segment starts a fresh node and
// sends httpPerClient requests per client, so the heap a node retains
// never carries over and every segment does the same work. Eight
// clients keep a 2-CPU host busy: with one client per CPU the CPUs idle
// between request handoffs and throughput swings with how fast the host
// wakes them.
const (
	httpClients   = 8
	httpPerClient = 625
	httpReadFrac  = 0.25
)

// httpOp is one generated request.
type httpOp struct {
	method string
	path   string
	body   string
	write  bool
}

// genHTTPOps draws client's requests for segment seg: uniform keys, 25%
// GET, writes mixed like the service load generator.
func genHTTPOps(seed uint64, seg, client int) []httpOp {
	rng := xrand.New(seed).ForkNamed(labelHTTP).ForkNamed(uint64(seg)).ForkNamed(uint64(client))
	keys := newKeySampler(kvKeys, false)
	ops := make([]httpOp, httpPerClient)
	for i := range ops {
		key := keys.key(rng)
		if rng.Float64() < httpReadFrac {
			ops[i] = httpOp{method: http.MethodGet, path: "/v1/kv/" + key}
			continue
		}
		op := writeOp(rng, key)
		switch op.Kind {
		case rsm.OpSet:
			ops[i] = httpOp{method: http.MethodPut, path: "/v1/kv/" + key, body: op.Value, write: true}
		case rsm.OpInc:
			ops[i] = httpOp{method: http.MethodPost, path: "/v1/kv/" + key + "/inc", write: true}
		default:
			ops[i] = httpOp{method: http.MethodDelete, path: "/v1/kv/" + key, write: true}
		}
	}
	return ops
}

// httpSegment is one segment's measurements.
type httpSegment struct {
	setup             time.Duration
	wall, cpu         time.Duration
	writeLat, readLat []float64 // µs
	attempted, failed int64
	acked             int64
	heapKBPerWrite    float64
}

// tracedHandler wraps the node's handler in a span that joins the
// client's request through the X-Span and X-Req headers.
func tracedHandler(tr *tracer, h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		parent, _ := strconv.ParseInt(r.Header.Get("X-Span"), 10, 32)
		req, _ := strconv.ParseUint(r.Header.Get("X-Req"), 10, 64)
		id := tr.begin("service.http.handler", int32(parent), req)
		h.ServeHTTP(w, r)
		tr.end(id)
	})
}

func runHTTPSegment(e *env, seg int, o *outcome) (*httpSegment, error) {
	ops := make([][]httpOp, httpClients)
	for c := range ops {
		ops[c] = genHTTPOps(e.seed, seg, c)
	}
	s := &httpSegment{}
	h0 := heapLive()

	t0 := time.Now()
	hn, err := startHTTPNode(xrand.New(e.seed).ForkNamed(labelNode).SeedNamed(uint64(seg)), e.tr)
	if err != nil {
		return nil, err
	}
	defer hn.close()
	s.setup = time.Since(t0)
	node, client, base := hn.node, hn.client, hn.base

	type clientStats struct {
		writeLat, readLat []float64
		attempted, failed int64
		acked             int64
	}
	cs := make([]clientStats, httpClients)
	var wg sync.WaitGroup
	cpu0, start := cpuTime(), time.Now()
	for c := range httpClients {
		wg.Add(1)
		go func() {
			defer wg.Done()
			st := &cs[c]
			st.writeLat = make([]float64, 0, len(ops[c]))
			st.readLat = make([]float64, 0, len(ops[c]))
			for i, op := range ops[c] {
				reqID := uint64(seg)<<40 | uint64(c)<<32 | uint64(i)
				st.attempted++
				t := time.Now()
				span := e.tr.begin("http.roundtrip", 0, reqID)
				code, err := do(client, base, op, span, reqID)
				e.tr.end(span)
				d := float64(time.Since(t).Nanoseconds()) / 1e3
				switch {
				case err != nil:
					st.failed++
				case op.write && code == http.StatusOK:
					st.acked++
					st.writeLat = append(st.writeLat, d)
				case !op.write && (code == http.StatusOK || code == http.StatusNotFound):
					st.readLat = append(st.readLat, d)
				default:
					st.failed++
				}
			}
		}()
	}
	wg.Wait()
	s.wall, s.cpu = time.Since(start), cpuTime()-cpu0

	for _, st := range cs {
		s.writeLat = append(s.writeLat, st.writeLat...)
		s.readLat = append(s.readLat, st.readLat...)
		s.attempted += st.attempted
		s.failed += st.failed
		s.acked += st.acked
	}
	if s.failed > 0 {
		o.fail("kv-http segment %d: %d of %d requests failed", seg, s.failed, s.attempted)
	}
	verifyNode(node, s.acked, o, e.tr)
	h1 := heapLive()
	if s.acked > 0 {
		s.heapKBPerWrite = (float64(h1) - float64(h0)) / float64(s.acked) / 1024
	}
	if err := hn.close(); err != nil {
		o.fail("kv-http segment %d: node drain: %v", seg, err)
	}
	return s, nil
}

// httpNode is a node serving its HTTP API on a loopback listener, with a
// keep-alive client for it.
type httpNode struct {
	node   *service.Node
	client *http.Client
	base   string
	close  func() error // idempotent; reports the node's drain error
}

// startHTTPNode starts a node and its listener and returns once a status
// request has been served: the kv-http set-up.
func startHTTPNode(seed uint64, tr *tracer) (*httpNode, error) {
	node, err := startNode(seed, tr)
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		node.Close()
		return nil, fmt.Errorf("listen: %w", err)
	}
	handler := service.NewHandler(node)
	if tr != nil {
		handler = tracedHandler(tr, handler)
	}
	srv := &http.Server{Handler: handler, ErrorLog: log.New(io.Discard, "", 0)}
	served := make(chan struct{})
	go func() {
		defer close(served)
		srv.Serve(ln)
	}()
	transport := &http.Transport{MaxIdleConnsPerHost: httpClients, DisableCompression: true}
	var once sync.Once
	var closeErr error
	hn := &httpNode{
		node:   node,
		client: &http.Client{Transport: transport},
		base:   "http://" + ln.Addr().String(),
		close: func() error {
			once.Do(func() {
				transport.CloseIdleConnections()
				srv.Shutdown(context.Background())
				<-served
				closeErr = node.Close()
			})
			return closeErr
		},
	}
	if err := getStatus(hn.client, hn.base); err != nil {
		hn.close()
		return nil, err
	}
	return hn, nil
}

// getStatus proves the listener serves before the clock starts.
func getStatus(client *http.Client, base string) error {
	resp, err := client.Get(base + "/v1/status")
	if err != nil {
		return fmt.Errorf("status probe: %w", err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("status probe: HTTP %d", resp.StatusCode)
	}
	return nil
}

// do sends one request and drains the reply.
func do(client *http.Client, base string, op httpOp, span int32, reqID uint64) (int, error) {
	var body io.Reader
	if op.body != "" {
		body = strings.NewReader(op.body)
	}
	req, err := http.NewRequest(op.method, base+op.path, body)
	if err != nil {
		return 0, err
	}
	if span != 0 {
		req.Header.Set("X-Span", strconv.Itoa(int(span)))
		req.Header.Set("X-Req", strconv.FormatUint(reqID, 10))
	}
	resp, err := client.Do(req)
	if err != nil {
		return 0, err
	}
	_, err = io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	return resp.StatusCode, err
}

func runKVHTTP(e *env) (*outcome, error) {
	o := newOutcome(e)
	setups, err := timeSetups(kvSetupReps, func() (time.Duration, error) {
		t0 := time.Now()
		hn, err := startHTTPNode(e.seed, nil)
		if err != nil {
			return 0, err
		}
		d := time.Since(t0)
		return d, hn.close()
	})
	if err != nil {
		return nil, err
	}
	peak := startHeapSampler()
	var rates, p50s, p99s, cpus, heapKB []float64
	var reads []float64
	deadline := time.Now().Add(e.budget)
	for seg := 0; seg == 0 || time.Now().Before(deadline); seg++ {
		s, err := runHTTPSegment(e, seg, o)
		peak.take()
		if err != nil {
			peak.finish()
			return nil, err
		}
		o.attempted += s.attempted
		o.failed += s.failed
		what := fmt.Sprintf("kv-http segment %d write latency", seg)
		setups = append(setups, s.setup.Seconds())
		rates = append(rates, float64(s.acked)/s.wall.Seconds())
		p50s = append(p50s, tailPercentile(o, what, s.writeLat, 0.50))
		p99s = append(p99s, tailPercentile(o, what, s.writeLat, 0.99))
		cpus = append(cpus, float64(s.cpu.Nanoseconds())/1e3/float64(s.attempted-s.failed))
		heapKB = append(heapKB, s.heapKBPerWrite)
		reads = append(reads, s.readLat...)
	}
	o.setE2E("setup_s", median(setups))
	o.setE2E("throughput_per_s", median(rates))
	o.setE2E("cpu_us_per_op", median(cpus))
	o.setE2E("peak_heap_mb", peak.finish())
	o.note("kv-http: %d segments of %d requests", len(rates), httpClients*httpPerClient)
	o.note("kv-http: write latency p50 %.1fus p99 %.1fus (median over segments)", median(p50s), median(p99s))
	if e.traced() {
		o.setLayer("service.http.write_p50_us", median(p50s), "us")
		o.setLayer("service.http.write_p99_us", median(p99s), "us")
		rt, hd := median(e.tr.durations("http.roundtrip")), median(e.tr.durations("service.http.handler"))
		o.setLayer("service.http.roundtrip_p50_us", rt, "us")
		o.setLayer("service.http.handler_p50_us", hd, "us")
		o.setLayer("service.http.transport_p50_us", rt-hd, "us")
		o.setLayer("service.http.read_p99_us", tailPercentile(o, "kv-http read latency", reads, 0.99), "us")
		o.setLayer("service.heap_kb_per_write", median(heapKB), "KB")
	}
	return o, nil
}

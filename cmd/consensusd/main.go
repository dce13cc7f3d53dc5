// Command consensusd is a consensus-as-a-service node: an HTTP KV API
// in front of sharded, batched, pipelined randomized consensus.
//
//	consensusd -addr :8080 -shards 4 -pipeline 4
//
//	curl -X PUT  localhost:8080/v1/kv/greeting -d hello
//	curl         localhost:8080/v1/kv/greeting
//	curl -X POST localhost:8080/v1/kv/hits/inc
//	curl         localhost:8080/v1/status
//
// SIGINT/SIGTERM shut the node down gracefully: the listener stops
// accepting, queued ops drain through consensus, in-flight slots flush
// in order, and the process exits 0.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"github.com/oblivious-consensus/conciliator/internal/debugserver"
	"github.com/oblivious-consensus/conciliator/internal/metrics"
	"github.com/oblivious-consensus/conciliator/internal/service"
)

// shutdownGrace bounds how long the HTTP server waits for in-flight
// requests during graceful shutdown before cutting them off.
const shutdownGrace = 30 * time.Second

const (
	// readHeaderTimeout bounds how long a client may take to send its
	// request headers, so a slow-header client cannot hold a connection
	// open forever.
	readHeaderTimeout = 10 * time.Second
	// idleTimeout closes keep-alive connections that sit idle between
	// requests for this long.
	idleTimeout = 2 * time.Minute
)

// newServer is the client API server: h behind the connection timeouts.
func newServer(h http.Handler) *http.Server {
	return &http.Server{
		Handler:           h,
		ReadHeaderTimeout: readHeaderTimeout,
		IdleTimeout:       idleTimeout,
	}
}

func main() {
	if err := run(os.Args[1:], os.Stdout, nil); err != nil {
		fmt.Fprintln(os.Stderr, "consensusd:", err)
		os.Exit(1)
	}
}

// run is main minus the process plumbing: testable with custom args and
// an optional ready channel that receives the bound client address.
func run(args []string, out *os.File, ready chan<- string) error {
	fs := flag.NewFlagSet("consensusd", flag.ContinueOnError)
	var (
		addr      = fs.String("addr", ":8080", "client API listen address")
		shards    = fs.Int("shards", 1, "independent consensus groups (key-range shards)")
		pipeline  = fs.Int("pipeline", 2, "in-flight consensus slots per shard")
		batchMax  = fs.Int("batch-max", 64, "max ops batched into one consensus slot")
		queue     = fs.Int("queue", 256, "per-shard intake queue depth (backpressure bound)")
		seed      = fs.Uint64("seed", 1, "root seed for the consensus RNG streams")
		protocol  = fs.String("protocol", "register", "consensus construction: register, snapshot, or linear")
		debugAddr = fs.String("debug-addr", "", "serve expvar metrics and pprof on this address (off when empty)")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() != 0 {
		return fmt.Errorf("unexpected arguments %q", fs.Args())
	}

	// Install the registry before Start so the service's cached and
	// per-shard instruments resolve against it.
	metrics.SetDefault(metrics.New())
	if *debugAddr != "" {
		dbg, stop, err := debugserver.Start(*debugAddr)
		if err != nil {
			return fmt.Errorf("debug server: %w", err)
		}
		defer stop()
		fmt.Fprintf(out, "consensusd: debug on http://%s/debug/vars\n", dbg)
	}

	node, err := service.Start(service.Config{
		Shards:     *shards,
		Pipeline:   *pipeline,
		BatchMax:   *batchMax,
		QueueDepth: *queue,
		Seed:       *seed,
		Protocol:   *protocol,
	})
	if err != nil {
		return err
	}

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		node.Close()
		return err
	}
	// Take over SIGINT/SIGTERM before announcing readiness: a signal sent
	// once the address is out must drain the node, not kill the process.
	stop := make(chan os.Signal, 1)
	signal.Notify(stop, syscall.SIGINT, syscall.SIGTERM)
	defer signal.Stop(stop)

	srv := newServer(service.NewHandler(node))
	cfg := node.Config()
	fmt.Fprintf(out, "consensusd: serving on http://%s (shards %d, pipeline %d, batch-max %d, protocol %s)\n",
		ln.Addr(), cfg.Shards, cfg.Pipeline, cfg.BatchMax, protoName(cfg.Protocol))
	if ready != nil {
		ready <- ln.Addr().String()
	}

	serveErr := make(chan error, 1)
	go func() { serveErr <- srv.Serve(ln) }()

	select {
	case sig := <-stop:
		fmt.Fprintf(out, "consensusd: %v — draining\n", sig)
	case err := <-serveErr:
		node.Close()
		return fmt.Errorf("serve: %w", err)
	}

	// Stop accepting first, then drain the consensus queues: requests
	// already inside the handler ride out the node drain.
	ctx, cancel := context.WithTimeout(context.Background(), shutdownGrace)
	defer cancel()
	shutErr := srv.Shutdown(ctx)
	closeErr := node.Close()
	if err := <-serveErr; err != nil && !errors.Is(err, http.ErrServerClosed) {
		return err
	}
	if err := errors.Join(shutErr, closeErr); err != nil {
		return err
	}
	fmt.Fprintln(out, "consensusd: drained, bye")
	return nil
}

func protoName(p string) string {
	if p == "" {
		return "register"
	}
	return p
}

// Command faasd serves the measured workload kernels over HTTP: each
// request compiles nothing (modules are cached process-wide), places a
// fresh instance into an isolation-backend slot owned by the worker
// that dequeued it, invokes the kernel, and returns the checksum plus
// simulated and wall-clock timings as JSON.
//
// Usage:
//
//	faasd                              # all kernels on 127.0.0.1:8080
//	faasd -addr 127.0.0.1:0 -addrfile /tmp/faasd.addr
//	faasd -shards 4 -workers 2 -queue 128 -timeout 250ms
//	faasd -backend multiproc -kernels regex-filtering
//	faasd -scheme zerocost             # default transition scheme
//	faasd -spans=false                 # disable per-request phase spans
//	faasd -trace /tmp/serve.json       # Chrome trace written on drain
//
// Endpoints:
//
//	POST/GET /invoke/<kernel>?n=<batch>&backend=<kind>&scheme=<scheme>
//	GET      /healthz   — ok, or 503 once draining; per-shard queue depth
//	GET      /metrics   — telemetry registry snapshot (JSON)
//	GET      /debug/requests — slowest/most-recent phase-attributed requests
//
// SIGINT/SIGTERM starts a graceful drain: /healthz flips to 503 so load
// balancers stop sending, in-flight requests finish, then the process
// exits 0. The degradation policies mirror the faassim simulator's:
// bounded admission (429), per-request deadlines (504), and a circuit
// breaker (503) — see internal/server.
package main

import (
	"errors"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"path/filepath"
	"strings"
	"syscall"
	"time"

	"repro/internal/cpu"
	"repro/internal/fault"
	"repro/internal/isolation"
	"repro/internal/server"
	"repro/internal/sfi"
	"repro/internal/telemetry"
)

func main() {
	addr := flag.String("addr", "127.0.0.1:8080", "listen address (use port 0 with -addrfile for an ephemeral port)")
	addrFile := flag.String("addrfile", "", "write the bound address to this file once listening")
	kernels := flag.String("kernels", "", "comma-separated kernels to serve (default: all FaaS kernels)")
	backend := flag.String("backend", "", "default isolation backend when a request names none (default colorguard)")
	scheme := flag.String("scheme", "", "default transition scheme when a request names none (default, zerocost, onestack, trampoline)")
	hardenFlag := flag.String("harden", "none", "Spectre hardening for served kernels (none, swivel-sfi, swivel-cet, deterministic)")
	shards := flag.Int("shards", 0, "dispatcher shards (default: min(NumCPU, 8))")
	workers := flag.Int("workers", 0, "worker goroutines per shard (default 1)")
	queue := flag.Int("queue", 0, "bounded queue depth per shard (default 64)")
	maxInFlight := flag.Int("maxinflight", 0, "admission-control limit on in-flight requests (default shards*queue)")
	slots := flag.Int("slots", 0, "instance slots per worker backend (default 4)")
	warm := flag.Int("warm", 0, "initial keep-warm instances per worker backend (0 = default 2, -1 = disable; retargetable at runtime via POST /control/warm)")
	timeout := flag.Duration("timeout", 0, "per-request deadline (0 = none)")
	breakerFails := flag.Int("breakerfails", 32, "consecutive failures that open the circuit breaker")
	breakerOpen := flag.Duration("breakeropen", 2*time.Second, "how long an open breaker rejects before probing")
	drainTimeout := flag.Duration("draintimeout", 10*time.Second, "how long a signal-triggered drain waits for in-flight requests")
	tierFlag := flag.String("tier", "fused", "execution tier for worker instances: slow, fast, or fused")
	spans := flag.Bool("spans", true, "attribute every request's wall time to phases (X-Trace-Id, /debug/requests, serve.phase metrics)")
	tracePath := flag.String("trace", "", "write a Chrome trace of the serving run to this file on drain")
	flag.Parse()

	tier, err := cpu.ParseTier(*tierFlag)
	if err != nil {
		fmt.Fprintf(os.Stderr, "faasd: -tier %s: %v\n", *tierFlag, err)
		os.Exit(2)
	}
	sch, err := isolation.ParseScheme(*scheme)
	if err != nil {
		fmt.Fprintf(os.Stderr, "faasd: -scheme %s: %v\n", *scheme, err)
		os.Exit(2)
	}
	harden, err := sfi.ParseHarden(*hardenFlag)
	if err != nil {
		fmt.Fprintf(os.Stderr, "faasd: -harden %s: %v\n", *hardenFlag, err)
		os.Exit(2)
	}

	if err := validate(*shards, *workers, *queue, *maxInFlight, *slots, *warm, *timeout, *breakerFails, *breakerOpen, *drainTimeout); err != nil {
		fmt.Fprintln(os.Stderr, "faasd:", err)
		os.Exit(2)
	}

	telemetry.SetEnabled(true)
	telemetry.SetSpansEnabled(*spans)
	if *tracePath != "" {
		telemetry.Trace.Enable()
	}
	cfg := server.Config{
		DefaultBackend:  isolation.Kind(*backend),
		DefaultScheme:   sch,
		Tier:            tier,
		Harden:          harden,
		Shards:          *shards,
		WorkersPerShard: *workers,
		QueueDepth:      *queue,
		MaxInFlight:     *maxInFlight,
		SlotsPerWorker:  *slots,
		WarmPerWorker:   *warm,
		RequestTimeout:  *timeout,
		Breaker: fault.BreakerConfig{
			FailureThreshold:  *breakerFails,
			OpenNs:            float64(*breakerOpen),
			HalfOpenSuccesses: 2,
		},
	}
	if *kernels != "" {
		cfg.Kernels = strings.Split(*kernels, ",")
	}
	s, err := server.New(cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "faasd:", err)
		os.Exit(1)
	}

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		fmt.Fprintln(os.Stderr, "faasd:", err)
		os.Exit(1)
	}
	if *addrFile != "" {
		if err := writeAddrFile(*addrFile, ln.Addr().String()); err != nil {
			fmt.Fprintln(os.Stderr, "faasd:", err)
			os.Exit(1)
		}
	}
	fmt.Fprintf(os.Stderr, "[faasd listening on %s]\n", ln.Addr())

	httpSrv := &http.Server{Handler: s.Handler()}
	serveErr := make(chan error, 1)
	go func() { serveErr <- httpSrv.Serve(ln) }()

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	select {
	case got := <-sig:
		fmt.Fprintf(os.Stderr, "[faasd %s: draining]\n", got)
	case err := <-serveErr:
		fmt.Fprintln(os.Stderr, "faasd:", err)
		os.Exit(1)
	}

	// Drain: stop advertising health, finish in-flight work, then stop
	// accepting and tear down the worker pool.
	s.BeginDrain()
	shutdownDone := make(chan error, 1)
	go func() {
		deadline := time.Now().Add(*drainTimeout)
		for time.Now().Before(deadline) && s.Stats().InFlight > 0 {
			time.Sleep(10 * time.Millisecond)
		}
		shutdownDone <- httpSrv.Close()
	}()
	if err := <-shutdownDone; err != nil {
		fmt.Fprintln(os.Stderr, "faasd: shutdown:", err)
	}
	if err := <-serveErr; err != nil && !errors.Is(err, http.ErrServerClosed) {
		fmt.Fprintln(os.Stderr, "faasd:", err)
	}
	if err := s.Close(); err != nil {
		fmt.Fprintln(os.Stderr, "faasd:", err)
		os.Exit(1)
	}
	if *tracePath != "" {
		writeTrace(*tracePath)
	}
	st := s.Stats()
	fmt.Fprintf(os.Stderr, "[faasd drained: %d served, %d completed, %d shed, %d timeouts, %d failed]\n",
		st.Requests, st.Completed, st.Shed, st.Timeouts, st.Failed)
}

// writeAddrFile publishes the bound address atomically: a supervisor
// polling the path must never observe a partially written file, so the
// address goes to a temp file in the same directory first and lands via
// rename (atomic on POSIX filesystems).
func writeAddrFile(path, addr string) error {
	tmp, err := os.CreateTemp(filepath.Dir(path), filepath.Base(path)+".tmp*")
	if err != nil {
		return err
	}
	if _, err := tmp.Write([]byte(addr)); err != nil {
		tmp.Close()
		os.Remove(tmp.Name())
		return err
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmp.Name())
		return err
	}
	if err := os.Rename(tmp.Name(), path); err != nil {
		os.Remove(tmp.Name())
		return err
	}
	return nil
}

// writeTrace flushes the process tracer to path, warning when the ring
// buffer wrapped — a truncated trace silently read as complete is worse
// than no trace.
func writeTrace(path string) {
	telemetry.Trace.Disable()
	if n := telemetry.Trace.Dropped(); n > 0 {
		fmt.Fprintf(os.Stderr, "[faasd trace: %d events dropped (ring buffer wrapped); the trace is truncated]\n", n)
	}
	f, err := os.Create(path)
	if err != nil {
		fmt.Fprintln(os.Stderr, "faasd: trace:", err)
		return
	}
	defer f.Close()
	if err := telemetry.Trace.WriteJSON(f); err != nil {
		fmt.Fprintln(os.Stderr, "faasd: trace:", err)
		return
	}
	fmt.Fprintf(os.Stderr, "[faasd trace written to %s]\n", path)
}

// validate rejects nonsensical knob settings before any work starts.
// Zero means "use the default" for the sizing knobs, so only negatives
// (and zero where a default does not exist) are errors.
func validate(shards, workers, queue, maxInFlight, slots, warm int, timeout time.Duration, breakerFails int, breakerOpen, drainTimeout time.Duration) error {
	switch {
	case shards < 0:
		return fmt.Errorf("-shards %d: must be >= 1 (or 0 for the default)", shards)
	case workers < 0:
		return fmt.Errorf("-workers %d: must be >= 1 (or 0 for the default)", workers)
	case queue < 0:
		return fmt.Errorf("-queue %d: must be >= 1 (or 0 for the default)", queue)
	case maxInFlight < 0:
		return fmt.Errorf("-maxinflight %d: must be >= 1 (or 0 for the default)", maxInFlight)
	case slots < 0:
		return fmt.Errorf("-slots %d: must be >= 1 (or 0 for the default)", slots)
	case warm < -1:
		return fmt.Errorf("-warm %d: must be >= 0 (or -1 to disable keep-warm)", warm)
	case timeout < 0:
		return fmt.Errorf("-timeout %v: must be >= 0", timeout)
	case breakerFails < 1:
		return fmt.Errorf("-breakerfails %d: must be >= 1", breakerFails)
	case breakerOpen <= 0:
		return fmt.Errorf("-breakeropen %v: must be positive", breakerOpen)
	case drainTimeout <= 0:
		return fmt.Errorf("-draintimeout %v: must be positive", drainTimeout)
	}
	return nil
}

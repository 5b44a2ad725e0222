// Package server is the real serving layer over the sandbox runtime:
// an HTTP front end that executes the measured FaaS workload kernels
// (internal/workloads) on emulated instances (internal/rt) placed by an
// isolation backend (internal/isolation) chosen per request, behind a
// sharded worker-pool dispatcher with bounded queues.
//
// Where internal/faas simulates this serving path in virtual time, this
// package runs it on the wall clock: the same internal/fault policy
// math — admission control against a bounded in-flight count, a
// per-request deadline measured from admission, and the three-state
// circuit breaker — guards a real network surface. The endpoints are
//
//	POST/GET /invoke/<kernel>   execute one request (?n= batch,
//	                            ?backend= isolation kind)
//	GET      /healthz           serving/draining status, breaker state
//	GET      /metrics           telemetry Registry snapshot as JSON
//	GET/POST /control/warm      read / set per-backend keep-warm targets
//
// Concurrency model: compiled modules are shared (they are immutable
// after compilation, and come from the race-safe rt compile cache), but
// simulated address spaces are not thread-safe, so every worker
// goroutine owns its isolation backends outright — one slab per backend
// kind, reserved lazily on first use. A request is admitted by the HTTP
// handler, dealt round-robin to a shard's bounded queue, executed by
// one of the shard's workers on a fresh instance allocated from the
// worker's backend, and recycled on completion. Saturation therefore
// degrades exactly like the simulator: queue-full and over-limit
// arrivals shed with 429, deadline misses count as timeouts and feed
// the breaker, and an open breaker fast-fails admissions with 503.
//
// Keep-warm pools amortize cold starts: after a successful request the
// worker may pin the instance (slot held, memory initialized) instead
// of recycling it, so the next request for the same (kernel, backend,
// scheme) pays an rt.Instance.Reset — a madvise and a state replay —
// rather than the whole placement path. Pool capacity is a per-backend
// target, adjustable at runtime through /control/warm; the cluster
// autoscaler (internal/cluster) drives it from scraped telemetry. This
// is where ColorGuard's slot density pays off at scale: its warm
// instances share one process, while a warm multiproc instance is a
// whole pinned OS process (§7).
package server

import (
	"encoding/json"
	"fmt"
	"net/http"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/cpu"
	"repro/internal/fault"
	"repro/internal/isolation"
	"repro/internal/rt"
	"repro/internal/sfi"
	"repro/internal/telemetry"
	"repro/internal/workloads"
)

// Config parameterizes a Server. The zero value is usable: every field
// falls back to the default noted on it.
type Config struct {
	// Kernels names the workload kernels to serve, from the FaaS suite
	// (default: all of it).
	Kernels []string

	// DefaultBackend is the isolation backend used when a request does
	// not pick one with ?backend= (default: colorguard).
	DefaultBackend isolation.Kind

	// DefaultScheme is the transition scheme used when a request does
	// not pick one with ?scheme= (default: isolation.SchemeDefault).
	DefaultScheme isolation.Scheme

	// Tier is the execution tier every worker instance runs on
	// (default: the zero value, cpu.TierFused).
	Tier cpu.Tier

	// Harden is the Spectre-hardening scheme the served kernels are
	// compiled under (default: sfi.HardenNone).
	Harden sfi.Harden

	// Shards is the number of dispatcher shards, each with its own
	// bounded queue (default: NumCPU, capped at 8).
	Shards int

	// WorkersPerShard is the number of executor goroutines per shard,
	// each owning its isolation backends (default: 1).
	WorkersPerShard int

	// QueueDepth bounds each shard's queue; an arrival finding the
	// queue full is shed with 429 (default: 64).
	QueueDepth int

	// MaxInFlight is the server-wide admission limit across queued and
	// executing requests — fault.Config.QueueLimit on the wall clock.
	// 0 means Shards*QueueDepth.
	MaxInFlight int

	// RequestTimeout is the per-request deadline measured from
	// admission — fault.Config.TimeoutNs on the wall clock. A request
	// still queued at its deadline is dropped with 504 and counts as a
	// breaker failure. 0 disables.
	RequestTimeout time.Duration

	// Breaker configures the three-state circuit breaker consulted at
	// admission (internal/fault's policy on wall-clock nanoseconds).
	// The zero value leaves the breaker disabled.
	Breaker fault.BreakerConfig

	// SlotsPerWorker is each worker backend's slot count (default: 4;
	// a worker runs one request at a time, slack covers recycle churn
	// and pinned keep-warm instances).
	SlotsPerWorker int

	// WarmPerWorker is the initial keep-warm target per backend kind:
	// how many recently-used instances each worker pins (slot held,
	// memory initialized) so a repeat request pays an instance reset
	// instead of a cold start. 0 selects the default (2); negative
	// disables keep-warm. Targets are adjustable at runtime per backend
	// via POST /control/warm (the cluster autoscaler's lever) and are
	// always clamped to SlotsPerWorker-1 so each of a worker's per-kind
	// slabs keeps one slot of cold-start headroom.
	WarmPerWorker int

	// Registry receives the server's metrics (default:
	// telemetry.Default).
	Registry *telemetry.Registry
}

func (c Config) withDefaults() Config {
	if len(c.Kernels) == 0 {
		for _, k := range workloads.FaaS().Kernels {
			c.Kernels = append(c.Kernels, k.Name)
		}
	}
	if c.DefaultBackend == "" {
		c.DefaultBackend = isolation.ColorGuard
	}
	c.DefaultScheme = isolation.ResolveScheme(c.DefaultScheme)
	if c.Shards <= 0 {
		c.Shards = runtime.NumCPU()
		if c.Shards > 8 {
			c.Shards = 8
		}
	}
	if c.WorkersPerShard <= 0 {
		c.WorkersPerShard = 1
	}
	if c.QueueDepth <= 0 {
		c.QueueDepth = 64
	}
	if c.MaxInFlight <= 0 {
		c.MaxInFlight = c.Shards * c.QueueDepth
	}
	if c.SlotsPerWorker <= 0 {
		c.SlotsPerWorker = 4
	}
	switch {
	case c.WarmPerWorker == 0:
		c.WarmPerWorker = 2
	case c.WarmPerWorker < 0:
		c.WarmPerWorker = 0 // keep-warm disabled
	}
	if max := c.SlotsPerWorker - 1; c.WarmPerWorker > max {
		c.WarmPerWorker = max
	}
	if c.Registry == nil {
		c.Registry = telemetry.Default
	}
	return c
}

// metrics caches the server's registry instruments so the request path
// pays one atomic op per event, never a map lookup.
type metrics struct {
	requests     *telemetry.Counter
	completed    *telemetry.Counter
	shed         *telemetry.Counter
	timeouts     *telemetry.Counter
	failed       *telemetry.Counter
	breakerOpens *telemetry.Counter
	inFlight     *telemetry.Gauge
	latency      *telemetry.Histogram

	// Keep-warm pool instruments: hits reused a pinned instance, misses
	// cold-started, evictions closed a pinned instance to make room (or
	// on an autoscaler shrink), resetFails fell back to a cold start.
	// warmPinned gauges the instances currently pinned across workers.
	warmHits       *telemetry.Counter
	warmMisses     *telemetry.Counter
	warmEvictions  *telemetry.Counter
	warmResetFails *telemetry.Counter
	warmPinned     *telemetry.Gauge

	// warmMissKind splits misses per backend so an autoscaler can grow
	// exactly the pool that is cold-starting.
	warmMissKind map[isolation.Kind]*telemetry.Counter
}

func newMetrics(reg *telemetry.Registry) *metrics {
	return &metrics{
		requests:     reg.Counter("server.requests"),
		completed:    reg.Counter("server.completed"),
		shed:         reg.Counter("server.shed"),
		timeouts:     reg.Counter("server.timeouts"),
		failed:       reg.Counter("server.failed"),
		breakerOpens: reg.Counter("server.breaker_opens"),
		inFlight:     reg.Gauge("server.in_flight"),
		latency: reg.Histogram("server.request_latency_ns",
			telemetry.ExpBuckets(1e4, 2, 28)), // 10 µs .. ~22 min
		warmHits:       reg.Counter("server.warm.hits"),
		warmMisses:     reg.Counter("server.warm.misses"),
		warmEvictions:  reg.Counter("server.warm.evictions"),
		warmResetFails: reg.Counter("server.warm.reset_fails"),
		warmPinned:     reg.Gauge("server.warm.pinned"),
		warmMissKind:   warmMissCounters(reg),
	}
}

func warmMissCounters(reg *telemetry.Registry) map[isolation.Kind]*telemetry.Counter {
	m := make(map[isolation.Kind]*telemetry.Counter, len(isolation.Kinds()))
	for _, k := range isolation.Kinds() {
		m[k] = reg.Counter("server.warm.misses." + string(k))
	}
	return m
}

// Server dispatches /invoke requests over a sharded worker pool and
// reports health and metrics. Create with New, expose with Handler,
// stop with BeginDrain then Close.
type Server struct {
	cfg     Config
	kernels map[string]workloads.Kernel
	mods    map[string]*rt.Module // compiled once, shared read-only
	shards  []*shard
	breaker *fault.Breaker // on wall-clock ns since start (now)
	met     *metrics
	start   time.Time

	// flight keeps the slowest-N and most-recent-N fully-attributed
	// requests for /debug/requests. phaseRec publishes serve.phase.*
	// histograms; it is resolved lazily on the first recorded span so a
	// server that never enables spans never adds the keys to /metrics.
	flight    *telemetry.FlightRecorder
	phaseOnce sync.Once
	phaseRec  *telemetry.PhaseRecorder
	traceSeq  atomic.Uint64

	inFlight atomic.Int64
	rr       atomic.Uint64 // round-robin shard cursor

	// warmTargets is the per-backend keep-warm target (instances each
	// worker pins). Written by SetWarmTarget (the /control/warm
	// endpoint), read by workers on every pool decision; enforcement is
	// lazy on the worker's own goroutine.
	warmMu      sync.RWMutex
	warmTargets map[isolation.Kind]int

	// mu guards the enqueue-vs-Close race: Close sets closed and closes
	// the shard queues under the write lock; enqueues hold the read
	// lock, so no send can hit a closed channel.
	mu       sync.RWMutex
	closed   bool
	draining atomic.Bool
	wg       sync.WaitGroup
}

// New builds and starts a server: workers launch immediately and the
// returned server is ready to serve.
func New(cfg Config) (*Server, error) {
	cfg = cfg.withDefaults()
	suite := workloads.FaaS()
	kernels := make(map[string]workloads.Kernel, len(cfg.Kernels))
	mods := make(map[string]*rt.Module, len(cfg.Kernels))
	for _, name := range cfg.Kernels {
		k, err := suite.Find(name)
		if err != nil {
			return nil, fmt.Errorf("server: %w", err)
		}
		mod, err := compileKernel(k, cfg.Harden)
		if err != nil {
			return nil, fmt.Errorf("server: compiling %s: %w", name, err)
		}
		kernels[name] = k
		mods[name] = mod
	}
	if err := validBackend(cfg.DefaultBackend); err != nil {
		return nil, fmt.Errorf("server: %w", err)
	}
	if _, err := isolation.ParseScheme(string(cfg.DefaultScheme)); err != nil {
		return nil, fmt.Errorf("server: %w", err)
	}
	s := &Server{
		cfg:         cfg,
		kernels:     kernels,
		mods:        mods,
		breaker:     fault.NewBreaker(cfg.Breaker),
		met:         newMetrics(cfg.Registry),
		flight:      telemetry.NewFlightRecorder(0),
		start:       time.Now(),
		warmTargets: make(map[isolation.Kind]int, len(isolation.Kinds())),
	}
	for _, k := range isolation.Kinds() {
		s.warmTargets[k] = cfg.WarmPerWorker
	}
	for i := 0; i < cfg.Shards; i++ {
		sh := &shard{
			id:    i,
			queue: make(chan *job, cfg.QueueDepth),
		}
		s.shards = append(s.shards, sh)
		for w := 0; w < cfg.WorkersPerShard; w++ {
			wk := newWorker(s, i*cfg.WorkersPerShard+w)
			s.wg.Add(1)
			go wk.run(sh.queue)
		}
	}
	return s, nil
}

func validBackend(kind isolation.Kind) error {
	for _, k := range isolation.Kinds() {
		if k == kind {
			return nil
		}
	}
	return fmt.Errorf("unknown isolation backend %q (want one of %v)", kind, isolation.Kinds())
}

// shard is one dispatcher lane: a bounded queue feeding that lane's
// workers.
type shard struct {
	id    int
	queue chan *job
}

// job is one admitted request on its way through a shard queue.
type job struct {
	kernel   workloads.Kernel
	backend  isolation.Kind
	scheme   isolation.Scheme
	batch    uint64
	traceID  string
	shard    int
	start    time.Time // handler entry, the span's zero point
	admitted time.Time
	deadline time.Time // zero = no deadline
	done     chan jobResult

	// span accumulates the request's wall-clock phase attribution.
	// Ownership follows the request: the handler writes the admission
	// phase before enqueueing, the worker writes queue through
	// transition-out, and the handler writes marshal after receiving on
	// done — each handoff synchronizes through the queue channels.
	span telemetry.Span
}

// jobResult is what a worker delivers back to the waiting handler.
type jobResult struct {
	status   int
	err      string
	checksum uint64
	simNs    float64
	worker   int
	// finished is the worker's last attributed boundary; the handler
	// charges finished → response-render to PhaseMarshal. Only set when
	// the job's span (or the tracer) is live.
	finished time.Time
}

// now is the breaker's clock: wall-clock nanoseconds since the server
// started.
func (s *Server) now() float64 { return float64(time.Since(s.start)) }

// BeginDrain flips the server to draining: /healthz turns 503 and new
// /invoke requests are rejected, while queued and executing requests
// finish. Call before shutting the HTTP listener down.
func (s *Server) BeginDrain() { s.draining.Store(true) }

// Close stops the workers and releases their backends. Only call once
// no handler can still be enqueueing — i.e. after BeginDrain plus
// http.Server.Shutdown. Queued jobs are still executed before workers
// exit (their waiters, if gone, are not blocked on: results are
// buffered).
func (s *Server) Close() error {
	s.mu.Lock()
	if !s.closed {
		s.closed = true
		s.draining.Store(true)
		for _, sh := range s.shards {
			close(sh.queue)
		}
	}
	s.mu.Unlock()
	s.wg.Wait()
	return nil
}

// Handler returns the server's HTTP surface.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/invoke/", s.handleInvoke)
	mux.HandleFunc("/healthz", s.handleHealthz)
	mux.HandleFunc("/metrics", s.handleMetrics)
	mux.HandleFunc("/debug/requests", s.handleDebugRequests)
	mux.HandleFunc("/control/warm", s.handleControlWarm)
	return mux
}

// WarmTarget returns the current keep-warm target for kind.
func (s *Server) WarmTarget(kind isolation.Kind) int {
	s.warmMu.RLock()
	defer s.warmMu.RUnlock()
	return s.warmTargets[kind]
}

// WarmTargets snapshots every backend's keep-warm target.
func (s *Server) WarmTargets() map[isolation.Kind]int {
	s.warmMu.RLock()
	defer s.warmMu.RUnlock()
	out := make(map[isolation.Kind]int, len(s.warmTargets))
	for k, v := range s.warmTargets {
		out[k] = v
	}
	return out
}

// SetWarmTarget sets the keep-warm target for kind, clamped to
// [0, SlotsPerWorker-1] so every worker's slab of that kind keeps one
// slot of cold-start headroom. It returns the applied value. Workers converge lazily: the
// next time one touches its pool it enforces the new target (an idle
// worker keeps its pins until then — shrink frees slots on the next
// request, not instantly).
func (s *Server) SetWarmTarget(kind isolation.Kind, target int) int {
	if target < 0 {
		target = 0
	}
	if max := s.cfg.SlotsPerWorker - 1; target > max {
		target = max
	}
	s.warmMu.Lock()
	s.warmTargets[kind] = target
	s.warmMu.Unlock()
	s.cfg.Registry.Gauge("server.warm.target." + string(kind)).Set(int64(target))
	return target
}

// handleControlWarm is the autoscaler's lever: GET reports the current
// per-backend keep-warm targets, POST ?backend=<kind>&target=<n> sets
// one (the response echoes the clamped value actually applied).
func (s *Server) handleControlWarm(w http.ResponseWriter, r *http.Request) {
	switch r.Method {
	case http.MethodGet:
		targets := make(map[string]int)
		for k, v := range s.WarmTargets() {
			targets[string(k)] = v
		}
		writeJSON(w, http.StatusOK, map[string]any{
			"targets": targets,
			"pinned":  s.met.warmPinned.Load(),
			"slots":   s.cfg.SlotsPerWorker,
		})
	case http.MethodPost:
		kind := isolation.Kind(r.URL.Query().Get("backend"))
		if err := validBackend(kind); err != nil {
			writeError(w, http.StatusBadRequest, err.Error())
			return
		}
		target, err := strconv.Atoi(r.URL.Query().Get("target"))
		if err != nil || target < 0 {
			writeError(w, http.StatusBadRequest, "target must be an integer >= 0")
			return
		}
		applied := s.SetWarmTarget(kind, target)
		writeJSON(w, http.StatusOK, map[string]any{
			"backend": string(kind),
			"target":  applied,
		})
	default:
		writeError(w, http.StatusMethodNotAllowed, "GET or POST")
	}
}

// Stats is a point-in-time summary of the serving counters (for the
// faasd shutdown report and tests).
type Stats struct {
	Requests     uint64
	Completed    uint64
	Shed         uint64
	Timeouts     uint64
	Failed       uint64
	BreakerOpens uint64
	InFlight     int64
}

// Stats snapshots the serving counters.
func (s *Server) Stats() Stats {
	return Stats{
		Requests:     s.met.requests.Load(),
		Completed:    s.met.completed.Load(),
		Shed:         s.met.shed.Load(),
		Timeouts:     s.met.timeouts.Load(),
		Failed:       s.met.failed.Load(),
		BreakerOpens: s.breaker.Opens(),
		InFlight:     s.inFlight.Load(),
	}
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	data, err := json.Marshal(v)
	if err != nil {
		// All payloads here are plain structs/maps of scalars.
		panic(err)
	}
	w.Write(append(data, '\n'))
}

func writeError(w http.ResponseWriter, status int, msg string) {
	writeJSON(w, status, map[string]string{"error": msg})
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	status := http.StatusOK
	state := "ok"
	if s.draining.Load() {
		status = http.StatusServiceUnavailable
		state = "draining"
	}
	// Per-shard saturation detail, so load tooling can tell "one hot
	// shard" from "healthy" without scraping /metrics. The breaker and
	// admission limit are server-wide; queue depth is the per-shard
	// signal.
	shards := make([]map[string]any, 0, len(s.shards))
	for _, sh := range s.shards {
		shards = append(shards, map[string]any{
			"id":             sh.id,
			"queue_depth":    len(sh.queue),
			"queue_capacity": cap(sh.queue),
		})
	}
	warmTargets := make(map[string]int)
	for k, v := range s.WarmTargets() {
		warmTargets[string(k)] = v
	}
	writeJSON(w, status, map[string]any{
		"status":    state,
		"breaker":   s.breaker.State().String(),
		"in_flight": s.inFlight.Load(),
		"shards":    shards,
		"warm": map[string]any{
			"pinned":  s.met.warmPinned.Load(),
			"targets": warmTargets,
		},
		"uptime_s": time.Since(s.start).Seconds(),
	})
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	// Surface trace truncation in the snapshot whenever the process
	// tracer is live, so a scraped metrics dump never pairs with a
	// silently truncated trace.
	if telemetry.Trace.Enabled() {
		s.cfg.Registry.Gauge("trace.dropped").Set(int64(telemetry.Trace.Dropped()))
	}
	w.Header().Set("Content-Type", "application/json")
	w.Write(s.cfg.Registry.Snapshot().JSON())
}

// handleDebugRequests serves the flight recorder: the most recent and
// slowest fully-attributed requests, newest/slowest first.
func (s *Server) handleDebugRequests(w http.ResponseWriter, r *http.Request) {
	snap := s.flight.Snapshot()
	writeJSON(w, http.StatusOK, map[string]any{
		"spans_enabled": telemetry.SpansEnabled(),
		"seen":          snap.Seen,
		"recent":        snap.Recent,
		"slowest":       snap.Slowest,
	})
}

// newTraceID returns a server-unique request id: a per-boot prefix from
// the start time plus a sequence number.
func (s *Server) newTraceID() string {
	return fmt.Sprintf("%08x-%06x", uint32(s.start.UnixNano()), s.traceSeq.Add(1))
}

// recordRequest publishes one finished, span-attributed request to the
// serve.phase histograms and the flight recorder.
func (s *Server) recordRequest(j *job, res jobResult, totalNs float64) {
	s.phaseOnce.Do(func() {
		s.phaseRec = telemetry.NewPhaseRecorder(s.cfg.Registry, "serve.phase")
	})
	s.phaseRec.Record(&j.span)
	s.flight.Record(telemetry.RequestRecord{
		TraceID: j.traceID,
		Kernel:  j.kernel.Name,
		Backend: string(j.backend),
		Scheme:  string(j.scheme),
		Status:  res.status,
		Shard:   j.shard,
		Worker:  res.worker,
		StartNs: float64(j.start.Sub(s.start)),
		TotalNs: totalNs,
		Phases:  j.span.PhaseMap(),
	})
}

// maxBatch bounds the per-request batch argument: the kernels are
// linear in it, and an unbounded value would let one request occupy a
// worker indefinitely.
const maxBatch = 100000

func (s *Server) handleInvoke(w http.ResponseWriter, r *http.Request) {
	s.met.requests.Inc()
	start := time.Now()
	traceID := s.newTraceID()
	w.Header().Set("X-Trace-Id", traceID)

	name := strings.TrimPrefix(r.URL.Path, "/invoke/")
	k, ok := s.kernels[name]
	if !ok {
		writeError(w, http.StatusNotFound, fmt.Sprintf("unknown kernel %q", name))
		return
	}
	backend := s.cfg.DefaultBackend
	if b := r.URL.Query().Get("backend"); b != "" {
		backend = isolation.Kind(b)
		if err := validBackend(backend); err != nil {
			writeError(w, http.StatusBadRequest, err.Error())
			return
		}
	}
	scheme := s.cfg.DefaultScheme
	if sc := r.URL.Query().Get("scheme"); sc != "" {
		parsed, err := isolation.ParseScheme(sc)
		if err != nil {
			writeError(w, http.StatusBadRequest, err.Error())
			return
		}
		scheme = parsed
	}
	batch := k.TestArgs[0]
	if n := r.URL.Query().Get("n"); n != "" {
		v, err := strconv.ParseUint(n, 10, 64)
		if err != nil || v < 1 || v > maxBatch {
			writeError(w, http.StatusBadRequest,
				fmt.Sprintf("n must be an integer in [1, %d]", maxBatch))
			return
		}
		batch = v
	}

	// Admission control, cheapest rejection first: drain state, then
	// the breaker, then the in-flight limit, then the shard queue.
	if s.draining.Load() {
		writeError(w, http.StatusServiceUnavailable, "draining")
		return
	}
	if !s.breaker.Allow(s.now()) {
		s.met.shed.Inc()
		w.Header().Set("Retry-After", "1")
		writeError(w, http.StatusServiceUnavailable, "circuit breaker open")
		return
	}
	if s.inFlight.Load() >= int64(s.cfg.MaxInFlight) {
		s.met.shed.Inc()
		w.Header().Set("Retry-After", "1")
		writeError(w, http.StatusTooManyRequests, "admission limit reached")
		return
	}

	now := time.Now()
	j := &job{
		kernel:   k,
		backend:  backend,
		scheme:   scheme,
		batch:    batch,
		traceID:  traceID,
		start:    start,
		admitted: now,
		done:     make(chan jobResult, 1),
		span:     telemetry.NewSpan(),
	}
	if s.cfg.RequestTimeout > 0 {
		j.deadline = now.Add(s.cfg.RequestTimeout)
	}
	// Everything from handler entry to admission is the admission
	// phase; the queue phase starts at j.admitted.
	j.span.Add(telemetry.PhaseAdmission, float64(now.Sub(start)))

	// Deal to a shard round-robin; a full queue sheds immediately
	// rather than blocking the handler (open-loop clients keep
	// arriving regardless).
	sh := s.shards[s.rr.Add(1)%uint64(len(s.shards))]
	j.shard = sh.id
	s.mu.RLock()
	if s.closed {
		s.mu.RUnlock()
		writeError(w, http.StatusServiceUnavailable, "draining")
		return
	}
	enqueued := false
	select {
	case sh.queue <- j:
		enqueued = true
		s.inFlight.Add(1)
		s.met.inFlight.Set(s.inFlight.Load())
	default:
	}
	s.mu.RUnlock()
	if !enqueued {
		s.met.shed.Inc()
		w.Header().Set("Retry-After", "1")
		writeError(w, http.StatusTooManyRequests, "queue full")
		return
	}

	select {
	case res := <-j.done:
		// Close out the span: the worker's writes happened-before the
		// done receive, so charging its last boundary → here to marshal
		// makes the phases telescope exactly over [start, rec].
		if j.span.On() {
			rec := time.Now()
			if !res.finished.IsZero() {
				j.span.Add(telemetry.PhaseMarshal, float64(rec.Sub(res.finished)))
			}
			s.recordRequest(j, res, float64(rec.Sub(j.start)))
		}
		if res.status != http.StatusOK {
			writeError(w, res.status, res.err)
			return
		}
		wall := time.Since(j.admitted)
		payload := map[string]any{
			"kernel":   k.Name,
			"backend":  string(backend),
			"scheme":   string(scheme),
			"n":        batch,
			"checksum": res.checksum,
			"sim_us":   res.simNs / 1e3,
			"wall_us":  float64(wall.Nanoseconds()) / 1e3,
			"worker":   res.worker,
			"trace_id": j.traceID,
		}
		if j.span.On() {
			phases := make(map[string]float64, telemetry.NumPhases)
			for name, ns := range j.span.PhaseMap() {
				phases[name] = ns / 1e3
			}
			payload["phase_us"] = phases
		}
		writeJSON(w, http.StatusOK, payload)
	case <-r.Context().Done():
		// Client gone; the worker still completes and accounts the job
		// (done is buffered, so it never blocks). Nothing is recorded:
		// the span's final phases never materialize.
		writeError(w, http.StatusServiceUnavailable, "client cancelled")
	}
}

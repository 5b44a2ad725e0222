package cluster

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/telemetry"
)

// writeJSONValue marshals v to w. Values here are maps/slices of
// scalars; marshal cannot fail.
func writeJSONValue(w io.Writer, v any) {
	data, err := json.Marshal(v)
	if err != nil {
		panic(err)
	}
	w.Write(data)
}

// RouterConfig configures a Router. The zero value is usable.
type RouterConfig struct {
	// Vnodes is the virtual-node count per worker on the hash ring
	// (0 selects the ring default).
	Vnodes int

	// Spread is how many ring candidates a request may be served by:
	// 1 pins every key to its home worker (maximum keep-warm affinity),
	// larger values let a loaded home divert to the next candidates.
	// 0 selects the default, 2.
	Spread int

	// LoadFactor is the bounded-load constant c: a candidate is skipped
	// while its in-flight count exceeds c * (cluster in-flight / workers)
	// + 1. 0 selects the default, 1.25.
	LoadFactor float64

	// Client performs the proxied requests. Nil selects a dedicated
	// client with a short dial timeout so a dead worker fails over fast.
	Client *http.Client

	// Registry receives the cluster.router.* instruments. Nil selects
	// telemetry.Default.
	Registry *telemetry.Registry
}

func (c RouterConfig) withDefaults() RouterConfig {
	if c.Spread <= 0 {
		c.Spread = 2
	}
	if c.LoadFactor <= 0 {
		c.LoadFactor = 1.25
	}
	if c.Client == nil {
		c.Client = &http.Client{Timeout: 30 * time.Second}
	}
	if c.Registry == nil {
		c.Registry = telemetry.Default
	}
	return c
}

// routerWorker is the router's view of one worker process: its base
// URL, the live in-flight count (the bounded-load signal), and a health
// bit flipped by proxy failures and supervisor callbacks.
type routerWorker struct {
	name     string
	baseURL  string
	inFlight atomic.Int64
	healthy  atomic.Bool
}

// Router consistent-hashes /invoke requests across a set of faasd
// worker processes. The affinity key is (kernel, backend, scheme) — the
// same key the workers' keep-warm pools pin under — so repeat requests
// land where their warm instance lives. A home worker over the
// bounded-load limit diverts to the next ring candidate, and a worker
// that fails at the transport level is marked down and failed over,
// so worker death never surfaces as a routing-layer 5xx while any
// replica is reachable.
type Router struct {
	cfg  RouterConfig
	ring *Ring

	mu      sync.RWMutex
	workers map[string]*routerWorker

	met routerMetrics
}

type routerMetrics struct {
	requests  *telemetry.Counter
	proxied   *telemetry.Counter
	diverted  *telemetry.Counter
	failovers *telemetry.Counter
	noWorker  *telemetry.Counter
	workersUp *telemetry.Gauge
}

// NewRouter returns a Router with no workers; add them with AddWorker
// (or let a Supervisor's OnUp callback do it).
func NewRouter(cfg RouterConfig) *Router {
	cfg = cfg.withDefaults()
	reg := cfg.Registry
	return &Router{
		cfg:     cfg,
		ring:    NewRing(cfg.Vnodes),
		workers: make(map[string]*routerWorker),
		met: routerMetrics{
			requests:  reg.Counter("cluster.router.requests"),
			proxied:   reg.Counter("cluster.router.proxied"),
			diverted:  reg.Counter("cluster.router.diverted"),
			failovers: reg.Counter("cluster.router.failovers"),
			noWorker:  reg.Counter("cluster.router.no_worker"),
			workersUp: reg.Gauge("cluster.router.workers"),
		},
	}
}

// AddWorker registers a worker under name, serving at baseURL (e.g.
// "http://127.0.0.1:8081"). Re-adding an existing name updates its URL
// and marks it healthy (a supervisor restart lands here).
func (rt *Router) AddWorker(name, baseURL string) {
	rt.mu.Lock()
	w, ok := rt.workers[name]
	if !ok {
		w = &routerWorker{name: name}
		rt.workers[name] = w
	}
	w.baseURL = strings.TrimSuffix(baseURL, "/")
	w.healthy.Store(true)
	rt.mu.Unlock()
	rt.ring.Add(name)
	rt.met.workersUp.Set(int64(rt.countHealthy()))
}

// SetHealthy flips a worker's health bit without moving ring keys: an
// unhealthy worker is skipped by routing but keeps its arc, so a brief
// restart does not reshuffle every pool in the cluster.
func (rt *Router) SetHealthy(name string, up bool) {
	rt.mu.RLock()
	w := rt.workers[name]
	rt.mu.RUnlock()
	if w != nil {
		w.healthy.Store(up)
		rt.met.workersUp.Set(int64(rt.countHealthy()))
	}
}

// Workers returns the registered worker names and base URLs, sorted by
// name (the autoscaler's scrape list).
func (rt *Router) Workers() map[string]string {
	rt.mu.RLock()
	defer rt.mu.RUnlock()
	out := make(map[string]string, len(rt.workers))
	for n, w := range rt.workers {
		out[n] = w.baseURL
	}
	return out
}

func (rt *Router) countHealthy() int {
	rt.mu.RLock()
	defer rt.mu.RUnlock()
	n := 0
	for _, w := range rt.workers {
		if w.healthy.Load() {
			n++
		}
	}
	return n
}

func (rt *Router) totalInFlight() int64 {
	rt.mu.RLock()
	defer rt.mu.RUnlock()
	var n int64
	for _, w := range rt.workers {
		n += w.inFlight.Load()
	}
	return n
}

// AffinityKey is the routing key for one request: the same triple the
// workers pin warm instances under, so routing and reuse agree.
func AffinityKey(kernel, backend, scheme string) string {
	return kernel + "|" + backend + "|" + scheme
}

// candidates resolves the ordered worker list for a key: the home
// first, then the spread/failover candidates.
func (rt *Router) candidates(key string) []*routerWorker {
	names := rt.ring.Lookup(key, rt.cfg.Spread)
	rt.mu.RLock()
	defer rt.mu.RUnlock()
	out := make([]*routerWorker, 0, len(names))
	for _, n := range names {
		if w, ok := rt.workers[n]; ok {
			out = append(out, w)
		}
	}
	return out
}

// pick chooses the first healthy candidate under the bounded-load
// limit; if all healthy candidates are over the limit, the least-loaded
// healthy one. Returns nil when no candidate is healthy.
func (rt *Router) pick(cands []*routerWorker) (*routerWorker, bool) {
	limit := int64(rt.cfg.LoadFactor*float64(rt.totalInFlight())/float64(maxInt(rt.ring.Size(), 1))) + 1
	var fallback *routerWorker
	for i, w := range cands {
		if !w.healthy.Load() {
			continue
		}
		if w.inFlight.Load() < limit {
			return w, i > 0
		}
		if fallback == nil || w.inFlight.Load() < fallback.inFlight.Load() {
			fallback = w
		}
	}
	return fallback, fallback != nil && len(cands) > 0 && fallback != cands[0]
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}

// Handler returns the router's HTTP handler:
//
//	GET/POST /invoke/<kernel>   proxied to a worker (query forwarded)
//	GET      /healthz           router + per-worker health
//	GET      /metrics           registry snapshot (cluster.router.*)
//	GET      /workers           registered worker names and URLs
func (rt *Router) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/invoke/", rt.handleInvoke)
	mux.HandleFunc("/healthz", rt.handleHealthz)
	mux.HandleFunc("/metrics", rt.handleMetrics)
	mux.HandleFunc("/workers", rt.handleWorkers)
	return mux
}

func (rt *Router) handleInvoke(w http.ResponseWriter, r *http.Request) {
	rt.met.requests.Inc()
	kernel := strings.TrimPrefix(r.URL.Path, "/invoke/")
	q := r.URL.Query()
	key := AffinityKey(kernel, q.Get("backend"), q.Get("scheme"))

	// Failover loop: try the picked candidate; a transport-level failure
	// marks it down and moves on. Worker-returned statuses (including
	// 4xx/5xx) are the worker's answer, not a routing failure — they
	// pass through untouched.
	tried := make(map[string]bool)
	for attempt := 0; attempt < rt.cfg.Spread+1; attempt++ {
		cands := rt.candidates(key)
		var next []*routerWorker
		for _, c := range cands {
			if !tried[c.name] {
				next = append(next, c)
			}
		}
		if len(next) == 0 {
			break
		}
		picked, diverted := rt.pick(next)
		if picked == nil {
			break
		}
		tried[picked.name] = true
		if diverted {
			rt.met.diverted.Inc()
		}
		if rt.proxy(w, r, picked) {
			rt.met.proxied.Inc()
			return
		}
		// Transport failure: mark down, fail over to the next candidate.
		picked.healthy.Store(false)
		rt.met.workersUp.Set(int64(rt.countHealthy()))
		rt.met.failovers.Inc()
	}
	rt.met.noWorker.Inc()
	http.Error(w, `{"error":"no healthy worker"}`, http.StatusBadGateway)
}

// proxy forwards one request to a worker and copies the response back,
// propagating X-Trace-Id both ways. Returns false on a transport-level
// failure (the worker never answered); any HTTP response counts as
// success and is relayed verbatim.
func (rt *Router) proxy(w http.ResponseWriter, r *http.Request, wk *routerWorker) bool {
	wk.inFlight.Add(1)
	defer wk.inFlight.Add(-1)

	url := wk.baseURL + r.URL.Path
	if r.URL.RawQuery != "" {
		url += "?" + r.URL.RawQuery
	}
	req, err := http.NewRequestWithContext(r.Context(), r.Method, url, r.Body)
	if err != nil {
		return false
	}
	if tid := r.Header.Get("X-Trace-Id"); tid != "" {
		req.Header.Set("X-Trace-Id", tid)
	}
	resp, err := rt.cfg.Client.Do(req)
	if err != nil {
		return false
	}
	defer resp.Body.Close()
	if tid := resp.Header.Get("X-Trace-Id"); tid != "" {
		w.Header().Set("X-Trace-Id", tid)
	}
	w.Header().Set("X-Served-By", wk.name)
	if ct := resp.Header.Get("Content-Type"); ct != "" {
		w.Header().Set("Content-Type", ct)
	}
	if ra := resp.Header.Get("Retry-After"); ra != "" {
		w.Header().Set("Retry-After", ra)
	}
	w.WriteHeader(resp.StatusCode)
	_, _ = io.Copy(w, resp.Body)
	return true
}

func (rt *Router) handleHealthz(w http.ResponseWriter, r *http.Request) {
	rt.mu.RLock()
	names := make([]string, 0, len(rt.workers))
	for n := range rt.workers {
		names = append(names, n)
	}
	rt.mu.RUnlock()
	sort.Strings(names)
	workers := make([]map[string]any, 0, len(names))
	healthy := 0
	for _, n := range names {
		rt.mu.RLock()
		wk := rt.workers[n]
		rt.mu.RUnlock()
		if wk == nil {
			continue
		}
		up := wk.healthy.Load()
		if up {
			healthy++
		}
		workers = append(workers, map[string]any{
			"name":      n,
			"url":       wk.baseURL,
			"healthy":   up,
			"in_flight": wk.inFlight.Load(),
		})
	}
	status := http.StatusOK
	if healthy == 0 && len(names) > 0 {
		status = http.StatusServiceUnavailable
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	fmt.Fprintf(w, `{"status":%q,"workers":`, map[bool]string{true: "ok", false: "degraded"}[healthy == len(names)])
	writeJSONValue(w, workers)
	fmt.Fprint(w, "}\n")
}

func (rt *Router) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	w.Write(rt.cfg.Registry.Snapshot().JSON())
}

func (rt *Router) handleWorkers(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	writeJSONValue(w, rt.Workers())
	fmt.Fprintln(w)
}

package main

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/cluster"
	"repro/internal/ir"
	"repro/internal/isolation"
	"repro/internal/mem"
	"repro/internal/rt"
	"repro/internal/server"
	"repro/internal/sfi"
	"repro/internal/telemetry"
	"repro/internal/workloads"
)

const (
	serveConns   = 2   // client connections, and closed-loop callers
	serveWorkers = 2   // single-worker servers behind the router
	zipfS        = 1.1 // key popularity exponent
	limitMs      = 5.0 // latency limit on p99
	opHeader     = "X-Trace-Id"
)

// A serve window splits its time between the three open-loop steps and
// the closed loop. The 1000 rps step gets most of it: the end-to-end
// percentiles are read there, a window must leave ten samples beyond its
// p99, and the tail is the least steady number the benchmark reports.
// The 500 and 2000 rps steps are context for it; their percentiles are
// taken over the whole run's samples.
var serveShares = map[int]float64{500: 0.075, 1000: 0.55, 2000: 0.075}

const closedShare = 0.30

// serveKey is one (kernel, backend) request target.
type serveKey struct {
	kernel string
	kind   isolation.Kind
	path   string
	want   uint64 // ir.Interp's checksum for the server's default batch
	insts  uint64 // simulated instructions of one execution
	home   string // the worker the ring sends the key to first
}

// serveOp links the spans of one traced request across goroutines.
type serveOp struct {
	client   *openSpan
	router   atomic.Pointer[openSpan]
	routerNs atomic.Int64
	workerNs atomic.Int64
}

type serve struct {
	cfg  runConfig
	tr   *tracer
	keys []serveKey // in popularity order: rank 0 is the hottest
	zipf *zipf
	rng  *rng             // schedules
	call [serveConns]*rng // closed-loop key streams, one per caller

	servers    []*server.Server
	regs       []*telemetry.Registry
	routerReg  *telemetry.Registry
	listeners  []*http.Server
	routerURL  string
	workerURLs []string
	clients    [serveConns]*http.Client
	clock      *hrTimer

	opSeq atomic.Int64
	ops   sync.Map // op id -> *serveOp, traced windows only

	mu       sync.Mutex
	failMsgs []string

	offered map[int]int64 // per rate, over the whole run
	planned map[int]int64
	stepLat map[int][]float64 // per rate, latencies of the traced windows

	// traced-window samples
	handlerUs, hopUs, overheadUs []float64
	phaseUs                      map[string][]float64
	servedHome, servedAll        int64
	execUs, serverUs, clusterUs  float64            // totals over requests that reported phases
	ctr                          map[string]float64 // counter deltas over traced windows
}

func newServe(cfg runConfig, tr *tracer) *serve {
	return &serve{cfg: cfg, tr: tr, offered: map[int]int64{}, planned: map[int]int64{}, stepLat: map[int][]float64{},
		phaseUs: map[string][]float64{}, ctr: map[string]float64{}}
}

// Popularity order is fixed, not seeded: which key is hot decides how
// much of the traffic is a warm hit on which backend, and the contract
// wants every metric to hold still across seeds. Rank i is kernel i mod 3
// on backend i mod 4 — 3 and 4 share no factor, so the twelve ranks are
// the twelve combinations and the hot head mixes all of both. The seed
// draws the requests and their arrival times.
func serveKeyOrder() (kernels []string, kinds []isolation.Kind) {
	ks := workloads.FaaS().Kernels
	all := isolation.Kinds()
	for i := 0; i < len(ks)*len(all); i++ {
		kernels = append(kernels, ks[i%len(ks)].Name)
		kinds = append(kinds, all[i%len(all)])
	}
	return kernels, kinds
}

func (s *serve) setup(rec *recorder) error {
	var err error
	if s.clock, err = newHRTimer(); err != nil {
		return err
	}
	s.rng = newRNG(s.cfg.seed)
	for c := range s.call {
		s.call[c] = newRNG(s.cfg.seed*31 + uint64(c) + 1)
	}

	// References: the interpreter's checksum for each handler at the
	// server's default batch, and the instructions one execution
	// simulates (through the cache the servers compile through).
	rt.ResetModuleCache()
	type ref struct{ want, insts uint64 }
	refs := map[string]ref{}
	for _, k := range workloads.FaaS().Kernels {
		k := k
		want, _, _, err := interpRef(k.Build(false), k.Entry, k.TestArgs)
		if err != nil {
			return fmt.Errorf("reference for %s: %w", k.Name, err)
		}
		cfg := sfi.DefaultConfig(sfi.ModeSegue)
		mod, err := rt.CompileModuleCached(rt.ModuleKey{Name: k.Name, Cfg: cfg}, func() *ir.Module { return k.Build(false) })
		if err != nil {
			return err
		}
		inst, err := rt.NewInstance(mod, rt.InstanceOptions{FSGSBASE: true})
		if err != nil {
			return err
		}
		if out, err := inst.Invoke(k.Entry, k.TestArgs...); err != nil || len(out) != 1 || out[0] != want {
			rec.fail("%s: %v %v, reference %d", k.Name, out, err, want)
		} else {
			rec.ok()
		}
		refs[k.Name] = ref{want, inst.Mach.Stats.Insts}
	}

	// Two single-worker servers and the router, each behind its own
	// loopback listener and with its own registry.
	ring := cluster.NewRing(0)
	s.routerReg = telemetry.NewRegistry()
	router := cluster.NewRouter(cluster.RouterConfig{Registry: s.routerReg})
	s.servers, s.regs, s.listeners, s.workerURLs = nil, nil, nil, nil
	for i := 0; i < serveWorkers; i++ {
		reg := telemetry.NewRegistry()
		srv, err := server.New(server.Config{Shards: 1, WorkersPerShard: 1, Registry: reg})
		if err != nil {
			return err
		}
		url, err := s.listen(s.traced("server.Handler", srv.Handler(), false))
		if err != nil {
			return err
		}
		name := "w" + strconv.Itoa(i)
		router.AddWorker(name, url)
		ring.Add(name)
		s.servers, s.regs, s.workerURLs = append(s.servers, srv), append(s.regs, reg), append(s.workerURLs, url)
	}
	if s.routerURL, err = s.listen(s.traced("cluster.Router", router.Handler(), true)); err != nil {
		return err
	}
	for c := range s.clients {
		s.clients[c] = &http.Client{Transport: &http.Transport{
			MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1, DisableCompression: true,
		}}
	}

	s.keys = nil
	kernels, kinds := serveKeyOrder()
	for rank := range kernels {
		key := serveKey{
			kernel: kernels[rank], kind: kinds[rank],
			path: "/invoke/" + kernels[rank] + "?backend=" + string(kinds[rank]),
			want: refs[kernels[rank]].want, insts: refs[kernels[rank]].insts,
			home: ring.Lookup(cluster.AffinityKey(kernels[rank], string(kinds[rank]), ""), 1)[0],
		}
		s.keys = append(s.keys, key)
	}
	s.zipf = newZipf(len(s.keys), zipfS)

	// Untimed warm-up: enough closed-loop requests that every key has
	// been served and the keep-warm pools hold the popular ones.
	warm := 200
	if s.cfg.smoke {
		warm = 30
	}
	var wg sync.WaitGroup
	var bad atomic.Int64
	for c := 0; c < serveConns; c++ {
		wg.Add(1)
		go func(conn int) {
			defer wg.Done()
			for i := 0; i < warm; i++ {
				rank := i % len(s.keys)
				if i >= len(s.keys) {
					rank = s.zipf.draw(s.call[conn])
				}
				if !s.request(conn, s.routerURL, rank, time.Time{}) {
					bad.Add(1)
				}
			}
		}(c)
	}
	wg.Wait()
	s.flushFailures(rec, int64(serveConns*warm), bad.Load())
	return nil
}

// listen serves h on a fresh loopback port and returns its base URL.
func (s *serve) listen(h http.Handler) (string, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", fmt.Errorf("listening on loopback: %w", err)
	}
	hs := &http.Server{Handler: h}
	s.listeners = append(s.listeners, hs)
	go hs.Serve(ln) // returns when teardown shuts hs down
	return "http://" + ln.Addr().String(), nil
}

func (s *serve) teardown() {
	if s.clock != nil {
		s.clock.close()
		s.clock = nil
	}
	for _, c := range s.clients {
		if c != nil {
			c.CloseIdleConnections()
		}
	}
	for i := len(s.listeners) - 1; i >= 0; i-- { // router first
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		_ = s.listeners[i].Shutdown(ctx) // on timeout the connections are closed anyway
		cancel()
	}
	for _, srv := range s.servers {
		srv.BeginDrain()
		_ = srv.Close() // always nil
	}
	s.listeners, s.servers = nil, nil
}

// traced wraps a layer's handler in a span, in a traced run only; the
// untraced run serves the program's handler as it is. The span's
// parent is found through the op id the client put in the request
// header, which the router forwards to the worker.
func (s *serve) traced(name string, h http.Handler, isRouter bool) http.Handler {
	if s.tr == nil {
		return h
	}
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if !s.tr.active() {
			h.ServeHTTP(w, r)
			return
		}
		id, _ := strconv.ParseInt(r.Header.Get(opHeader), 10, 64)
		v, ok := s.ops.Load(id)
		if !ok {
			h.ServeHTTP(w, r)
			return
		}
		op := v.(*serveOp)
		parent := op.client
		if r := op.router.Load(); !isRouter && r != nil {
			parent = r
		}
		sp := s.tr.begin(name, parent, id)
		if isRouter {
			op.router.Store(sp)
		}
		h.ServeHTTP(w, r)
		d := s.tr.end(sp)
		if isRouter {
			op.routerNs.Store(int64(d))
		} else {
			op.workerNs.Store(int64(d))
		}
	})
}

// invokeBody is the part of a 200 response the benchmark reads.
type invokeBody struct {
	Checksum uint64             `json:"checksum"`
	PhaseUs  map[string]float64 `json:"phase_us"`
}

// request performs one GET on connection conn and verifies the answer:
// status 200 and the interpreter's checksum. due, when set, is the
// open-loop due time the traced op span starts at.
func (s *serve) request(conn int, base string, rank int, due time.Time) bool {
	key := &s.keys[rank]
	req, err := http.NewRequest(http.MethodGet, base+key.path, nil)
	if err != nil {
		return s.failed("%s: %v", key.path, err)
	}
	var op *serveOp
	var id int64
	if s.tr.active() {
		id = s.opSeq.Add(1)
		if due.IsZero() {
			due = time.Now()
		}
		op = &serveOp{client: s.tr.beginAt("op", nil, id, due)}
		s.ops.Store(id, op)
		req.Header.Set(opHeader, strconv.FormatInt(id, 10))
		defer s.ops.Delete(id)
	}
	resp, err := s.clients[conn].Do(req)
	if err != nil {
		if op != nil {
			s.tr.end(op.client)
		}
		return s.failed("%s: %v", key.path, err)
	}
	data, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	var body invokeBody
	if err == nil && resp.StatusCode == http.StatusOK {
		err = json.Unmarshal(data, &body)
	}
	if op != nil {
		s.sample(op, key, resp.Header.Get("X-Served-By"), body.PhaseUs)
	}
	switch {
	case err != nil:
		return s.failed("%s: %v", key.path, err)
	case resp.StatusCode != http.StatusOK:
		return s.failed("%s: status %d: %s", key.path, resp.StatusCode, data)
	case body.Checksum != key.want:
		return s.failed("%s: checksum %d, reference %d", key.path, body.Checksum, key.want)
	}
	return true
}

// sample closes a traced request's op span and keeps its layer times.
func (s *serve) sample(op *serveOp, key *serveKey, servedBy string, phases map[string]float64) {
	if op.client != nil {
		op.client.attrs = phases
	}
	s.tr.end(op.client)
	routerNs, workerNs := op.routerNs.Load(), op.workerNs.Load()
	s.mu.Lock()
	defer s.mu.Unlock()
	if servedBy != "" {
		s.servedAll++
		if servedBy == key.home {
			s.servedHome++
		}
	}
	if workerNs == 0 {
		return
	}
	s.handlerUs = append(s.handlerUs, float64(workerNs)/1e3)
	if routerNs > 0 {
		s.hopUs = append(s.hopUs, float64(routerNs-workerNs)/1e3)
	}
	if len(phases) == 0 {
		return
	}
	s.overheadUs = append(s.overheadUs, float64(workerNs)/1e3-phases["exec"])
	s.execUs += phases["exec"]
	s.serverUs += float64(workerNs)/1e3 - phases["exec"]
	s.clusterUs += float64(routerNs-workerNs) / 1e3
	for _, ph := range servePhases {
		v := phases[ph]
		if ph == "transition" {
			v = phases["transition_in"] + phases["transition_out"]
		}
		s.phaseUs[ph] = append(s.phaseUs[ph], v)
	}
}

// failed notes a failure reason from any goroutine and returns false.
func (s *serve) failed(format string, args ...any) bool {
	s.mu.Lock()
	if len(s.failMsgs) < 5 {
		s.failMsgs = append(s.failMsgs, fmt.Sprintf(format, args...))
	}
	s.mu.Unlock()
	return false
}

// flushFailures moves a phase's outcome into the recorder, on the
// goroutine that owns it.
func (s *serve) flushFailures(rec *recorder, attempted, failed int64) {
	rec.attempted += attempted
	rec.failed += failed
	s.mu.Lock()
	for _, m := range s.failMsgs {
		if len(rec.failures) < 5 {
			rec.failures = append(rec.failures, m)
		}
	}
	s.failMsgs = nil
	s.mu.Unlock()
}

// counters are the program's own counts the per-layer rows are made of.
func (s *serve) counters() map[string]float64 {
	out := map[string]float64{}
	for _, reg := range s.regs {
		for _, n := range []string{"server.requests", "server.shed", "server.timeouts", "server.warm.hits", "server.warm.misses"} {
			out[n] += float64(reg.Counter(n).Load())
		}
	}
	for _, n := range []string{"cluster.router.requests", "cluster.router.diverted", "cluster.router.failovers"} {
		out[n] = float64(s.routerReg.Counter(n).Load())
	}
	return out
}

func (s *serve) window(d time.Duration, tr *tracer, rec *recorder) {
	traced := tr.active()
	var before map[string]float64
	if traced {
		// The program attributes phases (and reports phase_us) only
		// while its spans are on; the untraced windows leave them off.
		telemetry.SetSpansEnabled(true)
		defer telemetry.SetSpansEnabled(false)
		before = s.counters()
	}

	var late []float64
	maxOK := 0.0
	for _, rate := range serveRates {
		wd := time.Duration(float64(d) * serveShares[rate])
		if s.cfg.smoke {
			wd = 40 * time.Millisecond
		}
		sched := poissonSchedule(s.rng, float64(rate), wd, s.zipf)
		res, err := runOpenLoop(s.clock, sched, wd, serveConns, func(conn int, a arrival, due time.Time) bool {
			return s.request(conn, s.routerURL, a.key, due)
		})
		if err != nil {
			rec.fail("open loop at %d rps: %v", rate, err)
			return
		}
		s.flushFailures(rec, int64(res.offered), int64(res.failed))
		s.planned[rate] += int64(len(sched))
		s.offered[rate] += int64(res.offered)
		n := int64(res.offered)
		p50, p99 := quantile(res.latMs, 0.50), quantile(res.latMs, 0.99)
		if traced {
			s.stepLat[rate] = append(s.stepLat[rate], res.latMs...)
		}
		if rate == e2eRate {
			rec.add("p50_ms", p50, n)
			if s.cfg.smoke || beyond(len(res.latMs), 0.99) >= 10 {
				rec.add("p99_ms", p99, n)
			}
		}
		late = append(late, res.lateMs...)
		// A step holds if its p99 meets the limit, nothing failed, and
		// no more than 10 ms of arrivals were still outstanding when
		// its time was up (a growing backlog leaves far more).
		if p99 <= limitMs && res.failed == 0 && float64(res.backlog) <= float64(rate)*0.010 {
			maxOK = math.Max(maxOK, float64(rate))
		}
	}
	rec.add("bench.late_p99_ms", quantile(late, 0.99), int64(len(late)))
	rec.add("serve.max_rate_ok", maxOK, int64(len(late)))

	// Closed loop: two callers back to back.
	cd := time.Duration(float64(d) * closedShare)
	if s.cfg.smoke {
		cd = 40 * time.Millisecond
	}
	var insts atomic.Uint64
	lat, failed, elapsed := runClosedLoop(cd, serveConns,
		func(conn int) int { return s.zipf.draw(s.call[conn]) },
		func(conn, rank int) bool {
			ok := s.request(conn, s.routerURL, rank, time.Time{})
			if ok {
				insts.Add(s.keys[rank].insts)
			}
			return ok
		})
	s.flushFailures(rec, int64(len(lat)), int64(failed))
	n := int64(len(lat))
	rec.add("ops_per_s", float64(len(lat)-failed)/elapsed.Seconds(), n)
	rec.add("sim_mips", float64(insts.Load())/elapsed.Seconds()/1e6, n)
	rec.add("serve.closed_p50_ms", quantile(lat, 0.50), n)

	if traced {
		for name, v := range s.counters() {
			s.ctr[name] += v - before[name]
		}
	}
}

func (s *serve) finish(rec *recorder) {
	for _, rate := range serveRates {
		name := fmt.Sprintf("serve.offered.r%d", rate)
		rec.set(name, float64(s.offered[rate]), s.offered[rate])
		if s.offered[rate] != s.planned[rate] {
			rec.fail("%s: sent %d of %d scheduled requests", name, s.offered[rate], s.planned[rate])
		}
		if lat := s.stepLat[rate]; len(lat) > 0 {
			rec.set(fmt.Sprintf("serve.p50_ms.r%d", rate), quantile(lat, 0.50), int64(len(lat)))
			rec.set(fmt.Sprintf("serve.p99_ms.r%d", rate), quantile(lat, 0.99), int64(len(lat)))
		}
	}
	setPcts := func(prefix string, xs []float64) {
		if len(xs) > 0 {
			rec.set(prefix+".p50", quantile(xs, 0.50), int64(len(xs)))
			rec.set(prefix+".p99", quantile(xs, 0.99), int64(len(xs)))
		}
	}
	if s.execUs > 0 {
		rec.note("server (%.0f ms outside exec) + cluster (%.0f ms router hop) self time against %.0f ms of exec: %.2f to 1",
			s.serverUs/1e3, s.clusterUs/1e3, s.execUs/1e3, (s.serverUs+s.clusterUs)/s.execUs)
	}
	setPcts("server.handler_us", s.handlerUs)
	setPcts("cluster.hop_us", s.hopUs)
	if len(s.overheadUs) > 0 {
		rec.set("server.overhead_us.p50", quantile(s.overheadUs, 0.50), int64(len(s.overheadUs)))
	}
	for _, ph := range servePhases {
		setPcts("server.phase."+ph+"_us", s.phaseUs[ph])
	}
	share := func(name string, num, den float64) {
		if den > 0 {
			rec.set(name, num/den, int64(den))
		}
	}
	share("server.warm_hit_share", s.ctr["server.warm.hits"], s.ctr["server.warm.hits"]+s.ctr["server.warm.misses"])
	share("server.shed_share", s.ctr["server.shed"], s.ctr["server.requests"])
	share("cluster.divert_share", s.ctr["cluster.router.diverted"], s.ctr["cluster.router.requests"])
	share("cluster.home_share", float64(s.servedHome), float64(s.servedAll))
	rec.set("server.timeouts", s.ctr["server.timeouts"], int64(s.ctr["server.requests"]))
	rec.set("cluster.failovers", s.ctr["cluster.router.failovers"], int64(s.ctr["cluster.router.requests"]))
}

func (s *serve) probes(rec *recorder) {
	// Closed loop again, each caller straight to one worker with the
	// keys homed there: what the router hop costs in throughput.
	d := time.Second
	reps := 2000
	if s.cfg.smoke {
		d, reps = 40*time.Millisecond, 20
	}
	lat, failed, elapsed := runClosedLoop(d, serveWorkers,
		func(conn int) int {
			for {
				if rank := s.zipf.draw(s.call[conn]); s.keys[rank].home == "w"+strconv.Itoa(conn) {
					return rank
				}
			}
		},
		func(conn, rank int) bool { return s.request(conn, s.workerURLs[conn], rank, time.Time{}) })
	s.flushFailures(rec, int64(len(lat)), int64(failed))
	rec.set("server.direct_ops_per_s", float64(len(lat)-failed)/elapsed.Seconds(), int64(len(lat)))

	hits, misses := rt.ModuleCacheStats()
	if hits+misses > 0 {
		rec.set("rt.modcache_hit_share", float64(hits)/float64(hits+misses), int64(hits+misses))
	}

	// The warm path's reset, on a placed instance dirtied by a run.
	if us, err := resetProbe(reps / 10); err != nil {
		rec.fail("reset probe: %v", err)
	} else {
		rec.set("rt.reset_us", us, int64(reps/10))
	}

	ring := cluster.NewRing(0)
	for i := 0; i < serveWorkers; i++ {
		ring.Add("w" + strconv.Itoa(i))
	}
	affinity := make([]string, len(s.keys))
	for i, k := range s.keys {
		affinity[i] = cluster.AffinityKey(k.kernel, string(k.kind), "")
	}
	rec.set("cluster.ring_lookup_ns", 1e3*timeMedianUs(reps/10, func() {
		for _, a := range affinity {
			probeSink += uint64(len(ring.Lookup(a, 2)))
		}
	})/float64(len(affinity)), int64(reps/10*len(affinity)))
}

// resetProbe times rt.Instance.Reset on a ColorGuard-placed instance of
// the first handler, running the handler between resets.
func resetProbe(reps int) (float64, error) {
	kernels, maxBytes, err := loadFaasKernels(nil)
	if err != nil {
		return 0, err
	}
	k := kernels[0]
	b, err := isolation.NewReserved(isolation.ColorGuard, mem.NewAS(47), workerSlabConfig(isolation.ColorGuard, maxBytes))
	if err != nil {
		return 0, err
	}
	slot, err := b.Allocate(k.need)
	if err != nil {
		return 0, err
	}
	inst, err := rt.NewInstance(k.mod, rt.InstanceOptions{FSGSBASE: true, Place: isolation.Place(b, slot)})
	if err != nil {
		return 0, err
	}
	var xs []float64
	for i := 0; i < reps; i++ {
		if out, err := inst.Invoke(k.k.Entry, k.args...); err != nil || len(out) != 1 || out[0] != k.want {
			return 0, fmt.Errorf("%s after reset: %v %v, reference %d", k.k.Name, out, err, k.want)
		}
		t0 := time.Now()
		if err := inst.Reset(); err != nil {
			return 0, err
		}
		xs = append(xs, us(time.Since(t0)))
	}
	return median(xs), inst.Close()
}

package server

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"repro/internal/cpu"
	"repro/internal/fault"
	"repro/internal/ir"
	"repro/internal/isolation"
	"repro/internal/rt"
	"repro/internal/sfi"
	"repro/internal/telemetry"
	"repro/internal/workloads"
)

// get issues one GET and returns the status plus decoded JSON body.
func get(t *testing.T, url string) (int, map[string]any) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("reading %s: %v", url, err)
	}
	var body map[string]any
	if err := json.Unmarshal(data, &body); err != nil {
		t.Fatalf("%s: non-JSON body %q: %v", url, data, err)
	}
	return resp.StatusCode, body
}

// snapshot fetches and decodes /metrics.
func snapshot(t *testing.T, base string) telemetry.Snapshot {
	t.Helper()
	resp, err := http.Get(base + "/metrics")
	if err != nil {
		t.Fatalf("GET /metrics: %v", err)
	}
	defer resp.Body.Close()
	var s telemetry.Snapshot
	if err := json.NewDecoder(resp.Body).Decode(&s); err != nil {
		t.Fatalf("decoding /metrics: %v", err)
	}
	return s
}

// TestServeEndToEnd: concurrent requests across every kernel and
// backend all complete, checksums agree across backends (the isolation
// mechanism must not change results), and /metrics and /healthz report
// the traffic.
func TestServeEndToEnd(t *testing.T) {
	reg := telemetry.NewRegistry()
	s, err := New(Config{
		Shards:          2,
		WorkersPerShard: 2,
		Registry:        reg,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	kernels := []string{"html-templating", "hash-load-balance", "regex-filtering"}
	backends := []string{"guardpage", "colorguard", "mte", "multiproc"}

	type outcome struct {
		kernel, backend string
		checksum        float64
	}
	var (
		mu       sync.Mutex
		outcomes []outcome
		wg       sync.WaitGroup
	)
	const perPair = 2
	total := 0
	for _, k := range kernels {
		for _, b := range backends {
			for i := 0; i < perPair; i++ {
				total++
				wg.Add(1)
				go func(k, b string) {
					defer wg.Done()
					code, body := get(t, fmt.Sprintf("%s/invoke/%s?backend=%s&n=16", ts.URL, k, b))
					if code != http.StatusOK {
						t.Errorf("invoke %s/%s: status %d (%v)", k, b, code, body)
						return
					}
					mu.Lock()
					outcomes = append(outcomes, outcome{k, b, body["checksum"].(float64)})
					mu.Unlock()
				}(k, b)
			}
		}
	}
	wg.Wait()
	if t.Failed() {
		return
	}

	// Same kernel, same batch → same checksum, whatever the backend.
	want := map[string]float64{}
	for _, o := range outcomes {
		if prev, ok := want[o.kernel]; ok && prev != o.checksum {
			t.Errorf("%s: checksum differs across requests/backends: %v vs %v", o.kernel, prev, o.checksum)
		}
		want[o.kernel] = o.checksum
	}

	snap := snapshot(t, ts.URL)
	if got := snap.Counters["server.requests"]; got != uint64(total) {
		t.Errorf("server.requests = %d, want %d", got, total)
	}
	if got := snap.Counters["server.completed"]; got != uint64(total) {
		t.Errorf("server.completed = %d, want %d", got, total)
	}
	if h, ok := snap.Histograms["server.request_latency_ns"]; !ok || h.Count != uint64(total) {
		t.Errorf("latency histogram = %+v, want count %d", h, total)
	}

	code, body := get(t, ts.URL+"/healthz")
	if code != http.StatusOK || body["status"] != "ok" {
		t.Errorf("/healthz = %d %v, want 200 ok", code, body)
	}
	if st := s.Stats(); st.Shed != 0 || st.Failed != 0 || st.Timeouts != 0 {
		t.Errorf("clean run recorded degradation: %+v", st)
	}
}

// TestServeInputValidation: the HTTP surface rejects unknown kernels,
// unknown backends, and out-of-range batch sizes without touching the
// worker pool.
func TestServeInputValidation(t *testing.T) {
	s, err := New(Config{Shards: 1, Registry: telemetry.NewRegistry()})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	for _, c := range []struct {
		path string
		want int
	}{
		{"/invoke/no-such-kernel", http.StatusNotFound},
		{"/invoke/regex-filtering?backend=bogus", http.StatusBadRequest},
		{"/invoke/regex-filtering?scheme=bogus", http.StatusBadRequest},
		{"/invoke/regex-filtering?n=0", http.StatusBadRequest},
		{"/invoke/regex-filtering?n=-4", http.StatusBadRequest},
		{"/invoke/regex-filtering?n=900000000", http.StatusBadRequest},
		{"/invoke/regex-filtering?n=junk", http.StatusBadRequest},
	} {
		if code, body := get(t, ts.URL+c.path); code != c.want {
			t.Errorf("%s: status %d (%v), want %d", c.path, code, body, c.want)
		}
	}
	if st := s.Stats(); st.Completed != 0 {
		t.Errorf("validation failures reached the workers: %+v", st)
	}
}

// TestServeSchemes: a request can pick its transition scheme, the
// response reports it, results are scheme-independent, and the cheaper
// convention yields strictly less simulated time for the same work.
func TestServeSchemes(t *testing.T) {
	s, err := New(Config{
		Shards:   1,
		Kernels:  []string{"regex-filtering"},
		Registry: telemetry.NewRegistry(),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	sim := map[string]float64{}
	sum := map[string]float64{}
	for _, scheme := range []string{"default", "zerocost", "trampoline"} {
		code, body := get(t, ts.URL+"/invoke/regex-filtering?n=16&scheme="+scheme)
		if code != http.StatusOK {
			t.Fatalf("scheme %s: status %d (%v)", scheme, code, body)
		}
		if got := body["scheme"]; got != scheme {
			t.Errorf("scheme %s: response reports %v", scheme, got)
		}
		sim[scheme] = body["sim_us"].(float64)
		sum[scheme] = body["checksum"].(float64)
	}
	if sum["zerocost"] != sum["default"] || sum["trampoline"] != sum["default"] {
		t.Errorf("checksums differ across schemes: %v", sum)
	}
	if !(sim["zerocost"] < sim["default"] && sim["default"] < sim["trampoline"]) {
		t.Errorf("simulated time not ordered by convention cost: %v", sim)
	}

	// An omitted ?scheme= uses the server's default.
	code, body := get(t, ts.URL+"/invoke/regex-filtering?n=16")
	if code != http.StatusOK || body["scheme"] != "default" {
		t.Errorf("no ?scheme=: %d %v, want 200 with scheme=default", code, body)
	}
}

// TestServeDefaultSchemeConfig: Config.DefaultScheme applies to every
// request that names no scheme, and an unknown default is rejected at
// construction.
func TestServeDefaultSchemeConfig(t *testing.T) {
	if _, err := New(Config{DefaultScheme: "warp", Registry: telemetry.NewRegistry()}); err == nil {
		t.Fatal("New accepted an unknown DefaultScheme")
	}
	s, err := New(Config{
		Shards:        1,
		Kernels:       []string{"regex-filtering"},
		DefaultScheme: isolation.SchemeZeroCost,
		Registry:      telemetry.NewRegistry(),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	code, body := get(t, ts.URL+"/invoke/regex-filtering?n=16")
	if code != http.StatusOK || body["scheme"] != "zerocost" {
		t.Errorf("default-scheme request: %d %v, want 200 with scheme=zerocost", code, body)
	}
	code, body = get(t, ts.URL+"/invoke/regex-filtering?n=16&scheme=trampoline")
	if code != http.StatusOK || body["scheme"] != "trampoline" {
		t.Errorf("?scheme=trampoline must override the server default: %d %v", code, body)
	}
}

// TestServeSaturation: saturating the admission queue sheds with 429,
// queued requests past the (deliberately unmeetable) deadline time out
// with 504, the accumulated failures trip the breaker, and an open
// breaker fast-fails later admissions with 503.
func TestServeSaturation(t *testing.T) {
	reg := telemetry.NewRegistry()
	s, err := New(Config{
		Kernels:         []string{"regex-filtering"},
		Shards:          1,
		WorkersPerShard: 1,
		QueueDepth:      2,
		MaxInFlight:     4,
		RequestTimeout:  time.Nanosecond, // every admitted request misses it
		Breaker: fault.BreakerConfig{
			FailureThreshold:  3,
			OpenNs:            float64(time.Hour), // stays open for the test
			HalfOpenSuccesses: 1,
		},
		Registry: reg,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	const storm = 40
	counts := make(map[int]int)
	var mu sync.Mutex
	var wg sync.WaitGroup
	for i := 0; i < storm; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			resp, err := http.Get(ts.URL + "/invoke/regex-filtering")
			if err != nil {
				t.Errorf("storm request: %v", err)
				return
			}
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			mu.Lock()
			counts[resp.StatusCode]++
			mu.Unlock()
		}()
	}
	wg.Wait()

	st := s.Stats()
	if st.Shed == 0 {
		t.Errorf("saturation shed nothing: statuses %v, stats %+v", counts, st)
	}
	if counts[http.StatusTooManyRequests] == 0 && counts[http.StatusServiceUnavailable] == 0 {
		t.Errorf("no 429/503 responses under saturation: %v", counts)
	}
	if st.Timeouts == 0 {
		t.Errorf("no deadline misses despite 1 ns timeout: statuses %v, stats %+v", counts, st)
	}
	if st.BreakerOpens == 0 {
		t.Errorf("breaker never opened: statuses %v, stats %+v", counts, st)
	}

	// The breaker is open (OpenNs is an hour): the next admission is
	// fast-failed with 503 before reaching a queue.
	code, body := get(t, ts.URL+"/invoke/regex-filtering")
	if code != http.StatusServiceUnavailable {
		t.Errorf("post-storm request = %d (%v), want 503 from the open breaker", code, body)
	}

	snap := snapshot(t, ts.URL)
	if snap.Counters["server.shed"] == 0 || snap.Counters["server.timeouts"] == 0 {
		t.Errorf("/metrics missing degradation counters: %v", snap.Counters)
	}
	if snap.Counters["server.breaker_opens"] != st.BreakerOpens {
		t.Errorf("/metrics breaker_opens = %d, Stats = %d",
			snap.Counters["server.breaker_opens"], st.BreakerOpens)
	}
}

// TestServeDrain: after BeginDrain, /healthz flips to draining/503 and
// new invokes are rejected; Close is clean and idempotent.
func TestServeDrain(t *testing.T) {
	s, err := New(Config{Shards: 1, Registry: telemetry.NewRegistry()})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	// Serve one request first so the drain path has seen real traffic.
	if code, body := get(t, ts.URL+"/invoke/regex-filtering"); code != http.StatusOK {
		t.Fatalf("pre-drain invoke = %d (%v)", code, body)
	}

	s.BeginDrain()
	code, body := get(t, ts.URL+"/healthz")
	if code != http.StatusServiceUnavailable || body["status"] != "draining" {
		t.Errorf("/healthz while draining = %d %v", code, body)
	}
	if code, _ := get(t, ts.URL+"/invoke/regex-filtering"); code != http.StatusServiceUnavailable {
		t.Errorf("invoke while draining = %d, want 503", code)
	}
	if err := s.Close(); err != nil {
		t.Errorf("Close: %v", err)
	}
	if err := s.Close(); err != nil {
		t.Errorf("second Close: %v", err)
	}
}

// TestFusedSharedAcrossShards drives one kernel through every shard of
// the worker pool on the fused tier and checks that all shards served
// from a single superinstruction compilation: the module cache hands
// every worker the same Program, so the fused stream is built once for
// the process, not once per shard or per worker.
func TestFusedSharedAcrossShards(t *testing.T) {
	rt.ResetModuleCache()
	defer rt.ResetModuleCache()
	cpu.SetFuseEager(true)
	defer cpu.SetFuseEager(false)

	s, err := New(Config{Shards: 4, WorkersPerShard: 2, Registry: telemetry.NewRegistry()})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	// Enough concurrent requests that the round-robin deal reaches
	// every shard.
	const kernel = "hash-load-balance"
	var wg sync.WaitGroup
	for i := 0; i < 16; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			code, body := get(t, ts.URL+"/invoke/"+kernel+"?backend=guardpage&n=16")
			if code != http.StatusOK {
				t.Errorf("invoke: status %d (%v)", code, body)
			}
		}()
	}
	wg.Wait()
	if t.Failed() {
		return
	}

	// Fetch the module the workers used straight from the shared cache.
	// The build callback must not run — running would mean the workers
	// had not shared one cache entry.
	built := false
	mod, err := rt.CompileModuleCached(
		rt.ModuleKey{Name: kernel, Cfg: sfi.DefaultConfig(sfi.ModeSegue)},
		func() *ir.Module {
			built = true
			return workloads.FaaS().Kernels[0].Build(false)
		})
	if err != nil {
		t.Fatal(err)
	}
	if built {
		t.Fatal("kernel module was not in the shared cache")
	}
	if n := mod.Prog.FuseBuilds(); n != 1 {
		t.Fatalf("fused stream built %d times across shards, want 1", n)
	}
}

// TestMetricsShowMachineTurnover: configured as faasd configures it —
// the process registry, telemetry on — /metrics carries the emulator's
// machine turnover. One cold start takes a machine (whether new or
// recycled is up to what other tests released before this one); the
// warm requests that follow each reset their instance, which releases
// the machine and takes one back.
func TestMetricsShowMachineTurnover(t *testing.T) {
	defer telemetry.SetEnabled(telemetry.Enabled())
	telemetry.SetEnabled(true)
	s, err := New(Config{Shards: 1, WorkersPerShard: 1, WarmPerWorker: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	before := snapshot(t, ts.URL)
	const requests = 8
	for i := 0; i < requests; i++ {
		if code, body := get(t, ts.URL+"/invoke/regex-filtering?backend=colorguard&n=4"); code != http.StatusOK {
			t.Fatalf("request %d: status %d (%v)", i, code, body)
		}
	}
	after := snapshot(t, ts.URL)
	fresh := after.Counters["cpu.machines.fresh"] - before.Counters["cpu.machines.fresh"]
	reused := after.Counters["cpu.machines.reused"] - before.Counters["cpu.machines.reused"]
	if fresh+reused != requests {
		t.Errorf("cpu.machines.fresh +%d, .reused +%d over %d requests (1 cold start, %d resets)", fresh, reused, requests, requests-1)
	}
	if reused == 0 {
		t.Errorf("cpu.machines.reused did not move over %d warm resets", requests-1)
	}
}

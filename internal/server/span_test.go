package server

import (
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"testing"

	"repro/internal/cpu"
	"repro/internal/telemetry"
)

// TestServeTraceIDAlwaysPresent: every /invoke response carries a
// unique X-Trace-Id header, spans on or off, and the success body
// echoes it — but phase attribution only appears when spans are on.
func TestServeTraceIDAlwaysPresent(t *testing.T) {
	telemetry.SetSpansEnabled(false)
	reg := telemetry.NewRegistry()
	s, err := New(Config{Shards: 1, Registry: reg})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	seen := map[string]bool{}
	for i := 0; i < 3; i++ {
		resp, err := http.Get(ts.URL + "/invoke/html-templating?n=8")
		if err != nil {
			t.Fatal(err)
		}
		id := resp.Header.Get("X-Trace-Id")
		resp.Body.Close()
		if id == "" {
			t.Fatal("no X-Trace-Id header")
		}
		if seen[id] {
			t.Fatalf("duplicate trace id %q", id)
		}
		seen[id] = true
	}
	_, body := get(t, ts.URL+"/invoke/html-templating?n=8")
	if body["trace_id"] == "" || body["trace_id"] == nil {
		t.Fatalf("success body has no trace_id: %v", body)
	}
	if _, ok := body["phase_us"]; ok {
		t.Fatalf("spans disabled but body has phase_us: %v", body)
	}
	// With spans off, nothing was recorded and no serve.phase keys
	// polluted the registry.
	if code, dbg := get(t, ts.URL+"/debug/requests"); code != http.StatusOK || dbg["seen"].(float64) != 0 {
		t.Fatalf("/debug/requests with spans off = %d %v, want seen 0", code, dbg)
	}
	for k := range snapshot(t, ts.URL).Histograms {
		if len(k) >= 11 && k[:11] == "serve.phase" {
			t.Fatalf("spans disabled but /metrics has %q", k)
		}
	}
}

// TestServeSpanAttribution: with spans enabled, every recorded request
// conserves wall time — the phase durations sum to the measured total —
// across backends × schemes × execution tiers, and the attribution is
// visible in all three surfaces (response JSON, /debug/requests,
// /metrics histograms).
func TestServeSpanAttribution(t *testing.T) {
	telemetry.SetSpansEnabled(true)
	defer telemetry.SetSpansEnabled(false)
	for _, tier := range []cpu.Tier{cpu.TierFast, cpu.TierFused} {
		t.Run(tier.String(), func(t *testing.T) {
			reg := telemetry.NewRegistry()
			s, err := New(Config{Shards: 2, Registry: reg, Tier: tier})
			if err != nil {
				t.Fatal(err)
			}
			defer s.Close()
			ts := httptest.NewServer(s.Handler())
			defer ts.Close()

			total := 0
			for _, backend := range []string{"guardpage", "colorguard", "mte", "multiproc"} {
				for _, scheme := range []string{"default", "zerocost"} {
					total++
					code, body := get(t, fmt.Sprintf(
						"%s/invoke/hash-load-balance?n=64&backend=%s&scheme=%s", ts.URL, backend, scheme))
					if code != http.StatusOK {
						t.Fatalf("%s/%s: status %d (%v)", backend, scheme, code, body)
					}
					phases, ok := body["phase_us"].(map[string]any)
					if !ok || len(phases) == 0 {
						t.Fatalf("%s/%s: no phase_us in body: %v", backend, scheme, body)
					}
					if _, ok := phases["exec"]; !ok {
						t.Fatalf("%s/%s: no exec phase: %v", backend, scheme, phases)
					}
				}
			}

			// Conservation, from the flight recorder's independent TotalNs.
			_, dbg := get(t, ts.URL+"/debug/requests")
			if int(dbg["seen"].(float64)) != total {
				t.Fatalf("flight recorder saw %v requests, want %d", dbg["seen"], total)
			}
			recent := dbg["recent"].([]any)
			if len(recent) == 0 {
				t.Fatal("no recent records")
			}
			for _, raw := range recent {
				rec := raw.(map[string]any)
				if rec["trace_id"] == "" {
					t.Fatalf("record without trace id: %v", rec)
				}
				totalNs := rec["total_ns"].(float64)
				var sum float64
				for _, v := range rec["phases"].(map[string]any) {
					sum += v.(float64)
				}
				if math.Abs(sum-totalNs) > 1e-6*totalNs+1 {
					t.Fatalf("phase sum %.0f ns != total %.0f ns in %v", sum, totalNs, rec)
				}
			}

			snap := snapshot(t, ts.URL)
			for _, key := range []string{"serve.phase.total", "serve.phase.exec", "serve.phase.queue"} {
				h, ok := snap.Histograms[key]
				if !ok || h.Count == 0 {
					t.Fatalf("/metrics missing %s after attributed traffic", key)
				}
			}
			if got := snap.Histograms["serve.phase.total"].Count; got != uint64(total) {
				t.Fatalf("serve.phase.total count = %d, want %d", got, total)
			}
		})
	}
}

// TestServeTracerPhaseSpans: with the process tracer live, serving
// emits wall-clock phase spans on per-shard tracks, and /metrics
// surfaces the tracer's drop counter.
func TestServeTracerPhaseSpans(t *testing.T) {
	telemetry.Trace.Enable()
	defer telemetry.Trace.Disable()
	reg := telemetry.NewRegistry()
	s, err := New(Config{Shards: 2, Registry: reg})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	for i := 0; i < 4; i++ {
		if code, body := get(t, ts.URL+"/invoke/regex-filtering?n=16"); code != http.StatusOK {
			t.Fatalf("invoke: %d %v", code, body)
		}
	}
	snap := snapshot(t, ts.URL)
	if _, ok := snap.Gauges["trace.dropped"]; !ok {
		t.Fatal("/metrics missing trace.dropped while tracer enabled")
	}

	wantNames := map[string]bool{"queue": false, "placement": false,
		"transition_in": false, "exec": false, "transition_out": false}
	for _, ev := range telemetry.Trace.Events() {
		if ev.Cat != "serve" {
			continue
		}
		if ev.PID != telemetry.PidWall {
			t.Fatalf("serve span %q on pid %d, want wall pid %d", ev.Name, ev.PID, telemetry.PidWall)
		}
		if ev.TID < 0 || ev.TID >= 2 {
			t.Fatalf("serve span %q on tid %d, want a shard id in [0,2)", ev.Name, ev.TID)
		}
		if _, ok := wantNames[ev.Name]; ok {
			wantNames[ev.Name] = true
		}
	}
	for name, seen := range wantNames {
		if !seen {
			t.Fatalf("no %q phase span on the tracer", name)
		}
	}
}

// TestHealthzShardDetail: /healthz reports per-shard queue saturation
// alongside the server-wide breaker and in-flight count.
func TestHealthzShardDetail(t *testing.T) {
	reg := telemetry.NewRegistry()
	s, err := New(Config{Shards: 3, QueueDepth: 7, Registry: reg})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	code, body := get(t, ts.URL+"/healthz")
	if code != http.StatusOK {
		t.Fatalf("/healthz = %d %v", code, body)
	}
	if _, ok := body["breaker"]; !ok {
		t.Fatal("/healthz missing breaker state")
	}
	if _, ok := body["in_flight"]; !ok {
		t.Fatal("/healthz missing in_flight")
	}
	shards, ok := body["shards"].([]any)
	if !ok || len(shards) != 3 {
		t.Fatalf("/healthz shards = %v, want 3 entries", body["shards"])
	}
	for i, raw := range shards {
		sh := raw.(map[string]any)
		if int(sh["id"].(float64)) != i {
			t.Fatalf("shard %d has id %v", i, sh["id"])
		}
		if int(sh["queue_capacity"].(float64)) != 7 {
			t.Fatalf("shard %d capacity = %v, want 7", i, sh["queue_capacity"])
		}
		if d := sh["queue_depth"].(float64); d != 0 {
			t.Fatalf("idle shard %d depth = %v", i, d)
		}
	}
}

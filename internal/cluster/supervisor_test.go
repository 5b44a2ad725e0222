package cluster

import (
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"path/filepath"
	"sync"
	"syscall"
	"testing"
	"time"

	"repro/internal/telemetry"
)

// TestHelperWorker is not a test: when re-exec'd by the supervisor
// tests (CLUSTER_HELPER=1) it acts as a minimal faasd stand-in — bind
// an ephemeral port, write the address file, serve /healthz, exit on
// SIGTERM.
func TestHelperWorker(t *testing.T) {
	if os.Getenv("CLUSTER_HELPER") != "1" {
		t.Skip("helper process, not a test")
	}
	var addrFile string
	for i, a := range os.Args {
		if a == "-addrfile" && i+1 < len(os.Args) {
			addrFile = os.Args[i+1]
		}
	}
	if addrFile == "" {
		fmt.Fprintln(os.Stderr, "helper: no -addrfile")
		os.Exit(1)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		fmt.Fprintln(os.Stderr, "helper:", err)
		os.Exit(1)
	}
	if err := os.WriteFile(addrFile, []byte(ln.Addr().String()+"\n"), 0o644); err != nil {
		fmt.Fprintln(os.Stderr, "helper:", err)
		os.Exit(1)
	}
	mux := http.NewServeMux()
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, r *http.Request) {
		fmt.Fprintln(w, `{"status":"ok"}`)
	})
	go http.Serve(ln, mux)
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, syscall.SIGTERM)
	<-sig
	os.Exit(0)
}

// testSupervisor re-execs this test binary as the worker command.
func testSupervisor(t *testing.T, workers int, up func(string, string), down func(string)) *Supervisor {
	t.Helper()
	t.Setenv("CLUSTER_HELPER", "1")
	s, err := NewSupervisor(SupervisorConfig{
		Command: os.Args[0],
		// The "--" stops the test binary's flag parsing, so the -addr /
		// -addrfile pair the supervisor appends lands in flag.Args()
		// instead of tripping "flag provided but not defined".
		Args:         []string{"-test.run=TestHelperWorker", "--"},
		Workers:      workers,
		Dir:          t.TempDir(),
		StartTimeout: 15 * time.Second,
		OnUp:         up,
		OnDown:       down,
		Registry:     telemetry.NewRegistry(),
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(s.Stop)
	return s
}

// TestSupervisorSpawn: both workers come up, announce reachable
// addresses, and shut down on Stop.
func TestSupervisorSpawn(t *testing.T) {
	var mu sync.Mutex
	ups := map[string]string{}
	s := testSupervisor(t, 2, func(name, url string) {
		mu.Lock()
		ups[name] = url
		mu.Unlock()
	}, nil)
	if err := s.Start(); err != nil {
		t.Fatal(err)
	}
	mu.Lock()
	defer mu.Unlock()
	if len(ups) != 2 {
		t.Fatalf("OnUp fired for %v, want 2 workers", ups)
	}
	for name, url := range ups {
		resp, err := http.Get(url + "/healthz")
		if err != nil {
			t.Fatalf("%s at %s unreachable: %v", name, url, err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Errorf("%s /healthz: %d", name, resp.StatusCode)
		}
	}
}

// TestSupervisorRestart: a killed worker triggers OnDown, is restarted
// (OnUp again, possibly at a new port), and the restart is counted.
func TestSupervisorRestart(t *testing.T) {
	var mu sync.Mutex
	upCount := map[string]int{}
	downs := map[string]int{}
	s := testSupervisor(t, 1,
		func(name, url string) { mu.Lock(); upCount[name]++; mu.Unlock() },
		func(name string) { mu.Lock(); downs[name]++; mu.Unlock() })
	if err := s.Start(); err != nil {
		t.Fatal(err)
	}
	s.mu.Lock()
	p := s.procs["worker-0"]
	s.mu.Unlock()
	if p == nil {
		t.Fatal("worker-0 is not running")
	}
	if err := p.cmd.Process.Kill(); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(15 * time.Second)
	for time.Now().Before(deadline) {
		mu.Lock()
		restarted := upCount["worker-0"] >= 2
		mu.Unlock()
		if restarted {
			break
		}
		time.Sleep(20 * time.Millisecond)
	}
	mu.Lock()
	defer mu.Unlock()
	if upCount["worker-0"] < 2 {
		t.Fatalf("worker-0 not restarted: ups=%v downs=%v", upCount, downs)
	}
	if downs["worker-0"] < 1 {
		t.Fatalf("OnDown never fired: %v", downs)
	}
}

// TestWaitForAddrRejectsTornWrite: the addrfile handoff must not hand
// the router a partially written address. The writer exposes the torn
// intermediate states a non-atomic os.WriteFile could leave behind
// while waitForAddr polls, then publishes the complete address the way
// the fixed faasd does — temp file + rename. waitForAddr must skip
// every torn state and return only the complete host:port.
func TestWaitForAddrRejectsTornWrite(t *testing.T) {
	path := filepath.Join(t.TempDir(), "worker.addr")
	const full = "127.0.0.1:43211"

	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for _, torn := range []string{"1", "127.0", "127.0.0.1", "127.0.0.1:"} {
			if err := os.WriteFile(path, []byte(torn), 0o644); err != nil {
				t.Error(err)
				return
			}
			time.Sleep(40 * time.Millisecond)
		}
		tmp := path + ".tmp"
		if err := os.WriteFile(tmp, []byte(full+"\n"), 0o644); err != nil {
			t.Error(err)
			return
		}
		if err := os.Rename(tmp, path); err != nil {
			t.Error(err)
		}
	}()

	got, err := waitForAddr(path, 15*time.Second)
	wg.Wait()
	if err != nil {
		t.Fatal(err)
	}
	if got != full {
		t.Fatalf("waitForAddr returned %q (a torn read?), want %q", got, full)
	}
}

// TestWaitForAddrTimesOutOnGarbage: content that never parses as
// host:port is indistinguishable from an absent file — waitForAddr
// must keep polling and report a timeout, not return the garbage.
func TestWaitForAddrTimesOutOnGarbage(t *testing.T) {
	path := filepath.Join(t.TempDir(), "worker.addr")
	if err := os.WriteFile(path, []byte("not-an-address\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if got, err := waitForAddr(path, 150*time.Millisecond); err == nil {
		t.Fatalf("waitForAddr accepted garbage content %q", got)
	}
}

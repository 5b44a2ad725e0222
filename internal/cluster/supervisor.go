package cluster

import (
	"fmt"
	"net"
	"os"
	"os/exec"
	"path/filepath"
	"sync"
	"syscall"
	"time"

	"repro/internal/telemetry"
)

// SupervisorConfig configures a worker-process supervisor.
type SupervisorConfig struct {
	// Command is the worker binary to spawn (a faasd build).
	Command string

	// Args are passed to every worker in addition to the -addr/-addrfile
	// pair the supervisor appends (e.g. "-slots", "8").
	Args []string

	// Workers is how many worker processes to run. 0 selects 2.
	Workers int

	// Dir is where address files (and worker logs) are written. Empty
	// selects the OS temp dir.
	Dir string

	// StartTimeout bounds how long one worker may take to write its
	// address file. 0 selects 10s.
	StartTimeout time.Duration

	// MaxRestarts bounds restarts per worker; a worker that dies more
	// often stays down (and OnDown fires a final time). 0 selects 3.
	MaxRestarts int

	// OnUp is called when a worker is listening (fresh start or
	// restart): name and base URL. Typically Router.AddWorker.
	OnUp func(name, baseURL string)

	// OnDown is called when a worker process exits. Typically
	// Router.SetHealthy(name, false).
	OnDown func(name string)

	// Registry receives the cluster.supervisor.* instruments. Nil
	// selects telemetry.Default.
	Registry *telemetry.Registry
}

func (c SupervisorConfig) withDefaults() SupervisorConfig {
	if c.Workers <= 0 {
		c.Workers = 2
	}
	if c.Dir == "" {
		c.Dir = os.TempDir()
	}
	if c.StartTimeout <= 0 {
		c.StartTimeout = 10 * time.Second
	}
	if c.MaxRestarts == 0 {
		c.MaxRestarts = 3
	}
	if c.Registry == nil {
		c.Registry = telemetry.Default
	}
	return c
}

// Supervisor spawns and supervises N faasd worker processes. Each is
// started with `-addr 127.0.0.1:0 -addrfile <dir>/<name>.addr`, so the
// OS picks the port and the supervisor learns it from the file — no
// port coordination, no races. A worker that exits is restarted (with
// a short backoff, up to MaxRestarts) and re-announced through OnUp;
// between death and restart the OnDown callback lets the router route
// around it.
type Supervisor struct {
	cfg SupervisorConfig

	mu      sync.Mutex
	procs   map[string]*workerProc
	stopped bool
	wg      sync.WaitGroup

	starts   *telemetry.Counter
	restarts *telemetry.Counter
	deaths   *telemetry.Counter
}

type workerProc struct {
	name string
	cmd  *exec.Cmd
}

// NewSupervisor validates cfg and returns an unstarted Supervisor.
func NewSupervisor(cfg SupervisorConfig) (*Supervisor, error) {
	cfg = cfg.withDefaults()
	if cfg.Command == "" {
		return nil, fmt.Errorf("supervisor: Command is required")
	}
	reg := cfg.Registry
	return &Supervisor{
		cfg:      cfg,
		procs:    make(map[string]*workerProc),
		starts:   reg.Counter("cluster.supervisor.starts"),
		restarts: reg.Counter("cluster.supervisor.restarts"),
		deaths:   reg.Counter("cluster.supervisor.deaths"),
	}, nil
}

// Start launches all workers and begins supervising them. It returns
// after every worker has announced its address (or errors on the first
// that cannot start).
func (s *Supervisor) Start() error {
	for i := 0; i < s.cfg.Workers; i++ {
		name := fmt.Sprintf("worker-%d", i)
		if err := s.launch(name, 0); err != nil {
			s.Stop()
			return err
		}
	}
	return nil
}

// launch starts one worker process, waits for its address file, fires
// OnUp, and begins watching for exit. generation counts restarts.
func (s *Supervisor) launch(name string, generation int) error {
	addrFile := filepath.Join(s.cfg.Dir, name+".addr")
	_ = os.Remove(addrFile)

	args := append(append([]string{}, s.cfg.Args...),
		"-addr", "127.0.0.1:0", "-addrfile", addrFile)
	cmd := exec.Command(s.cfg.Command, args...)
	logf, err := os.Create(filepath.Join(s.cfg.Dir, name+".log"))
	if err == nil {
		cmd.Stdout = logf
		cmd.Stderr = logf
	}
	if err := cmd.Start(); err != nil {
		return fmt.Errorf("starting %s: %w", name, err)
	}
	addr, err := waitForAddr(addrFile, s.cfg.StartTimeout)
	if err != nil {
		_ = cmd.Process.Kill()
		_, _ = cmd.Process.Wait()
		return fmt.Errorf("%s: %w", name, err)
	}

	s.mu.Lock()
	if s.stopped {
		s.mu.Unlock()
		_ = cmd.Process.Signal(syscall.SIGTERM)
		return fmt.Errorf("supervisor stopped during %s start", name)
	}
	s.procs[name] = &workerProc{name: name, cmd: cmd}
	s.mu.Unlock()

	if generation == 0 {
		s.starts.Inc()
	} else {
		s.restarts.Inc()
	}
	if s.cfg.OnUp != nil {
		s.cfg.OnUp(name, "http://"+addr)
	}

	s.wg.Add(1)
	go s.watch(name, cmd, generation)
	return nil
}

// watch waits for one worker process to exit and decides whether to
// restart it.
func (s *Supervisor) watch(name string, cmd *exec.Cmd, generation int) {
	defer s.wg.Done()
	_ = cmd.Wait()

	s.mu.Lock()
	stopped := s.stopped
	delete(s.procs, name)
	s.mu.Unlock()
	if stopped {
		return
	}
	s.deaths.Inc()
	if s.cfg.OnDown != nil {
		s.cfg.OnDown(name)
	}
	if generation >= s.cfg.MaxRestarts {
		return
	}
	// Linear backoff: enough to stop a crash-looping worker from
	// spinning, short enough that the smoke test's restart completes
	// within its budget.
	time.Sleep(time.Duration(generation+1) * 200 * time.Millisecond)
	s.mu.Lock()
	stopped = s.stopped
	s.mu.Unlock()
	if stopped {
		return
	}
	_ = s.launch(name, generation+1)
}

// Stop terminates all workers (SIGTERM, which faasd drains on) and
// waits for the watchers to finish.
func (s *Supervisor) Stop() {
	s.mu.Lock()
	s.stopped = true
	procs := make([]*workerProc, 0, len(s.procs))
	for _, p := range s.procs {
		procs = append(procs, p)
	}
	s.mu.Unlock()
	for _, p := range procs {
		_ = p.cmd.Process.Signal(syscall.SIGTERM)
	}
	s.wg.Wait()
}

// waitForAddr polls for the address file the worker writes once its
// listener is bound. Content that does not parse as host:port is
// treated the same as an absent file and polling continues: even
// though the worker publishes via rename, the path may be written
// directly by older workers or by hand, and accepting a torn read
// here would hand the router a garbage address.
func waitForAddr(path string, timeout time.Duration) (string, error) {
	deadline := time.Now().Add(timeout)
	for time.Now().Before(deadline) {
		data, err := os.ReadFile(path)
		if err == nil && len(data) > 0 {
			addr := string(data)
			for len(addr) > 0 && (addr[len(addr)-1] == '\n' || addr[len(addr)-1] == ' ') {
				addr = addr[:len(addr)-1]
			}
			if _, port, err := net.SplitHostPort(addr); err == nil && port != "" {
				return addr, nil
			}
		}
		time.Sleep(20 * time.Millisecond)
	}
	return "", fmt.Errorf("no valid host:port address in %s after %s", path, timeout)
}

package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"runtime/metrics"
	"sort"
	"strconv"
	"strings"
	"time"
)

// processStart approximates the start of the process: package
// variables initialise before main, so the first set-up's time includes
// the runtime's own start-up.
var processStart = time.Now()

// runConfig is one run of one workload.
type runConfig struct {
	workload string
	seed     uint64
	seconds  float64 // measured time; set-up and probes come on top
	traced   bool
	smoke    bool // one tiny pass per window, for the tests
	outDir   string
}

// windowSeconds is the length of one measured window. Windows are short
// and many because this kind of host changes speed by a tenth or more
// for seconds at a time: the median over ten windows shrugs off an
// episode that would move the mean of one long window.
func (c runConfig) windowSeconds() float64 {
	if c.smoke {
		return 0
	}
	return c.seconds / 10
}

// Set-up is repeated so that setup_s is a median: at least minSetups
// times, and for a cheap set-up until setupBudget is spent.
const (
	minSetups   = 3
	maxSetups   = 15
	setupBudget = 3 * time.Second
)

// series is one metric's per-window values and the number of samples
// (operations, requests) behind them.
type series struct {
	Windows []float64 `json:"windows"`
	N       int64     `json:"n"`
}

func (s *series) value() float64 { return median(s.Windows) }

// recorder collects the numbers of one run.
type recorder struct {
	attempted, failed int64
	failures          []string // first few failure reasons, for the report
	notes             []string // what the traced run shows about the layers
	metrics           map[string]*series
}

func newRecorder() *recorder { return &recorder{metrics: make(map[string]*series)} }

// add appends one window's value of a metric, backed by n samples.
func (r *recorder) add(name string, v float64, n int64) {
	if math.IsInf(v, 1) {
		v = math.MaxFloat64 // a percentile among failed operations; JSON has no +Inf
	}
	s := r.metrics[name]
	if s == nil {
		s = &series{}
		r.metrics[name] = s
	}
	s.Windows = append(s.Windows, v)
	s.N += n
}

// set records a metric that has one value for the whole run.
func (r *recorder) set(name string, v float64, n int64) {
	delete(r.metrics, name)
	r.add(name, v, n)
}

// note adds a line to the traced run's report.
func (r *recorder) note(format string, args ...any) {
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
}

// ok counts a verified operation.
func (r *recorder) ok() { r.attempted++ }

// fail counts a failed operation and keeps the reason.
func (r *recorder) fail(format string, args ...any) {
	r.attempted++
	r.failed++
	if len(r.failures) < 5 {
		r.failures = append(r.failures, fmt.Sprintf(format, args...))
	}
}

// workload is what each of the four workloads implements. setup builds
// everything up to the first measured operation and is timed as
// setup_s; window runs whole passes for about d and records its
// per-window values under rec; finish records whole-run values (pooled
// percentiles, exact counts); probes are the isolated per-layer
// measurements only a traced run makes.
type workload interface {
	setup(rec *recorder) error
	teardown()
	window(d time.Duration, tr *tracer, rec *recorder)
	finish(rec *recorder)
	probes(rec *recorder)
}

func newWorkload(cfg runConfig, tr *tracer) (workload, error) {
	switch cfg.workload {
	case wEmulate:
		return newEmulate(cfg), nil
	case wColdstart:
		return newColdstart(cfg), nil
	case wFaassim:
		return newFaassim(cfg), nil
	case wServe:
		return newServe(cfg, tr), nil
	}
	return nil, fmt.Errorf("unknown workload %q (want one of %s)", cfg.workload, strings.Join(allWorkloads, ", "))
}

// result is what one run reports; it is also the file a parent process
// reads back from a child run.
type result struct {
	Workload  string             `json:"workload"`
	Seed      uint64             `json:"seed"`
	Traced    bool               `json:"traced"`
	Attempted int64              `json:"attempted"`
	Failed    int64              `json:"failed"`
	Failures  []string           `json:"failures,omitempty"`
	Notes     []string           `json:"notes,omitempty"`
	Metrics   map[string]*series `json:"metrics"`
	Digest    string             `json:"sim_digest"`
	SpanFile  string             `json:"span_file,omitempty"`
}

func (r *result) value(name string) float64 {
	if s := r.Metrics[name]; s != nil {
		return s.value()
	}
	return 0
}

// runWorkload performs one run: set-up (several times, for a steady
// setup_s), the measured windows, and in a traced run the probes.
func runWorkload(cfg runConfig, log io.Writer) (*result, error) {
	var tr *tracer
	if cfg.traced {
		tr = newTracer()
	}
	w, err := newWorkload(cfg, tr)
	if err != nil {
		return nil, err
	}
	rec := newRecorder()

	var setupTimes []float64
	for i := 0; ; i++ {
		if i > 0 {
			w.teardown()
		}
		// Collect the previous set-up's garbage now, not at a moment of
		// the collector's choosing: peak_rss_mb then measures what the
		// workload holds, not how the repeats happened to overlap.
		runtime.GC()
		t0 := time.Now()
		if i == 0 {
			t0 = processStart
		}
		if err := w.setup(rec); err != nil {
			return nil, fmt.Errorf("%s: set-up: %w", cfg.workload, err)
		}
		setupTimes = append(setupTimes, time.Since(t0).Seconds())
		if cfg.smoke || i+1 >= maxSetups || i+1 >= minSetups && time.Since(processStart) > setupBudget {
			break
		}
	}
	defer w.teardown()
	rec.set("setup_s", median(setupTimes), int64(len(setupTimes)))

	// Measured windows until the run's time is used. A traced run
	// alternates untraced and traced windows, so that tracing overhead
	// is priced inside one process against the same machine state.
	d := time.Duration(cfg.windowSeconds() * float64(time.Second))
	total := time.Duration(cfg.seconds * float64(time.Second))
	var gc gcMeter
	tracedRec, untracedRec := rec, rec
	if cfg.traced {
		untracedRec = newRecorder()
	}
	rss := settledRSSMiB()
	start := time.Now()
	for i := 0; ; i++ {
		on := cfg.traced && i%2 == 1
		r := untracedRec
		if on {
			r = tracedRec
			tr.on = true
			gc.start()
		}
		ops0 := r.attempted
		w.window(d, tr, r)
		if on {
			tr.on = false
			gc.stop(r, r.attempted-ops0)
		}
		rss = math.Max(rss, settledRSSMiB())
		if cfg.smoke && i >= 1 || !cfg.smoke && time.Since(start)+d/2 > total {
			break
		}
	}
	w.finish(rec)
	if cfg.traced {
		rec.attempted += untracedRec.attempted
		rec.failed += untracedRec.failed
		rec.failures = append(rec.failures, untracedRec.failures...)
		if u := untracedRec.metrics["ops_per_s"].value(); u > 0 {
			rec.set("bench.trace_overhead_pct", 100*(u-rec.metrics["ops_per_s"].value())/u, rec.metrics["ops_per_s"].N)
		}
		w.probes(rec)
		if op := tr.opNs(); op > 0 && cfg.workload != wServe {
			rec.note("emulated execution (rt.Invoke spans) is %.1f %% of the traced op time",
				100*float64(tr.total("rt.Invoke").TotalNs)/float64(op))
		}
	}
	rec.set("peak_rss_mb", rss, 1)
	rec.set("fail_share", float64(rec.failed)/math.Max(1, float64(rec.attempted)), rec.attempted)

	res := &result{
		Workload: cfg.workload, Seed: cfg.seed, Traced: cfg.traced,
		Attempted: rec.attempted, Failed: rec.failed, Failures: rec.failures, Notes: rec.notes,
		Metrics: rec.metrics,
	}
	res.Digest = simDigest(res)
	if cfg.traced {
		path, err := tr.write(cfg.outDir, cfg.workload)
		if err != nil {
			return nil, err
		}
		res.SpanFile = path
		fmt.Fprintf(log, "trace breakdown for %s (self = span minus its children; share of traced op time):\n", cfg.workload)
		tr.printBreakdown(log)
	}
	return res, nil
}

// passLoop runs whole passes until the window is used up: it stops when
// another pass would overshoot d by more than half a pass. pass reports
// how many operations it ran.
func passLoop(d time.Duration, smoke bool, pass func() int64) (ops int64, elapsed time.Duration) {
	start := time.Now()
	passes := 0
	for {
		ops += pass()
		passes++
		elapsed = time.Since(start)
		if smoke || elapsed+elapsed/time.Duration(2*passes) > d {
			return ops, elapsed
		}
	}
}

// gcMeter prices the Go runtime over the traced windows: bytes and
// objects allocated per operation and the collector's share of the
// available CPU time.
type gcMeter struct {
	samples   []metrics.Sample
	bytes0    uint64
	objs0     uint64
	gcCPU0    float64
	totalCPU0 float64
}

func (g *gcMeter) read() (bytes, objs uint64, gcCPU, totalCPU float64) {
	if g.samples == nil {
		g.samples = []metrics.Sample{
			{Name: "/gc/heap/allocs:bytes"},
			{Name: "/gc/heap/allocs:objects"},
			{Name: "/cpu/classes/gc/total:cpu-seconds"},
			{Name: "/cpu/classes/total:cpu-seconds"},
		}
	}
	metrics.Read(g.samples)
	return g.samples[0].Value.Uint64(), g.samples[1].Value.Uint64(),
		g.samples[2].Value.Float64(), g.samples[3].Value.Float64()
}

func (g *gcMeter) start() { g.bytes0, g.objs0, g.gcCPU0, g.totalCPU0 = g.read() }

func (g *gcMeter) stop(rec *recorder, ops int64) {
	bytes, objs, gcCPU, totalCPU := g.read()
	if ops <= 0 {
		return
	}
	rec.add("go.alloc_kb_per_op", float64(bytes-g.bytes0)/1024/float64(ops), ops)
	rec.add("go.allocs_per_op", float64(objs-g.objs0)/float64(ops), ops)
	pct := 0.0
	if dt := totalCPU - g.totalCPU0; dt > 0 {
		pct = 100 * (gcCPU - g.gcCPU0) / dt
	}
	rec.add("go.gc_cpu_pct", pct, ops)
}

// settledRSSMiB is the process's resident set right after a collection
// that hands every free page back to the operating system. peak_rss_mb
// is the highest of these, read between windows. The kernel's own
// high-water mark (VmHWM) is not used: it adds however far the heap
// happened to overshoot while the collector was running, which on the
// allocation-heavy workloads is as large as what the workload holds and
// differs by half from run to run.
func settledRSSMiB() float64 {
	debug.FreeOSMemory()
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(data), "\n") {
		if f := strings.Fields(line); len(f) >= 2 && f[0] == "VmRSS:" {
			kb, _ := strconv.ParseFloat(f[1], 64)
			return kb / 1024
		}
	}
	return 0
}

// simDigest hashes the exact metrics of a run. Two runs of one commit
// and seed must print the same digest; a host-speed optimisation must
// not move it.
func simDigest(res *result) string {
	var lines []string
	for _, d := range metricTable {
		if d.Exact && d.measuredOn(res.Workload) {
			lines = append(lines, d.Name+"="+strconv.FormatFloat(res.value(d.Name), 'g', -1, 64))
		}
	}
	sort.Strings(lines)
	sum := sha256.Sum256([]byte(strings.Join(lines, "\n")))
	return hex.EncodeToString(sum[:8])
}

// printResult writes the metric table of one run: every metric measured
// on the workload by name, with its unit, the inter-quartile spread
// across windows and the sample count; then the exact metrics and the
// digest.
func printResult(w io.Writer, res *result) {
	mode := "untraced"
	if res.Traced {
		mode = "traced"
	}
	fmt.Fprintf(w, "== %s seed=%d %s: attempted=%d failed=%d\n", res.Workload, res.Seed, mode, res.Attempted, res.Failed)
	for _, f := range res.Failures {
		fmt.Fprintf(w, "   FAILED: %s\n", f)
	}
	for _, n := range res.Notes {
		fmt.Fprintf(w, "   layers: %s\n", n)
	}
	fmt.Fprintf(w, "  %-34s %16s %-6s %8s %9s\n", "metric", "value", "unit", "iqr", "samples")
	for _, d := range metricTable {
		if !d.measuredOn(res.Workload) || d.E2E == res.Traced && !d.Exact {
			continue
		}
		s := res.Metrics[d.Name]
		if s == nil {
			continue
		}
		kind := ""
		if d.Exact {
			kind = " exact"
		}
		fmt.Fprintf(w, "  %-34s %16.6g %-6s %7.1f%% %9d%s\n", d.Name, s.value(), d.Unit, 100*iqrShare(s.Windows), s.N, kind)
	}
	fmt.Fprintf(w, "  sim_digest %s\n", res.Digest)
}

// resultLine is the last line of standard output of a single run: one
// JSON object with exactly the keys correct, attempted, failed and
// metrics. An untraced run reports every end-to-end metric, a traced
// run every per-layer metric; a per-layer metric the workload does not
// measure reads 0.
func resultLine(res *result) string {
	type mv struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	m := make(map[string]mv)
	for _, d := range metricTable {
		if d.E2E == res.Traced {
			continue
		}
		m[d.Name] = mv{Value: res.value(d.Name), Unit: d.Unit}
	}
	out, err := json.Marshal(map[string]any{
		"correct":   res.Failed == 0,
		"attempted": res.Attempted,
		"failed":    res.Failed,
		"metrics":   m,
	})
	if err != nil {
		panic(err) // plain numbers and strings
	}
	return string(out)
}

func writeResultFile(dir string, res *result) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	data, err := json.Marshal(res)
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, resultFileName(res.Workload, res.Traced)), data, 0o644)
}

func resultFileName(workload string, traced bool) string {
	if traced {
		return workload + "-traced.json"
	}
	return workload + "-untraced.json"
}

func header(w io.Writer, seed uint64) {
	fmt.Fprintf(w, "bench: GOMAXPROCS=%d nproc=%d %s commit=%s seed=%d\n",
		runtime.GOMAXPROCS(0), runtime.NumCPU(), runtime.Version(), commitID(), seed)
}

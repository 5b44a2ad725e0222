package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"strings"
	"sync/atomic"
	"testing"
	"time"
)

// TestMain lets the test binary stand in for the bench binary: -sets
// and -workload all re-execute os.Executable() once per run, which under
// `go test` is this binary.
func TestMain(m *testing.M) {
	if os.Getenv("BENCH_AS_MAIN") == "1" {
		os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
	}
	os.Exit(m.Run())
}

func TestQuantileHelpers(t *testing.T) {
	xs := []float64{5, 1, 4, 2, 3}
	for _, c := range []struct{ q, want float64 }{{0, 1}, {0.25, 2}, {0.5, 3}, {0.75, 4}, {1, 5}, {0.9, 4.6}} {
		if got := quantile(xs, c.q); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("quantile(%v) = %v, want %v", c.q, got, c.want)
		}
	}
	if !reflect.DeepEqual(xs, []float64{5, 1, 4, 2, 3}) {
		t.Error("quantile reordered its input")
	}
	if got := median([]float64{1, 2, 3, 100}); got != 2.5 {
		t.Errorf("median = %v, want 2.5", got)
	}
	if got := iqrShare([]float64{1, 2, 3, 4, 5}); got != 2.0/3 {
		t.Errorf("iqrShare = %v, want 2/3", got)
	}
	if got := iqrShare([]float64{7}); got != 0 {
		t.Errorf("iqrShare of one value = %v, want 0", got)
	}
	// A failed operation enters at +Inf: two in a hundred push p99 there.
	lat := make([]float64, 100)
	lat[3], lat[50] = math.Inf(1), math.Inf(1)
	if got := quantile(lat, 0.99); !math.IsInf(got, 1) {
		t.Errorf("p99 with 2%% failures = %v, want +Inf", got)
	}
	if got := quantile(lat, 0.5); got != 0 {
		t.Errorf("p50 with 2%% failures = %v, want 0", got)
	}
	for _, c := range []struct{ n, want int }{{1000, 9}, {1100, 10}, {2200, 21}} {
		if got := beyond(c.n, 0.99); got != c.want {
			t.Errorf("beyond(%d, 0.99) = %d, want %d", c.n, got, c.want)
		}
	}
}

// TestWindowMedian pins the per-window rule: a metric's value is the
// median of its windows, so one slow window does not move it.
func TestWindowMedian(t *testing.T) {
	rec := newRecorder()
	for _, v := range []float64{100, 101, 99, 50, 100} {
		rec.add("ops_per_s", v, 10)
	}
	s := rec.metrics["ops_per_s"]
	if s.value() != 100 || s.N != 50 {
		t.Errorf("value %v over %d samples, want 100 over 50", s.value(), s.N)
	}
	rec.set("ops_per_s", 7, 1)
	if s := rec.metrics["ops_per_s"]; s.value() != 7 || len(s.Windows) != 1 {
		t.Errorf("set left %v", s.Windows)
	}
}

func TestSeededDrawsRepeat(t *testing.T) {
	z := newZipf(12, zipfS)
	a := poissonSchedule(newRNG(7), 1000, 200*time.Millisecond, z)
	b := poissonSchedule(newRNG(7), 1000, 200*time.Millisecond, z)
	c := poissonSchedule(newRNG(8), 1000, 200*time.Millisecond, z)
	if !reflect.DeepEqual(a, b) {
		t.Error("the same seed gave two different schedules")
	}
	if reflect.DeepEqual(a, c) {
		t.Error("different seeds gave the same schedule")
	}
	// About 200 arrivals, in time order, inside the window.
	if len(a) < 140 || len(a) > 260 {
		t.Errorf("%d arrivals in 0.2 s at 1000 rps", len(a))
	}
	for i, arr := range a {
		if arr.due <= 0 || arr.due >= 200*time.Millisecond || i > 0 && arr.due < a[i-1].due {
			t.Fatalf("arrival %d due at %v", i, arr.due)
		}
	}
	if !reflect.DeepEqual(newRNG(3).perm(36), newRNG(3).perm(36)) {
		t.Error("perm is not a function of the seed")
	}
	// Zipf: rank 0 is drawn most, every rank is in range.
	r := newRNG(1)
	counts := make([]int, 12)
	for i := 0; i < 20000; i++ {
		counts[z.draw(r)]++
	}
	for k := 1; k < len(counts); k++ {
		if counts[k] >= counts[0] {
			t.Errorf("rank %d drawn %d times, rank 0 only %d", k, counts[k], counts[0])
		}
	}
	if counts[11] == 0 {
		t.Error("the tail rank was never drawn")
	}
}

// TestOpenLoopCountsTheWait is the property cmd/faasload lacks: with
// one connection and a handler that stalls 50 ms once, the requests due
// during the stall must show the time they waited for the connection,
// every scheduled request must still be sent, and the lateness must be
// on record.
func TestOpenLoopCountsTheWait(t *testing.T) {
	var calls atomic.Int64
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if calls.Add(1) == 1 {
			time.Sleep(50 * time.Millisecond)
		}
	}))
	defer srv.Close()
	clock, err := newHRTimer()
	if err != nil {
		t.Fatal(err)
	}
	defer clock.close()

	const d = 150 * time.Millisecond
	sched := poissonSchedule(newRNG(1), 1000, d, newZipf(1, 1))
	res, err := runOpenLoop(clock, sched, d, 1, func(int, arrival, time.Time) bool {
		resp, err := http.Get(srv.URL)
		if err != nil {
			return false
		}
		resp.Body.Close()
		return resp.StatusCode == http.StatusOK
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.offered != len(sched) || int(calls.Load()) != len(sched) {
		t.Fatalf("offered %d, handler saw %d, scheduled %d: nothing may be dropped", res.offered, calls.Load(), len(sched))
	}
	if res.failed != 0 {
		t.Fatalf("%d requests failed", res.failed)
	}
	// Arrivals due in the first 40 ms sat behind the stall; each waited
	// at least until it ended, 10 ms or more after its due time.
	waited := 0
	for i, a := range sched {
		if a.due > 0 && a.due < 40*time.Millisecond {
			waited++
			if res.latMs[i] < 10 {
				t.Errorf("request due at %v reports %.2f ms: the wait behind the stall is missing", a.due, res.latMs[i])
			}
			if i > 0 && res.lateMs[i] < 10 {
				t.Errorf("request due at %v reports %.2f ms late", a.due, res.lateMs[i])
			}
		}
	}
	if waited < 10 {
		t.Fatalf("only %d requests were due during the stall", waited)
	}
}

func smokeConfig(t *testing.T, workload string, traced bool) runConfig {
	return runConfig{workload: workload, seed: 1, seconds: 1, traced: traced, smoke: true, outDir: t.TempDir()}
}

// benchmarkJSON is the contract file at the root of the repository.
type benchmarkJSON struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct{ Name, Why string }
	EndToEnd   []struct {
		Name, Unit, Better string
		Bound              float64
	} `json:"end_to_end"`
	PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
}

func readBenchmarkJSON(t *testing.T) benchmarkJSON {
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var b benchmarkJSON
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&b); err != nil {
		t.Fatalf("BENCHMARK.json: %v", err)
	}
	return b
}

// TestContractMatchesTable checks BENCHMARK.json against the metric
// table -list prints from: names, units, directions and bounds agree,
// every name is well formed, and the counts are inside the contract.
func TestContractMatchesTable(t *testing.T) {
	b := readBenchmarkJSON(t)
	nameRE := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	if len(b.Workloads) != len(allWorkloads) || len(b.Workloads) > 8 {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in the program", len(b.Workloads), len(allWorkloads))
	}
	for i, w := range b.Workloads {
		if w.Name != allWorkloads[i] || w.Why != workloadWhy[w.Name] {
			t.Errorf("workload %d: %q / %q does not match the program's", i, w.Name, w.Why)
		}
		if len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %s: why must be one line of at most 200 characters, has %d", w.Name, len(w.Why))
		}
	}
	if b.RunSeconds != defaultSeconds {
		t.Errorf("run_seconds %d, the program's default is %d", b.RunSeconds, defaultSeconds)
	}
	var list bytes.Buffer
	printList(&list)
	seen := map[string]bool{}
	check := func(name, unit, better string, bound float64, e2e bool) {
		if seen[name] {
			t.Errorf("%s is listed twice", name)
		}
		seen[name] = true
		if !nameRE.MatchString(name) || !unitRE.MatchString(unit) {
			t.Errorf("%s [%s]: malformed name or unit", name, unit)
		}
		d, ok := metricByName(name)
		if !ok {
			t.Errorf("%s is in BENCHMARK.json but not in the metric table", name)
			return
		}
		if d.Unit != unit || d.Better != better || d.E2E != e2e || d.Bound != bound {
			t.Errorf("%s: BENCHMARK.json says %s/%s/%v, the table %s/%s/%v", name, unit, better, bound, d.Unit, d.Better, d.Bound)
		}
		if !regexp.MustCompile(`(?m)^` + regexp.QuoteMeta(name) + `\s+` + regexp.QuoteMeta(unit) + `\s`).Match(list.Bytes()) {
			t.Errorf("-list does not print %s with unit %s", name, unit)
		}
	}
	hasSetup := false
	for _, m := range b.EndToEnd {
		check(m.Name, m.Unit, m.Better, m.Bound, true)
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
		hasSetup = hasSetup || m.Name == "setup_s" && m.Unit == "s" && m.Better == lower
	}
	for _, m := range b.PerLayer {
		check(m.Name, m.Unit, m.Better, 0, false)
	}
	if !hasSetup {
		t.Error("no setup_s metric in seconds, lower is better")
	}
	if len(b.EndToEnd) < 1 || len(b.EndToEnd) > 16 || len(b.PerLayer) < 1 || len(b.PerLayer) > 128 {
		t.Errorf("%d end-to-end and %d per-layer metrics: outside the contract's 1-16 and 1-128", len(b.EndToEnd), len(b.PerLayer))
	}
	if len(seen) != len(metricTable) {
		t.Errorf("BENCHMARK.json lists %d metrics, the table %d", len(seen), len(metricTable))
	}
}

// TestSmokeEveryWorkload runs one tiny pass of each workload, untraced
// and traced: no operation may fail, the result line must carry exactly
// the metrics the contract wants for that mode, and every metric the
// workload is listed for must come out non-zero in the report, by name
// with its unit. Nothing here looks at how long anything took.
func TestSmokeEveryWorkload(t *testing.T) {
	// Exact counts and shares that are legitimately 0 on a healthy run.
	mayBeZero := map[string]bool{
		"fail_share": true, "bench.trace_overhead_pct": true, "go.gc_cpu_pct": true, "bench.late_p99_ms": true,
		"server.shed_share": true, "server.timeouts": true, "cluster.failovers": true, "cluster.divert_share": true,
		"serve.max_rate_ok": true, "faas.shed": true, "faas.retried": true, "cache.dtlb_miss_share": true,
		"cpu.segue_overhead_removed_pct": true, "go.alloc_kb_per_op": true, "go.allocs_per_op": true,
	}
	for _, name := range allWorkloads {
		digests := map[bool]string{}
		for _, traced := range []bool{false, true} {
			var log bytes.Buffer
			res, err := runWorkload(smokeConfig(t, name, traced), &log)
			if err != nil {
				t.Fatalf("%s traced=%v: %v", name, traced, err)
			}
			if res.Failed != 0 || res.Attempted < 1 {
				t.Fatalf("%s traced=%v: %d of %d operations failed: %v", name, traced, res.Failed, res.Attempted, res.Failures)
			}
			digests[traced] = res.Digest
			printResult(&log, res)

			var line struct {
				Correct   bool
				Attempted int64
				Failed    int64
				Metrics   map[string]struct {
					Value *float64
					Unit  string
				}
			}
			if err := json.Unmarshal([]byte(resultLine(res)), &line); err != nil {
				t.Fatal(err)
			}
			if !line.Correct || line.Attempted != res.Attempted || line.Failed != 0 {
				t.Errorf("%s: result line says %+v", name, line)
			}
			want := 0
			for _, d := range metricTable {
				if d.E2E == traced {
					continue
				}
				want++
				m, ok := line.Metrics[d.Name]
				if !ok || m.Value == nil || m.Unit != d.Unit {
					t.Errorf("%s traced=%v: result line lacks %s [%s]", name, traced, d.Name, d.Unit)
					continue
				}
				if !d.measuredOn(name) {
					continue
				}
				if *m.Value == 0 && !mayBeZero[d.Name] || math.IsNaN(*m.Value) {
					t.Errorf("%s traced=%v: %s reads %v", name, traced, d.Name, *m.Value)
				}
				if !regexp.MustCompile(`(?m)^\s+` + regexp.QuoteMeta(d.Name) + `\s+\S+\s+` + regexp.QuoteMeta(d.Unit) + `\s`).Match(log.Bytes()) {
					t.Errorf("%s traced=%v: the report does not print %s with unit %s", name, traced, d.Name, d.Unit)
				}
			}
			if len(line.Metrics) != want {
				t.Errorf("%s traced=%v: result line has %d metrics, want %d", name, traced, len(line.Metrics), want)
			}
			if traced {
				if _, err := os.Stat(res.SpanFile); err != nil {
					t.Errorf("%s: span file: %v", name, err)
				}
				if !strings.Contains(log.String(), "trace breakdown") {
					t.Errorf("%s: no trace breakdown in the report", name)
				}
			}
		}
		if digests[false] != digests[true] {
			t.Errorf("%s: sim_digest differs between the untraced (%s) and traced (%s) run", name, digests[false], digests[true])
		}
	}
}

// TestUntracedRunRecordsNoSpans pins that a nil tracer is inert.
func TestUntracedRunRecordsNoSpans(t *testing.T) {
	var tr *tracer
	if tr.active() {
		t.Fatal("nil tracer is active")
	}
	sp := tr.begin("op", nil, 1)
	if sp != nil || tr.end(sp) != 0 {
		t.Fatal("nil tracer made a span")
	}
	on := newTracer()
	if on.begin("op", nil, 1) != nil {
		t.Fatal("a tracer that is switched off made a span")
	}
	on.on = true
	root := on.begin("op", nil, 1)
	child := on.begin("rt.Invoke", root, 1)
	time.Sleep(time.Millisecond)
	on.end(child)
	on.end(root)
	op, inv := on.total("op"), on.total("rt.Invoke")
	if op.Count != 1 || inv.Count != 1 || op.ChildNs != inv.TotalNs || op.selfNs() != op.TotalNs-inv.TotalNs {
		t.Errorf("self time is not span minus children: op %+v, child %+v", op, inv)
	}
	if on.opNs() != op.TotalNs {
		t.Errorf("op time %d, root span total %d", on.opNs(), op.TotalNs)
	}
}

// TestWrongChecksumFails feeds every workload's oracle a wrong reference
// and expects the run to count failures and the command to exit non-zero.
func TestWrongChecksumFails(t *testing.T) {
	refSkew = 1
	defer func() { refSkew = 0 }()
	for _, name := range []string{wEmulate, wColdstart, wServe} {
		res, err := runWorkload(smokeConfig(t, name, true), &bytes.Buffer{})
		if err != nil {
			t.Fatal(err)
		}
		if res.Failed == 0 || res.value("fail_share") <= 0 {
			t.Errorf("%s: a wrong reference checksum went unnoticed: failed=%d fail_share=%v", name, res.Failed, res.value("fail_share"))
		}
	}
	var out, errOut bytes.Buffer
	code := run([]string{"-workload", wColdstart, "-trace", "0", "-smoke", "-out", t.TempDir()}, &out, &errOut)
	if code == 0 {
		t.Errorf("exit code 0 with a wrong reference checksum:\n%s", out.String())
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	if last := lines[len(lines)-1]; !strings.Contains(last, `"correct":false`) {
		t.Errorf("result line does not say correct=false: %s", last)
	}
}

// TestFaassimNoticesAChangedResult: the simulator has no checksum, so its
// oracle is conservation plus equality with the first pass.
func TestFaassimNoticesAChangedResult(t *testing.T) {
	f := newFaassim(smokeConfig(t, wFaassim, false))
	rec := newRecorder()
	if err := f.setup(rec); err != nil {
		t.Fatal(err)
	}
	f.window(0, nil, rec)
	if rec.failed != 0 {
		t.Fatalf("clean pass failed: %v", rec.failures)
	}
	f.runs[0].first.Completed++
	f.window(0, nil, rec)
	if rec.failed != 1 {
		t.Errorf("%d failures after changing one remembered result, want 1", rec.failed)
	}
}

// TestSetsCompare drives -sets 2 end to end on the cheapest workload:
// the two sets' exact metrics and digests must agree and the comparison
// must print each end-to-end metric's difference beside its bound. The
// timed differences of a smoke run mean nothing, so the exit code is
// not checked; compareSets' verdicts are, on synthetic results below.
func TestSetsCompare(t *testing.T) {
	t.Setenv("BENCH_AS_MAIN", "1")
	var out, errOut bytes.Buffer
	run([]string{"-workload", wFaassim, "-trace", "0", "-smoke", "-sets", "2", "-out", t.TempDir()}, &out, &errOut)
	if !strings.Contains(out.String(), "comparing 2 sets") || strings.Contains(out.String(), "EXACT METRIC MOVED") ||
		strings.Contains(out.String(), "sim_digest differs") {
		t.Errorf("unexpected -sets report:\n%s\n%s", out.String(), errOut.String())
	}
	for _, d := range metricTable {
		if d.E2E && !strings.Contains(out.String(), fmt.Sprintf(" %-12s set1=", d.Name)) {
			t.Errorf("-sets report lacks %s", d.Name)
		}
	}

	mk := func(ops, insts float64, digest string) *result {
		rec := newRecorder()
		rec.set("ops_per_s", ops, 1)
		rec.set("cpu.insts", insts, 1)
		return &result{Workload: wEmulate, Metrics: rec.metrics, Digest: digest}
	}
	var buf bytes.Buffer
	if !compareSets(&buf, [][]*result{{mk(100, 5, "a")}, {mk(105, 5, "a")}}) {
		t.Errorf("a 5%% difference was rejected:\n%s", buf.String())
	}
	if compareSets(&buf, [][]*result{{mk(100, 5, "a")}, {mk(50, 5, "a")}}) {
		t.Error("a 50% difference was accepted")
	}
	if compareSets(&buf, [][]*result{{mk(100, 5, "a")}, {mk(100, 6, "a")}}) {
		t.Error("a moved exact metric was accepted")
	}
	if compareSets(&buf, [][]*result{{mk(100, 5, "a")}, {mk(100, 5, "b")}}) {
		t.Error("a different digest was accepted")
	}
}

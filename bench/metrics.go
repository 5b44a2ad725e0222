package main

import (
	"encoding/json"
	"fmt"
	"io"
	"strings"
)

// Workload names. Later issues refer to them; do not rename.
const (
	wEmulate   = "emulate"
	wColdstart = "coldstart"
	wFaassim   = "faassim"
	wServe     = "serve"
)

var allWorkloads = []string{wEmulate, wColdstart, wFaassim, wServe}

// workloadWhy is the one-line reason each workload exists, the text
// BENCHMARK.json carries as "why".
var workloadWhy = map[string]string{
	wEmulate:   "closed loop, 1 goroutine: Invoke of 12 pre-instantiated kernels x native/guard/segue on the fused tier; cpu+mem+cache do all the work, sfi/rt set-up/isolation/server none",
	wColdstart: "closed loop, 1 goroutine: Allocate -> NewInstance -> Invoke(TestArgs) -> Close over FaaS kernel x 4 backends, every 4th op a deploy (Build + uncached compile); emulation is under a tenth",
	wFaassim:   "closed loop, 1 goroutine: faas.Run over 3 workloads x processes x backends plus fault and phase rows; the discrete-event simulator with no instruction emulation",
	wServe:     "open then closed loop, 2 connections: HTTP over loopback -> cluster.Router -> 2 single-worker servers, Zipf keys; server and cluster dominate, cpu does little",
}

// metricDef is one row of the metric table. The table is the single
// source for -list, for the result lines, and for the check against
// BENCHMARK.json, so the three cannot drift.
type metricDef struct {
	Name   string
	Unit   string
	Better string  // "lower" or "higher"
	Bound  float64 // end-to-end only: allowed worsening as a share of the parent's median
	E2E    bool    // measured by the untraced run; otherwise per-layer, from the traced run
	Exact  bool    // a simulated count that must repeat bit for bit
	On     string  // workloads that measure it: "all" or a comma list; elsewhere it reads 0
}

func (d metricDef) measuredOn(workload string) bool {
	if d.On == "all" {
		return true
	}
	for _, w := range strings.Split(d.On, ",") {
		if w == workload {
			return true
		}
	}
	return false
}

const (
	lower  = "lower"
	higher = "higher"

	maxBound = 0.25 // the contract's ceiling on an end-to-end bound
)

func e2e(name, unit, better string, bound float64) metricDef {
	return metricDef{Name: name, Unit: unit, Better: better, Bound: bound, E2E: true, On: "all"}
}

func layer(name, unit, better, on string) metricDef {
	return metricDef{Name: name, Unit: unit, Better: better, On: on}
}

func exact(name, unit, better, on string) metricDef {
	return metricDef{Name: name, Unit: unit, Better: better, On: on, Exact: true}
}

// perKind expands a name pattern over the four isolation backends.
func perKind(pattern, unit, better, on string) []metricDef {
	var out []metricDef
	for _, k := range kindNames {
		out = append(out, layer(fmt.Sprintf(pattern, k), unit, better, on))
	}
	return out
}

var kindNames = []string{"guardpage", "colorguard", "mte", "multiproc"}

// serveRates are the open-loop steps of the serve workload, requests
// per second. The end-to-end latency metrics come from e2eRate.
var serveRates = []int{500, 1000, 2000}

const e2eRate = 1000

// metricTable lists every metric the benchmark prints.
//
// fail_share is a per-layer row although the issue lists it end to
// end: the contract forbids an end-to-end metric that reads 0, and 0 is
// its expected value. Failures still gate every run through the
// "failed" count of the result line.
var metricTable = buildMetricTable()

func buildMetricTable() []metricDef {
	t := []metricDef{
		// End to end. sim_mips, p50_ms and p99_ms are defined on every
		// workload because the contract wants every end-to-end metric
		// from every run; README.md says which workload each is meant
		// to be read on.
		//
		// Every bound is the widest the contract allows. Whole runs land
		// on a faster or a slower stretch of this kind of host — 5 %
		// either way on two cores as a rule, 25 % for minutes at a time
		// now and then — and a bound has to clear three times the spread
		// that leaves between runs. README.md has the spreads and the
		// paired-run method that resolves smaller differences.
		e2e("setup_s", "s", lower, maxBound),
		e2e("ops_per_s", "1/s", higher, maxBound),
		e2e("sim_mips", "MIPS", higher, maxBound),
		e2e("p50_ms", "ms", lower, maxBound),
		e2e("p99_ms", "ms", lower, maxBound),
		e2e("peak_rss_mb", "MiB", lower, maxBound),

		// Harness.
		layer("fail_share", "ratio", lower, "all"),
		layer("bench.trace_overhead_pct", "%", lower, "all"),
		layer("bench.late_p99_ms", "ms", lower, wServe),
		layer("go.alloc_kb_per_op", "KiB", lower, "all"),
		layer("go.allocs_per_op", "count", lower, "all"),
		layer("go.gc_cpu_pct", "%", lower, "all"),

		// ir / workloads.
		layer("ir.build_us", "us", lower, wColdstart),
		layer("ir.interp_mips", "MIPS", higher, wEmulate),

		// sfi / x86.
		layer("sfi.compile_us", "us", lower, wColdstart),
		layer("sfi.compile_ns_per_inst", "ns", lower, wColdstart),
		layer("x86.encode_ns_per_inst", "ns", lower, wColdstart),
		exact("sfi.insts_emitted", "count", lower, wColdstart),
		exact("sfi.code_bytes", "B", lower, wColdstart),

		// cpu.
		layer("cpu.ns_per_inst", "ns", lower, wEmulate),
		layer("cpu.mips.native", "MIPS", higher, wEmulate),
		layer("cpu.mips.guard", "MIPS", higher, wEmulate),
		layer("cpu.mips.segue", "MIPS", higher, wEmulate),
		layer("cpu.mips.slowest_kernel", "MIPS", higher, wEmulate),
		layer("cpu.mips.fastest_kernel", "MIPS", higher, wEmulate),
		layer("cpu.mips.fast_tier", "MIPS", higher, wEmulate),
		layer("cpu.mips.slow_tier", "MIPS", higher, wEmulate),
		exact("cpu.insts", "count", lower, wEmulate),
		exact("cpu.sim_cycles", "count", lower, wEmulate),
		exact("cpu.mem_reads", "count", lower, wEmulate),
		exact("cpu.mem_writes", "count", lower, wEmulate),
		exact("cpu.branches", "count", lower, wEmulate),
		exact("cpu.mispredicts", "count", lower, wEmulate),
		exact("cpu.bytes_fetched", "B", lower, wEmulate),
		exact("cpu.sim_ipc", "ratio", higher, wEmulate),
		exact("cpu.segue_overhead_removed_pct", "%", higher, wEmulate),

		// mem: access probes ride with emulate, mapping probes with
		// coldstart, because those are the workloads each should move.
		layer("mem.load_ns", "ns", lower, wEmulate),
		layer("mem.store_ns", "ns", lower, wEmulate),
		layer("mem.check_access_ns", "ns", lower, wEmulate),
		layer("mem.mmap_us", "us", lower, wColdstart),
		layer("mem.mprotect_us", "us", lower, wColdstart),
		layer("mem.pkey_mprotect_us", "us", lower, wColdstart),
		layer("mem.madvise_us", "us", lower, wColdstart),
		layer("mem.munmap_us", "us", lower, wColdstart),
		exact("mem.vma_count", "count", lower, wColdstart),
		exact("mem.resident_pages", "count", lower, wColdstart),

		// cache.
		layer("cache.access_ns", "ns", lower, wEmulate),
		layer("cache.tlb_access_ns", "ns", lower, wEmulate),
		exact("cache.dtlb_miss_share", "ratio", lower, wEmulate),
		exact("cache.l1d_miss_share", "ratio", lower, wEmulate),

		// pool / colorguard / isolation.
		layer("pool.layout_us", "us", lower, wColdstart),
	}
	t = append(t, perKind("isolation.reserve_us.%s", "us", lower, wColdstart)...)
	t = append(t, perKind("isolation.allocate_us.%s", "us", lower, wColdstart)...)
	t = append(t, perKind("isolation.recycle_us.%s", "us", lower, wColdstart)...)
	t = append(t,
		exact("isolation.slots.guardpage", "count", higher, wColdstart),
		exact("isolation.slots.colorguard", "count", higher, wColdstart),
	)

	// rt.
	t = append(t, perKind("rt.instantiate_us.%s", "us", lower, wColdstart)...)
	t = append(t, layer("rt.instantiate_us.standalone", "us", lower, wColdstart))
	t = append(t, perKind("rt.close_us.%s", "us", lower, wColdstart)...)
	t = append(t,
		layer("rt.invoke_us", "us", lower, wColdstart),
		layer("rt.invoke_overhead_us", "us", lower, wColdstart),
		layer("rt.reset_us", "us", lower, wServe),
		layer("rt.modcache_hit_share", "ratio", higher, wServe),
		exact("rt.transition_sim_ns", "ns", lower, wColdstart),

		// server.
		layer("server.handler_us.p50", "us", lower, wServe),
		layer("server.handler_us.p99", "us", lower, wServe),
		layer("server.overhead_us.p50", "us", lower, wServe),
	)
	for _, ph := range servePhases {
		t = append(t,
			layer("server.phase."+ph+"_us.p50", "us", lower, wServe),
			layer("server.phase."+ph+"_us.p99", "us", lower, wServe))
	}
	t = append(t,
		layer("server.warm_hit_share", "ratio", higher, wServe),
		layer("server.shed_share", "ratio", lower, wServe),
		layer("server.timeouts", "count", lower, wServe),
		layer("server.direct_ops_per_s", "1/s", higher, wServe),

		// cluster.
		layer("cluster.hop_us.p50", "us", lower, wServe),
		layer("cluster.hop_us.p99", "us", lower, wServe),
		layer("cluster.divert_share", "ratio", lower, wServe),
		layer("cluster.failovers", "count", lower, wServe),
		layer("cluster.home_share", "ratio", higher, wServe),
		layer("cluster.ring_lookup_ns", "ns", lower, wServe),

		// faas / fault / stats.
		layer("faas.run_ms.colorguard", "ms", lower, wFaassim),
		layer("faas.run_ms.multiproc", "ms", lower, wFaassim),
		layer("faas.run_ms.faults", "ms", lower, wFaassim),
		layer("faas.run_ms.phases", "ms", lower, wFaassim),
		layer("faas.sim_req_per_host_s", "1/s", higher, wFaassim),
		exact("faas.gain_pct.p15", "%", higher, wFaassim),
		exact("faas.ctx_switches", "count", lower, wFaassim),
		exact("faas.dtlb_misses", "count", lower, wFaassim),
		exact("faas.transitions", "count", lower, wFaassim),
		exact("faas.shed", "count", lower, wFaassim),
		exact("faas.retried", "count", lower, wFaassim),
	)

	// serve steps.
	for _, r := range serveRates {
		t = append(t, layer(fmt.Sprintf("serve.p50_ms.r%d", r), "ms", lower, wServe))
	}
	for _, r := range serveRates {
		t = append(t, layer(fmt.Sprintf("serve.p99_ms.r%d", r), "ms", lower, wServe))
	}
	for _, r := range serveRates {
		t = append(t, layer(fmt.Sprintf("serve.offered.r%d", r), "count", higher, wServe))
	}
	t = append(t,
		layer("serve.max_rate_ok", "1/s", higher, wServe),
		layer("serve.closed_p50_ms", "ms", lower, wServe),
	)
	return t
}

// servePhases are the program-reported request phases read from the
// phase_us object of a traced serve response. transition sums the
// program's transition_in and transition_out.
var servePhases = []string{"admission", "queue", "placement", "exec", "marshal", "transition"}

func metricByName(name string) (metricDef, bool) {
	for _, d := range metricTable {
		if d.Name == name {
			return d, true
		}
	}
	return metricDef{}, false
}

// printList writes the -list table.
func printList(w io.Writer) {
	fmt.Fprintf(w, "%-34s %-6s %-7s %-6s %-20s %-9s %s\n", "metric", "unit", "better", "bound", "workloads", "run", "kind")
	for _, d := range metricTable {
		bound, run, kind := "-", "traced", "timed"
		if d.E2E {
			bound = fmt.Sprintf("%.2f", d.Bound)
			run = "untraced"
		}
		if d.Exact {
			kind = "exact"
		}
		fmt.Fprintf(w, "%-34s %-6s %-7s %-6s %-20s %-9s %s\n", d.Name, d.Unit, d.Better, bound, d.On, run, kind)
	}
	fmt.Fprintln(w)
	for _, name := range allWorkloads {
		fmt.Fprintf(w, "workload %-10s %s\n", name, workloadWhy[name])
	}
}

// printContract writes BENCHMARK.json from the table, so the contract
// file is regenerated, not edited, when a metric is added:
//
//	bash bench/run.sh -contract > BENCHMARK.json
func printContract(w io.Writer) error {
	type workloadRow struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	}
	type e2eRow struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	}
	type layerRow struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	}
	c := struct {
		Command    []string      `json:"command"`
		Paths      []string      `json:"paths"`
		RunSeconds int           `json:"run_seconds"`
		Workloads  []workloadRow `json:"workloads"`
		EndToEnd   []e2eRow      `json:"end_to_end"`
		PerLayer   []layerRow    `json:"per_layer"`
	}{
		Command:    []string{"bash", "bench/run.sh"},
		Paths:      []string{"bench"},
		RunSeconds: defaultSeconds,
	}
	for _, name := range allWorkloads {
		c.Workloads = append(c.Workloads, workloadRow{name, workloadWhy[name]})
	}
	for _, d := range metricTable {
		if d.E2E {
			c.EndToEnd = append(c.EndToEnd, e2eRow{d.Name, d.Unit, d.Better, d.Bound})
		} else {
			c.PerLayer = append(c.PerLayer, layerRow{d.Name, d.Unit, d.Better})
		}
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.SetEscapeHTML(false)
	return enc.Encode(c)
}

// Package exp implements one function per table and figure in the
// paper's evaluation (§6, §7): each runs the corresponding experiment
// on the simulated machine and returns a report.Table with the same
// rows/series the paper presents. cmd/benchtab, the root bench harness,
// and the EXPERIMENTS.md generator all drive this registry.
package exp

import (
	"fmt"
	"math"
	"sort"
	"sync/atomic"

	"repro/internal/cpu"
	"repro/internal/ir"
	"repro/internal/report"
	"repro/internal/rt"
	"repro/internal/sfi"
	"repro/internal/stats"
	"repro/internal/telemetry"
	"repro/internal/workloads"
)

// Measurement is one kernel execution's outcome.
type Measurement struct {
	Cycles       float64
	Nanos        float64
	Insts        uint64
	BytesFetched uint64
	CodeBytes    int
	Checksum     uint64
	Transitions  uint64
}

// simCycleBits accumulates simulated cycles across all measurements
// (float64 bits, CAS-updated so parallel cells can add concurrently).
var simCycleBits atomic.Uint64

func addSimCycles(c float64) {
	for {
		old := simCycleBits.Load()
		nw := math.Float64bits(math.Float64frombits(old) + c)
		if simCycleBits.CompareAndSwap(old, nw) {
			return
		}
	}
}

// TakeSimCycles returns the simulated cycles accumulated by all
// measurements since the last call, resetting the counter. The bench
// harness and cmd/benchtab report this next to wall-clock time.
func TakeSimCycles() float64 { return math.Float64frombits(simCycleBits.Swap(0)) }

// MeasureKernel compiles and runs a kernel under cfg with the given
// arguments, on a fresh instance. Compiled modules come from the
// rt compile cache (kernel names are unique across suites), so repeated
// measurements of one (kernel, config) cell skip recompilation;
// instances are always fresh and their machines indistinguishable from
// new ones (closing the instance hands the machine to the next cell),
// keeping cells independent.
func MeasureKernel(k workloads.Kernel, cfg sfi.Config, args []uint64) (Measurement, error) {
	native := cfg.Mode == sfi.ModeNative
	variant := native && k.PtrSensitive
	mod, err := rt.CompileModuleCached(
		rt.ModuleKey{Name: k.Name, Variant: variant, Cfg: cfg},
		func() *ir.Module { return k.Build(variant) })
	if err != nil {
		return Measurement{}, fmt.Errorf("exp: %s/%v: %w", k.Name, cfg.Mode, err)
	}
	inst, err := rt.NewInstance(mod, rt.InstanceOptions{FSGSBASE: true})
	if err != nil {
		return Measurement{}, err
	}
	defer inst.Close() // after every read of inst.Mach below
	res, err := inst.Invoke(k.Entry, args...)
	if err != nil {
		return Measurement{}, fmt.Errorf("exp: %s/%v: %w", k.Name, cfg.Mode, err)
	}
	addSimCycles(inst.Mach.Stats.Cycles)
	if telemetry.Enabled() {
		inst.Mach.Hier.PublishTo(telemetry.Default, "cpu")
	}
	m := Measurement{
		Cycles:       inst.Mach.Stats.Cycles,
		Nanos:        inst.Mach.Stats.Nanos(&inst.Mach.Cost),
		Insts:        inst.Mach.Stats.Insts,
		BytesFetched: inst.Mach.Stats.BytesFetched,
		CodeBytes:    mod.Prog.CodeBytes(),
		Transitions:  inst.Transitions,
	}
	if len(res) > 0 {
		m.Checksum = res[0]
	}
	return m, nil
}

// normalizedSuite measures every kernel of a suite under each config,
// normalizing cycles to the native baseline. Checksums are
// cross-checked between configurations (except for pointer-sensitive
// kernels, whose native build is a different program).
func normalizedSuite(suite workloads.Suite, configs []sfi.Config, names []string) (*report.Table, []map[string]float64, error) {
	return normalizedSuiteVs(suite, sfi.DefaultConfig(sfi.ModeNative), configs, names)
}

// normalizedSuiteVs is normalizedSuite with an explicit native baseline
// configuration (the WAMR experiments use a vectorizing native
// baseline, since clang vectorizes the same loops).
//
// Measurements fan out over the parallel engine; cells are laid out in
// serial execution order (per kernel: baseline, then each config) and
// results are collected in that order, so the table, the checksum
// cross-checks, and any reported error match a serial run exactly.
func normalizedSuiteVs(suite workloads.Suite, baseCfg sfi.Config, configs []sfi.Config, names []string) (*report.Table, []map[string]float64, error) {
	cells := make([]cell, 0, len(suite.Kernels)*(1+len(configs)))
	for _, k := range suite.Kernels {
		cells = append(cells, cell{k, baseCfg, k.Args})
		for _, cfg := range configs {
			cells = append(cells, cell{k, cfg, k.Args})
		}
	}
	ms, errs := measureCells(cells)

	t := &report.Table{Headers: append([]string{"benchmark"}, names...)}
	norms := make([]map[string]float64, len(configs))
	for i := range norms {
		norms[i] = map[string]float64{}
	}
	i := 0
	for _, k := range suite.Kernels {
		base, err := ms[i], errs[i]
		i++
		if err != nil {
			return nil, nil, err
		}
		row := []string{k.Name}
		for ci := range configs {
			m, err := ms[i], errs[i]
			i++
			if err != nil {
				return nil, nil, err
			}
			if !k.PtrSensitive && m.Checksum != base.Checksum {
				return nil, nil, fmt.Errorf("exp: %s under %s: checksum %#x != native %#x",
					k.Name, names[ci], m.Checksum, base.Checksum)
			}
			n := m.Cycles / base.Cycles
			norms[ci][k.Name] = n
			row = append(row, report.Norm(n))
		}
		t.Rows = append(t.Rows, row)
	}
	// Geomean row (sorted-key fold, so the float accumulation order is
	// deterministic).
	row := []string{"geomean"}
	for ci := range configs {
		row = append(row, report.Norm(geomeanOf(norms[ci])))
	}
	t.Rows = append(t.Rows, row)
	return t, norms, nil
}

func geomeanOf(m map[string]float64) float64 {
	var vals []float64
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		vals = append(vals, m[k])
	}
	return stats.Geomean(vals)
}

// overheadEliminated reports what fraction of the baseline's overhead
// versus native an optimization removes: (base - opt) / (base - 1).
func overheadEliminated(base, opt float64) float64 {
	if base <= 1 {
		return 0
	}
	return (base - opt) / (base - 1)
}

// Experiment ties a paper artifact to its runner.
type Experiment struct {
	ID    string
	Title string
	Run   func() (*report.Table, error)
}

// All returns the experiment registry in paper order.
func All() []Experiment {
	return []Experiment{
		{"fig1", "Segue code generation on the Figure 1 patterns", Fig1Patterns},
		{"fig3", "SPEC CPU 2006 on Wasm2c, normalized to native (Figure 3)", Fig3SpecWasm2c},
		{"boundsnote", "Segue under explicit bounds checks (§6.1 note)", BoundsCheckSegue},
		{"table2", "Compiled binary sizes, SPEC CPU 2006 (Table 2)", Table2BinarySize},
		{"firefox-font", "Firefox font rendering (§6.1)", FirefoxFont},
		{"firefox-xml", "Firefox XML parsing (§6.1)", FirefoxXML},
		{"fig4", "Sightglass on WAMR (Figure 4)", Fig4SightglassWAMR},
		{"polybench", "PolybenchC on WAMR (§6.2)", PolybenchWAMR},
		{"dhrystone", "Dhrystone on WAMR (§6.2)", DhrystoneWAMR},
		{"fig5", "SPEC CPU 2017 on LFI, normalized to native (Figure 5)", Fig5SpecLFI},
		{"transition", "Transition cost microbenchmark (§6.4.1)", TransitionCost},
		{"transitions", "Transition schemes across isolation backends", TransitionSchemes},
		{"attribution", "Per-request latency attribution by phase", Attribution},
		{"scaling", "Slot-scaling microbenchmark (§6.4.2)", ScalingSlots},
		{"fig6", "ColorGuard vs multiprocess throughput (Figure 6)", Fig6Throughput},
		{"fig7a", "Context switches (Figure 7a)", Fig7aContextSwitches},
		{"fig7b", "dTLB misses (Figure 7b)", Fig7bDTLBMisses},
		{"table1", "Allocator-layout verification (Table 1 / §5.2)", Table1Verification},
		{"mte", "ColorGuard on ARM MTE (§7)", MTEObservations},
		{"backend-matrix", "Isolation-backend cost and density matrix", BackendMatrix},
		{"hardening", "Spectre-hardening tax across SFI modes and backends (Swivel)", SwivelHardening},
		{"faultsweep", "Fault injection and graceful degradation by backend", FaultSweep},
		{"ablation-segue", "Ablation: decomposing Segue's benefits", AblationSegueParts},
		{"ablation-guards", "Ablation: guard geometry vs density", AblationGuardGeometry},
		{"ablation-stripes", "Ablation: stripe count vs slot density", AblationStripeCount},
		{"ablation-fsgsbase", "Ablation: FSGSBASE vs syscall segment writes", AblationFSGSBASE},
	}
}

// ByID returns the experiment with the given id.
func ByID(id string) (Experiment, bool) {
	for _, e := range All() {
		if e.ID == id {
			return e, true
		}
	}
	return Experiment{}, false
}

// instanceStats is a helper for experiments needing machine counters
// beyond MeasureKernel's summary.
func runOnInstance(k workloads.Kernel, cfg sfi.Config, opts rt.InstanceOptions, args []uint64) (*rt.Instance, error) {
	mod, err := rt.CompileModuleCached(
		rt.ModuleKey{Name: k.Name, Cfg: cfg},
		func() *ir.Module { return k.Build(false) })
	if err != nil {
		return nil, err
	}
	inst, err := rt.NewInstance(mod, opts)
	if err != nil {
		return nil, err
	}
	if _, err := inst.Invoke(k.Entry, args...); err != nil {
		return nil, err
	}
	addSimCycles(inst.Mach.Stats.Cycles)
	return inst, nil
}

var _ = cpu.DefaultCostModel // keep cpu linked for cost constants used across files

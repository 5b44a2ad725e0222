// Package repro's root bench harness maps every table and figure of the
// paper's evaluation to a testing.B benchmark. Each benchmark runs the
// corresponding experiment (internal/exp) on the simulated machine and
// prints the same rows the paper reports; reported metrics summarize
// the headline numbers.
//
// Run everything with:
//
//	go test -bench=. -benchmem
//
// The SPEC-suite figures take tens of seconds each; cmd/benchtab runs
// the same experiments with finer selection.
package repro

import (
	"flag"
	"fmt"
	"os"
	"sync"
	"testing"
	"time"

	"repro/internal/cpu"
	"repro/internal/exp"
	"repro/internal/ir"
	"repro/internal/rt"
	"repro/internal/sfi"
	"repro/internal/telemetry"
	"repro/internal/workloads"
)

// -j sets the experiment engine's worker count (0 = all CPUs), e.g.
// go test -bench=Fig3 -j 4
var parallelFlag = flag.Int("j", 0, "experiment engine parallelism (0 = NumCPU)")

// opts is the configuration every benchmark runs under, set by TestMain.
var opts exp.Options

func TestMain(m *testing.M) {
	flag.Parse()
	opts.Jobs = *parallelFlag
	// REPRO_TIER selects the execution tier for every machine: slow (the
	// differential-testing oracle), fast (predecoded), or fused (the
	// default, profile-guided superinstructions) — for before/after
	// comparisons. REPRO_SLOWPATH=1 is the legacy spelling of
	// REPRO_TIER=slow.
	if s := os.Getenv("REPRO_TIER"); s != "" {
		tier, err := cpu.ParseTier(s)
		if err != nil {
			fmt.Fprintf(os.Stderr, "REPRO_TIER: %v\n", err)
			os.Exit(2)
		}
		opts.Tier = tier
	} else if os.Getenv("REPRO_SLOWPATH") != "" {
		opts.Tier = cpu.TierSlow
	}
	os.Exit(m.Run())
}

// expResult is one experiment's measured cost: the experiments are
// deterministic, so each runs exactly once per process and the result
// is cached for repeat benchmark iterations.
type expResult struct {
	text      string
	wallSecs  float64
	simCycles float64
}

var expCache sync.Map

// runExperiment executes the experiment once, prints its table exactly
// once, and reports the real per-run cost via metrics — wall-clock
// seconds and simulated cycles — instead of timing b.N cache-hit
// iterations that do no work.
func runExperiment(b *testing.B, id string) {
	b.Helper()
	e, ok := exp.ByID(id)
	if !ok {
		b.Fatalf("unknown experiment %q", id)
	}
	v, ok := expCache.Load(id)
	if !ok {
		exp.TakeSimCycles() // exclude cycles other experiments accumulated
		start := time.Now()
		t, err := e.Run(opts)
		if err != nil {
			b.Fatalf("%s: %v", id, err)
		}
		r := expResult{
			text:      t.Text(),
			wallSecs:  time.Since(start).Seconds(),
			simCycles: exp.TakeSimCycles(),
		}
		fmt.Println()
		fmt.Print(r.text)
		v, _ = expCache.LoadOrStore(id, r)
	}
	r := v.(expResult)
	b.ReportMetric(r.wallSecs, "wall-s/exp")
	b.ReportMetric(r.simCycles, "sim-cycles/exp")
	// b.N iterations did no additional work; zero the meaningless ns/op.
	b.ReportMetric(0, "ns/op")
}

// --- Segue (§6.1–§6.3) ---

func BenchmarkFig1Patterns(b *testing.B)       { runExperiment(b, "fig1") }
func BenchmarkFig3SpecWasm2c(b *testing.B)     { runExperiment(b, "fig3") }
func BenchmarkBoundsCheckSegue(b *testing.B)   { runExperiment(b, "boundsnote") }
func BenchmarkTable2BinarySize(b *testing.B)   { runExperiment(b, "table2") }
func BenchmarkFirefoxFont(b *testing.B)        { runExperiment(b, "firefox-font") }
func BenchmarkFirefoxXML(b *testing.B)         { runExperiment(b, "firefox-xml") }
func BenchmarkFig4SightglassWAMR(b *testing.B) { runExperiment(b, "fig4") }
func BenchmarkPolybenchWAMR(b *testing.B)      { runExperiment(b, "polybench") }
func BenchmarkDhrystoneWAMR(b *testing.B)      { runExperiment(b, "dhrystone") }
func BenchmarkFig5SpecLFI(b *testing.B)        { runExperiment(b, "fig5") }

// --- ColorGuard (§6.4, §5.2, §7) ---

func BenchmarkTransitionCost(b *testing.B)       { runExperiment(b, "transition") }
func BenchmarkScalingSlots(b *testing.B)         { runExperiment(b, "scaling") }
func BenchmarkFig6FaasThroughput(b *testing.B)   { runExperiment(b, "fig6") }
func BenchmarkFig7aContextSwitches(b *testing.B) { runExperiment(b, "fig7a") }
func BenchmarkFig7bDTLBMisses(b *testing.B)      { runExperiment(b, "fig7b") }
func BenchmarkTable1Verification(b *testing.B)   { runExperiment(b, "table1") }
func BenchmarkMTEInitTeardown(b *testing.B)      { runExperiment(b, "mte") }

// --- Ablations (DESIGN.md design choices) ---

func BenchmarkAblationSegueParts(b *testing.B)    { runExperiment(b, "ablation-segue") }
func BenchmarkAblationGuardGeometry(b *testing.B) { runExperiment(b, "ablation-guards") }
func BenchmarkAblationStripeCount(b *testing.B)   { runExperiment(b, "ablation-stripes") }
func BenchmarkAblationFSGSBASE(b *testing.B)      { runExperiment(b, "ablation-fsgsbase") }

// --- True throughput benchmarks of the substrate itself ---

// BenchmarkCompileSieve measures SFI compilation speed.
func BenchmarkCompileSieve(b *testing.B) {
	k, err := workloads.Sightglass().Find("sieve")
	if err != nil {
		b.Fatal(err)
	}
	m := k.Build(false)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := sfi.Compile(m, sfi.DefaultConfig(sfi.ModeSegue)); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkEmulator measures simulated-instruction throughput.
func BenchmarkEmulator(b *testing.B) {
	k, err := workloads.Sightglass().Find("seqhash")
	if err != nil {
		b.Fatal(err)
	}
	mod, err := rt.CompileModule(k.Build(false), sfi.DefaultConfig(sfi.ModeSegue))
	if err != nil {
		b.Fatal(err)
	}
	inst, err := rt.NewInstance(mod, rt.InstanceOptions{FSGSBASE: true})
	if err != nil {
		b.Fatal(err)
	}
	inst.Mach.Tier = opts.Tier
	b.ResetTimer()
	var before uint64
	for i := 0; i < b.N; i++ {
		if _, err := inst.Invoke("run", 10000); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(inst.Mach.Stats.Insts-before)/float64(b.N), "sim-insts/op")
}

// benchEmulatorTelemetry is BenchmarkEmulator with the telemetry state
// pinned. Comparing the Off and On variants bounds what the
// instrumentation costs the dispatch loop: Off must stay within the
// noise of BenchmarkEmulator (the gate is one atomic load per Run), and
// On pays only per-Run counter updates, never per-instruction work.
func benchEmulatorTelemetry(b *testing.B, on bool) {
	prev := telemetry.Enabled()
	telemetry.SetEnabled(on)
	defer telemetry.SetEnabled(prev)
	k, err := workloads.Sightglass().Find("seqhash")
	if err != nil {
		b.Fatal(err)
	}
	mod, err := rt.CompileModule(k.Build(false), sfi.DefaultConfig(sfi.ModeSegue))
	if err != nil {
		b.Fatal(err)
	}
	inst, err := rt.NewInstance(mod, rt.InstanceOptions{FSGSBASE: true})
	if err != nil {
		b.Fatal(err)
	}
	inst.Mach.Tier = opts.Tier
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := inst.Invoke("run", 10000); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkEmulatorTelemetryOff(b *testing.B) { benchEmulatorTelemetry(b, false) }
func BenchmarkEmulatorTelemetryOn(b *testing.B)  { benchEmulatorTelemetry(b, true) }

// BenchmarkInterp measures reference-interpreter throughput, for the
// differential-testing cost picture.
func BenchmarkInterp(b *testing.B) {
	k, err := workloads.Sightglass().Find("seqhash")
	if err != nil {
		b.Fatal(err)
	}
	interp, err := ir.NewInterp(k.Build(false), nil)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := interp.Invoke("run", 10000); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkInstantiate measures sandbox creation cost (the paper's
// microseconds-scale instantiation claim, §2).
func BenchmarkInstantiate(b *testing.B) {
	m := ir.NewModule("inst", 1, 1)
	fb := m.NewFunc("f", ir.Sig(nil, []ir.ValType{ir.I32}))
	fb.I32(1)
	fb.MustBuild()
	m.MustExport("f")
	mod, err := rt.CompileModule(m, sfi.DefaultConfig(sfi.ModeSegue))
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := rt.NewInstance(mod, rt.InstanceOptions{FSGSBASE: true}); err != nil {
			b.Fatal(err)
		}
	}
}

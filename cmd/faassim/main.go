// Command faassim runs the §6.4.3 FaaS scaling simulation with
// adjustable parameters: ColorGuard single-process versus N-process
// scaling on a single core.
//
// Usage:
//
//	faassim                          # sweep 1..15 processes, all handlers
//	faassim -procs 8 -handler regex-filtering
//	faassim -compute 50000 -pages 64 -arrivals 60
//	faassim -backend mte -coldstart  # §7: per-request lifecycle costs
//	faassim -scheme zerocost         # near-zero-cost transitions
//	faassim -faultrate 0.05 -retries 4 -timeout 100 -shed 512
//
// The last form arms deterministic fault injection (internal/fault):
// the base rate is scaled into each backend's characteristic fault mix,
// and the degradation policies — retry with backoff, a per-request
// deadline, bounded-queue admission control, and a circuit breaker —
// govern how the platform sheds the damage. Armed runs print fail%
// columns (shed + failed + timed-out as a share of offered load).
package main

import (
	"flag"
	"fmt"
	"os"

	"repro/internal/exp"
	"repro/internal/faas"
	"repro/internal/fault"
	"repro/internal/isolation"
	"repro/internal/sfi"
	"repro/internal/telemetry"
	"repro/internal/workloads"
)

func main() {
	handler := flag.String("handler", "", "handler kernel (default: all three)")
	procs := flag.Int("procs", 0, "multiprocess process count (default: sweep 1..15)")
	computeNs := flag.Float64("compute", 0, "override per-request compute ns (default: measure the kernel)")
	pages := flag.Int("pages", 48, "instance pages touched per request")
	arrivals := flag.Int("arrivals", 40, "request arrivals per 1 ms epoch")
	duration := flag.Float64("seconds", 2, "simulated seconds")
	backend := flag.String("backend", "", "isolation backend replacing the default colorguard side (guardpage, colorguard, mte, multiproc)")
	scheme := flag.String("scheme", "", "transition scheme for both sides (default, zerocost, onestack, trampoline)")
	hardenFlag := flag.String("harden", "none", "Spectre hardening for the measured kernels (none, swivel-sfi, swivel-cet, deterministic)")
	coldStart := flag.Bool("coldstart", false, "fresh instance per request: charge the backend's init/teardown costs (§7)")
	instanceKB := flag.Uint64("instancekb", 64, "linear-memory KiB the cold-start lifecycle costs are charged on")
	preserveTags := flag.Bool("preservetags", false, "model the tag-preserving madvise (mte backend only)")
	latency := flag.Bool("latency", false, "record per-request latency and print p50/p95/p99 columns")
	phases := flag.Bool("phases", false, "attribute virtual time to request phases and print the mean per-phase breakdown per row")
	faultRate := flag.Float64("faultrate", 0, "base per-request fault rate, scaled into each backend's fault mix (0 = no injection)")
	faultSeed := flag.Uint64("faultseed", 1789, "fault-injector RNG seed (independent of the simulation seed)")
	timeoutMs := flag.Float64("timeout", 0, "per-request deadline in virtual ms (0 = none)")
	retries := flag.Int("retries", 1, "attempt budget per request under faults (1 = no retries)")
	shed := flag.Int("shed", 0, "admission queue limit; arrivals beyond it are shed (0 = unbounded)")
	tele := telemetry.RegisterFlags(flag.CommandLine)
	flag.Parse()
	if err := validate(*backend, *faultRate, *duration, *computeNs, *timeoutMs,
		*retries, *arrivals, *procs, *pages, *shed, *instanceKB); err != nil {
		fmt.Fprintln(os.Stderr, "faassim:", err)
		os.Exit(2)
	}
	if err := tele.Start(); err != nil {
		fmt.Fprintln(os.Stderr, "faassim:", err)
		os.Exit(1)
	}

	kind := isolation.ColorGuard
	if *backend != "" {
		kind = isolation.Kind(*backend)
	}
	sch, err := isolation.ParseScheme(*scheme)
	if err != nil {
		fmt.Fprintf(os.Stderr, "faassim: -scheme %s: %v\n", *scheme, err)
		os.Exit(2)
	}
	harden, err := sfi.ParseHarden(*hardenFlag)
	if err != nil {
		fmt.Fprintf(os.Stderr, "faassim: -harden %s: %v\n", *hardenFlag, err)
		os.Exit(2)
	}

	// Any armed knob turns the fault machinery on for both sides of the
	// comparison; faultConfig scales the base rate into each backend's
	// characteristic mix.
	faultsOn := *faultRate > 0 || *timeoutMs > 0 || *retries > 1 || *shed > 0
	faultConfig := func(kind isolation.Kind) fault.Config {
		if !faultsOn {
			return fault.Config{}
		}
		return fault.Config{
			Seed:        *faultSeed,
			Rates:       fault.RatesFor(string(kind), *faultRate),
			MaxAttempts: *retries,
			Retry:       fault.Backoff{BaseNs: 200_000, Factor: 2, MaxNs: 8e6},
			TimeoutNs:   *timeoutMs * 1e6,
			QueueLimit:  *shed,
			Breaker:     fault.BreakerConfig{FailureThreshold: 64, OpenNs: 5e6},
		}
	}
	failPct := func(r faas.Result) float64 {
		return 100 * float64(r.Shed+r.Failed+r.TimedOut) / float64(r.Offered)
	}

	names := []string{"html-templating", "hash-load-balance", "regex-filtering"}
	if *handler != "" {
		names = []string{*handler}
	}
	for _, name := range names {
		w, err := buildWorkload(name, *computeNs, *pages, harden)
		if err != nil {
			fmt.Fprintln(os.Stderr, "faassim:", err)
			os.Exit(1)
		}
		fmt.Printf("== %s: compute %.1f µs/request, %d pages ==\n", w.Name, w.ComputeNs/1e3, w.Pages)
		fmt.Printf("%-6s  %-12s  %-12s  %-8s  %-14s  %-12s",
			"procs", "mp rps", shortName(kind)+" rps", "gain", "mp switches", "mp dtlb")
		if faultsOn {
			fmt.Printf("  %-9s  %-9s", shortName(kind)+" fail%", "mp fail%")
		}
		if *latency {
			fmt.Printf("  %-10s  %-10s  %-10s", "cg p50 ms", "cg p95 ms", "cg p99 ms")
		}
		fmt.Println()
		ns := []int{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15}
		if *procs > 0 {
			ns = []int{*procs}
		}
		for _, n := range ns {
			cgCfg := faas.KindConfig(w, kind, 1)
			mpCfg := faas.KindConfig(w, isolation.MultiProc, n)
			cgCfg.PreserveTags = *preserveTags
			cgCfg.Faults = faultConfig(kind)
			mpCfg.Faults = faultConfig(isolation.MultiProc)
			for _, cfg := range []*faas.Config{&cgCfg, &mpCfg} {
				cfg.Scheme = sch
				cfg.ArrivalsPerEpoch = *arrivals
				cfg.DurationNs = *duration * 1e9
				cfg.ColdStart = *coldStart
				cfg.InstanceBytes = *instanceKB << 10
				cfg.RecordLatency = *latency
				cfg.RecordPhases = *phases
			}
			cg := faas.Run(cgCfg)
			mp := faas.Run(mpCfg)
			gain := (cg.ThroughputRPS/mp.ThroughputRPS - 1) * 100
			fmt.Printf("%-6d  %-12.0f  %-12.0f  %+.1f%%   %-14d  %-12d",
				n, mp.ThroughputRPS, cg.ThroughputRPS, gain, mp.CtxSwitches, mp.DTLBMisses)
			if faultsOn {
				fmt.Printf("  %-9.2f  %-9.2f", failPct(cg), failPct(mp))
			}
			if *latency {
				fmt.Printf("  %-10.2f  %-10.2f  %-10.2f",
					cg.LatencyP50Ns/1e6, cg.LatencyP95Ns/1e6, cg.LatencyP99Ns/1e6)
			}
			fmt.Println()
			if *phases {
				printPhases(shortName(kind), cg)
				printPhases("mp", mp)
			}
		}
		fmt.Println()
	}
	if err := tele.Finish(); err != nil {
		fmt.Fprintln(os.Stderr, "faassim:", err)
		os.Exit(1)
	}
}

// validate rejects out-of-range flag values before any simulation work
// starts, exiting with the conventional usage-error code 2. Zero keeps
// a knob's "off"/"default" meaning where one exists; everything else
// must land in the knob's meaningful range.
func validate(backend string, faultRate, seconds, computeNs, timeoutMs float64,
	retries, arrivals, procs, pages, shed int, instanceKB uint64) error {
	if backend != "" {
		found := false
		for _, k := range isolation.Kinds() {
			if k == isolation.Kind(backend) {
				found = true
			}
		}
		if !found {
			return fmt.Errorf("unknown backend %q (want one of %v)", backend, isolation.Kinds())
		}
	}
	switch {
	case faultRate < 0 || faultRate > 1:
		return fmt.Errorf("-faultrate %g: a probability must be in [0, 1]", faultRate)
	case retries < 1:
		return fmt.Errorf("-retries %d: the attempt budget must be >= 1 (1 = no retries)", retries)
	case seconds <= 0:
		return fmt.Errorf("-seconds %g: simulated duration must be positive", seconds)
	case arrivals < 1:
		return fmt.Errorf("-arrivals %d: must be >= 1 request per epoch", arrivals)
	case procs < 0:
		return fmt.Errorf("-procs %d: must be >= 1 (or 0 to sweep 1..15)", procs)
	case pages < 1:
		return fmt.Errorf("-pages %d: an instance touches at least one page", pages)
	case computeNs < 0:
		return fmt.Errorf("-compute %g: must be >= 0 (0 = measure the kernel)", computeNs)
	case timeoutMs < 0:
		return fmt.Errorf("-timeout %g: must be >= 0 (0 = no deadline)", timeoutMs)
	case shed < 0:
		return fmt.Errorf("-shed %d: must be >= 0 (0 = unbounded queue)", shed)
	case instanceKB < 1:
		return fmt.Errorf("-instancekb %d: the lifecycle charge needs at least 1 KiB", instanceKB)
	}
	return nil
}

// printPhases prints one side's mean virtual-time phase breakdown per
// completed request (-phases).
func printPhases(label string, r faas.Result) {
	if r.Completed == 0 {
		return
	}
	n := float64(r.Completed)
	fmt.Printf("        %s phases (µs/req):", label)
	names := telemetry.PhaseNames()
	for p, total := range r.PhaseTotalsNs {
		if total > 0 {
			fmt.Printf(" %s %.2f", names[p], total/n/1e3)
		}
	}
	fmt.Println()
}

// shortName abbreviates a backend kind for the table header.
func shortName(kind isolation.Kind) string {
	switch kind {
	case isolation.ColorGuard:
		return "cg"
	case isolation.GuardPage:
		return "gp"
	case isolation.MultiProc:
		return "mp"
	}
	return string(kind)
}

func buildWorkload(name string, computeNs float64, pages int, harden sfi.Harden) (faas.Workload, error) {
	if computeNs > 0 {
		return faas.Workload{Name: name, ComputeNs: computeNs, Pages: pages}, nil
	}
	batches := map[string]uint64{
		"html-templating":   10,
		"hash-load-balance": 256,
		"regex-filtering":   280,
	}
	batch, ok := batches[name]
	if !ok {
		return faas.Workload{}, fmt.Errorf("unknown handler %q", name)
	}
	k, err := workloads.FaaS().Find(name)
	if err != nil {
		return faas.Workload{}, err
	}
	cfg := sfi.DefaultConfig(sfi.ModeSegue)
	cfg.Harden = harden
	m, err := exp.Options{}.MeasureKernel(k, cfg, []uint64{batch})
	if err != nil {
		return faas.Workload{}, err
	}
	return faas.Workload{Name: name, ComputeNs: m.Nanos, Pages: pages}, nil
}

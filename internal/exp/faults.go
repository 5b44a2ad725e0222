package exp

import (
	"fmt"

	"repro/internal/faas"
	"repro/internal/fault"
	"repro/internal/isolation"
	"repro/internal/report"
)

// FaultSweep runs the fault-injection and graceful-degradation
// experiment: a fixed synthetic FaaS workload simulated under each
// isolation backend while the base per-request fault rate sweeps from
// zero to 10%. Every cell runs the same degradation policy stack —
// retry with exponential backoff, a per-request deadline, a bounded
// admission queue, and a circuit breaker — so the columns isolate how
// each backend's characteristic fault mix (fault.RatesFor) erodes
// goodput as conditions worsen.
//
// The rate-0 row runs with the machinery armed but nothing able to
// fire; its throughput must match the clean simulator exactly, which
// is the inertness property TestGoldenTablesWithFaultsOff pins across
// the whole golden set.
func (o Options) FaultSweep() (*report.Table, error) {
	// Synthetic per-request cost: no emulator measurement, so the sweep
	// is cheap and the golden depends only on the simulator and the
	// isolation cost models.
	w := faas.Workload{Name: "synthetic", ComputeNs: 30_000, Pages: 48}

	backends := []struct {
		name  string
		kind  isolation.Kind
		procs int
	}{
		{"guardpage", isolation.GuardPage, 1},
		{"colorguard", isolation.ColorGuard, 1},
		{"multiproc(8)", isolation.MultiProc, 8},
	}
	rates := []float64{0, 0.005, 0.01, 0.02, 0.05, 0.1, 0.2}

	t := &report.Table{
		ID: "faultsweep", Title: "Graceful degradation under injected faults (per-backend fault mixes)",
		Headers: []string{"fault rate"},
		Notes: []string{
			"synthetic workload, cold-start instances; policies: 4 attempts, exp backoff, 100 ms deadline, queue limit 512, breaker 64/5 ms",
			"rps: completed requests per simulated second; fail%: shed+failed+timed-out as a share of offered load",
			"rate 0 runs with the fault machinery armed and must match the clean simulator",
		},
	}
	for _, b := range backends {
		t.Headers = append(t.Headers, b.name+" rps", b.name+" fail%")
	}

	rows, errs := parallelMap(o, rates, func(rate float64) ([]string, error) {
		row := []string{fmt.Sprintf("%.3f", rate)}
		for _, b := range backends {
			cfg := faas.KindConfig(w, b.kind, b.procs)
			cfg.Scheme = o.Scheme
			cfg.ColdStart = true
			cfg.InstanceBytes = 64 << 10
			cfg.ArrivalsPerEpoch = 5
			cfg.Faults = fault.Config{
				Seed:        1789,
				Rates:       fault.RatesFor(string(b.kind), rate),
				MaxAttempts: 4,
				Retry:       fault.Backoff{BaseNs: 200_000, Factor: 2, MaxNs: 8e6},
				TimeoutNs:   100e6,
				QueueLimit:  512,
				Breaker:     fault.BreakerConfig{FailureThreshold: 64, OpenNs: 5e6},
			}
			r := o.simulate(cfg)
			failPct := 100 * float64(r.Shed+r.Failed+r.TimedOut) / float64(r.Offered)
			row = append(row, fmt.Sprintf("%.0f", r.ThroughputRPS), fmt.Sprintf("%.2f", failPct))
		}
		return row, nil
	})
	if err := firstErr(errs); err != nil {
		return nil, err
	}
	t.Rows = append(t.Rows, rows...)
	return t, nil
}

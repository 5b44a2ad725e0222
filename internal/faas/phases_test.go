package faas

import (
	"math"
	"testing"

	"repro/internal/fault"
	"repro/internal/isolation"
	"repro/internal/telemetry"
)

// TestPhaseSumConservation pins the attribution invariant in virtual
// time: for every completed request, across every backend × scheme
// combination, the per-phase durations sum to the request's
// arrival-to-completion latency within float rounding.
func TestPhaseSumConservation(t *testing.T) {
	w := Workload{Name: "synthetic", ComputeNs: 5_000, Pages: 16}
	for _, kind := range isolation.Kinds() {
		for _, scheme := range isolation.Schemes() {
			kind, scheme := kind, scheme
			t.Run(string(kind)+"/"+string(scheme), func(t *testing.T) {
				procs := 1
				if kind == isolation.MultiProc {
					procs = 4
				}
				cfg := KindConfig(w, kind, procs)
				cfg.Scheme = scheme
				cfg.DurationNs = 0.2e9
				cfg.ColdStart = true
				cfg.InstanceBytes = 64 << 10
				cfg.RecordLatency = true
				cfg.RecordPhases = true
				res := Run(cfg)
				checkConservation(t, res)
			})
		}
	}
}

// TestPhaseSumConservationUnderFaults extends conservation to the
// degraded paths: retries, backoff windows, poisoned partial compute —
// every retried request's extra virtual time still lands in a phase.
func TestPhaseSumConservationUnderFaults(t *testing.T) {
	w := Workload{Name: "synthetic", ComputeNs: 20_000, Pages: 16}
	cfg := KindConfig(w, isolation.ColorGuard, 1)
	cfg.DurationNs = 0.3e9
	cfg.RecordLatency = true
	cfg.RecordPhases = true
	cfg.Faults = fault.Config{
		Seed:        99,
		Rates:       fault.RatesFor("colorguard", 0.05),
		MaxAttempts: 4,
		Retry:       fault.Backoff{BaseNs: 200_000, Factor: 2, MaxNs: 8e6},
	}
	res := Run(cfg)
	if res.Retried == 0 {
		t.Fatal("fault config produced no retries; conservation under retries untested")
	}
	checkConservation(t, res)
}

func checkConservation(t *testing.T, res Result) {
	t.Helper()
	if res.Completed == 0 {
		t.Fatal("no completed requests")
	}
	if len(res.PhaseBreakdown) != len(res.Latencies) {
		t.Fatalf("%d phase rows vs %d latencies", len(res.PhaseBreakdown), len(res.Latencies))
	}
	for i, phases := range res.PhaseBreakdown {
		var sum float64
		for _, d := range phases {
			sum += d
		}
		lat := res.Latencies[i]
		if tol := 1e-6 * math.Max(lat, 1); math.Abs(sum-lat) > tol {
			t.Fatalf("request %d: phase sum %.6f ns != latency %.6f ns (diff %g)",
				i, sum, lat, sum-lat)
		}
	}
	// The totals are the column sums of the breakdown.
	var totals [telemetry.NumPhases]float64
	for _, phases := range res.PhaseBreakdown {
		for p, d := range phases {
			totals[p] += d
		}
	}
	for p := range totals {
		if math.Abs(totals[p]-res.PhaseTotalsNs[p]) > 1e-3 {
			t.Fatalf("phase %s: totals %.3f != breakdown column sum %.3f",
				telemetry.Phase(p), res.PhaseTotalsNs[p], totals[p])
		}
	}
}

// TestPhaseRecordingInert proves the bookkeeping never perturbs the
// simulation: an identical config with RecordPhases on and off produces
// identical scheduling outcomes.
func TestPhaseRecordingInert(t *testing.T) {
	w := Workload{Name: "synthetic", ComputeNs: 8_000, Pages: 32}
	base := KindConfig(w, isolation.MultiProc, 6)
	base.DurationNs = 0.3e9
	base.RecordLatency = true

	off := Run(base)
	withPhases := base
	withPhases.RecordPhases = true
	on := Run(withPhases)

	// Strip the phase fields; everything else must match exactly.
	on.PhaseTotalsNs = [telemetry.NumPhases]float64{}
	on.PhaseBreakdown = nil
	if off.Completed != on.Completed || off.ThroughputRPS != on.ThroughputRPS ||
		off.CtxSwitches != on.CtxSwitches || off.DTLBMisses != on.DTLBMisses ||
		off.LatencyP99Ns != on.LatencyP99Ns {
		t.Fatalf("phase recording perturbed the run:\noff %+v\non  %+v", off, on)
	}
	// The process-wide spans switch arms the same paths.
	telemetry.SetSpansEnabled(true)
	defer telemetry.SetSpansEnabled(false)
	armed := Run(base)
	armed.PhaseTotalsNs = [telemetry.NumPhases]float64{}
	armed.PhaseBreakdown = nil
	if off.Completed != armed.Completed || off.ThroughputRPS != armed.ThroughputRPS ||
		off.LatencyP99Ns != armed.LatencyP99Ns {
		t.Fatalf("SpansEnabled perturbed the run:\noff   %+v\narmed %+v", off, armed)
	}
}

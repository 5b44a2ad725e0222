package faas

import (
	"testing"

	"repro/internal/isolation"
)

// TestSchemeRunThroughput: under a saturating load of small requests, a
// cheaper transition scheme strictly raises simulated throughput on
// every same-process backend, and the ordering of schemes by convention
// cost is the reverse ordering by throughput.
func TestSchemeRunThroughput(t *testing.T) {
	w := Workload{Name: "tiny", ComputeNs: 2_000, Pages: 8}
	run := func(s isolation.Scheme, kind isolation.Kind) float64 {
		cfg := KindConfig(w, kind, 1)
		cfg.Scheme = s
		cfg.ArrivalsPerEpoch = 600
		cfg.DurationNs = 0.2e9
		return Run(cfg).ThroughputRPS
	}
	for _, kind := range []isolation.Kind{isolation.GuardPage, isolation.ColorGuard, isolation.MTE} {
		zc := run(isolation.SchemeZeroCost, kind)
		def := run(isolation.SchemeDefault, kind)
		tr := run(isolation.SchemeTrampoline, kind)
		if !(zc > def && def > tr) {
			t.Errorf("%s: want zerocost > default > trampoline rps, got %.0f, %.0f, %.0f", kind, zc, def, tr)
		}
	}
}

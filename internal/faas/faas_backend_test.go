package faas

import (
	"testing"

	"repro/internal/isolation"
)

var diffWorkload = Workload{Name: "w", ComputeNs: 30_000, Pages: 48}

// TestColdStartOrdersBackends: with a fresh instance per request, the
// §7 lifecycle costs separate the mechanisms — MTE without the
// preserving madvise pays full re-tagging and clearing per request and
// must complete the fewest requests; the fix recovers most of the gap;
// warm instances beat both.
func TestColdStartOrdersBackends(t *testing.T) {
	mkCfg := func(preserve bool) Config {
		cfg := KindConfig(diffWorkload, isolation.MTE, 1)
		cfg.PreserveTags = preserve
		cfg.ColdStart = true
		cfg.InstanceBytes = 64 << 10
		return cfg
	}
	warm := Run(KindConfig(diffWorkload, isolation.MTE, 1))
	coldFix := Run(mkCfg(true))
	cold := Run(mkCfg(false))
	if cold.LifecycleNs <= 0 || coldFix.LifecycleNs <= 0 {
		t.Fatalf("cold starts charged no lifecycle time: %v / %v", cold.LifecycleNs, coldFix.LifecycleNs)
	}
	if warm.LifecycleNs != 0 {
		t.Fatalf("warm run charged lifecycle time: %v", warm.LifecycleNs)
	}
	if !(cold.Completed < coldFix.Completed && coldFix.Completed < warm.Completed) {
		t.Fatalf("completed ordering: cold %d, cold+fix %d, warm %d — want strictly increasing",
			cold.Completed, coldFix.Completed, warm.Completed)
	}
	// Per-request lifecycle gap matches the §7 per-instance numbers:
	// cold pays init+teardown with tagging, the fix pays base costs.
	perReqCold := isolation.LifecycleFor(isolation.MTE, false)
	perReqFix := isolation.LifecycleFor(isolation.MTE, true)
	if perReqCold.InitNs(64<<10, true) <= perReqFix.InitNs(64<<10, false) {
		t.Fatal("cost model inversion")
	}
}

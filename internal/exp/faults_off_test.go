package exp

import (
	"testing"

	"repro/internal/fault"
)

// TestGoldenTablesWithFaultsOff is the hard constraint of the fault
// layer: with the fault machinery armed for every simulation —
// injector constructed, breaker consulted, every fault branch in
// faas.Run executing — but no rate or policy able to fire, the
// experiment tables are still byte-identical to the goldens. This is
// stronger than leaving Config.Faults zero (which skips the branches
// entirely): it proves the wired paths themselves are inert when idle.
func TestGoldenTablesWithFaultsOff(t *testing.T) {
	o := Options{Faults: fault.Config{
		Seed:        4242,
		MaxAttempts: 3,
		Retry:       fault.Backoff{BaseNs: 1e6, Factor: 2, MaxNs: 1e8},
	}}

	// transition/scaling/mte pin the non-FaaS tables; faultsweep arms
	// its own explicit configs, which o.Faults must not override. fig7b
	// is the full FaaS sweep whose Configs carry a zero Faults field, so
	// o.Faults applies to every one of its runs — it is the table that
	// would move if an idle fault branch leaked cost. As in
	// the telemetry variant, the -race leg keeps the cheap tables only.
	ids := []string{"transition", "scaling", "mte", "faultsweep"}
	if !raceEnabled {
		ids = append(ids, "fig7b")
	}
	for _, id := range ids {
		id := id
		t.Run(id, func(t *testing.T) { checkGolden(t, id, o) })
	}
}

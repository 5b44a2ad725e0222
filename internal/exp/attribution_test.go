package exp

import (
	"testing"

	"repro/internal/telemetry"
)

// TestGoldenTablesWithAttribution extends PR 3's inertness guarantee to
// the span layer: with per-request phase attribution armed process-wide
// (on top of metrics and tracing), experiment tables stay byte-identical
// to the goldens. Spans observe the simulation's arithmetic; they must
// never participate in it.
func TestGoldenTablesWithAttribution(t *testing.T) {
	telemetry.Default.Reset()
	telemetry.SetEnabled(true)
	telemetry.SetSpansEnabled(true)
	telemetry.Trace.Enable()
	defer func() {
		telemetry.Trace.Disable()
		telemetry.SetSpansEnabled(false)
		telemetry.SetEnabled(false)
	}()

	// The attribution table itself runs here too: its golden was pinned
	// with RecordPhases already on, so the process-wide switch must not
	// shift a single digit. fig7b is kept off the -race leg for the same
	// timeout reason as TestGoldenTablesWithTelemetry.
	ids := []string{"transition", "attribution", "scaling", "mte"}
	if !raceEnabled {
		ids = append(ids, "fig7b")
	}
	for _, id := range ids {
		id := id
		t.Run(id, func(t *testing.T) { checkGolden(t, id, Options{}) })
	}
}

package exp

import (
	"bytes"
	"encoding/json"
	"testing"

	"repro/internal/rt"
	"repro/internal/telemetry"
)

// TestGoldenTablesWithTelemetry is the hard constraint of the telemetry
// layer: with metrics and tracing fully enabled, experiment tables are
// still byte-identical to the goldens. Telemetry observes runs; it must
// never perturb them.
func TestGoldenTablesWithTelemetry(t *testing.T) {
	telemetry.Default.Reset()
	telemetry.SetEnabled(true)
	telemetry.Trace.Enable()
	defer func() {
		telemetry.Trace.Disable()
		telemetry.SetEnabled(false)
	}()

	// fig7b (a full FaaS sweep) already runs once in TestGoldenTables;
	// repeating it here under the race detector would push the package
	// past the test timeout, so the -race leg keeps the cheap table.
	ids := []string{"transition", "scaling", "mte"}
	if !raceEnabled {
		ids = append(ids, "fig7b")
	}
	for _, id := range ids {
		id := id
		t.Run(id, func(t *testing.T) { checkGolden(t, id, Options{}) })
	}

	// The runs above must have left observations behind.
	snap := telemetry.Default.Snapshot()
	if snap.Counters["exp.cells"] == 0 {
		t.Error("no cells counted with telemetry enabled")
	}
	if snap.Counters["cpu.insts_retired"] == 0 {
		t.Error("no instructions counted with telemetry enabled")
	}
	if len(telemetry.Trace.Events()) == 0 {
		t.Error("no trace events recorded")
	}

	// The trace exports as valid Chrome trace-event JSON.
	var buf bytes.Buffer
	if err := telemetry.Trace.WriteJSON(&buf); err != nil {
		t.Fatalf("WriteJSON: %v", err)
	}
	var tf struct {
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &tf); err != nil {
		t.Fatalf("trace output is not valid JSON: %v", err)
	}
	if len(tf.TraceEvents) < 3 { // 2 metadata records + real events
		t.Errorf("trace has only %d events", len(tf.TraceEvents))
	}

	// Snapshot rendering is byte-stable for a fixed registry state.
	if a, b := snap.JSON(), telemetry.Default.Snapshot().JSON(); !bytes.Equal(a, b) {
		t.Error("snapshot JSON not byte-stable across renders")
	}
}

// TestTelemetryDisabledLeavesNoTrace: with telemetry off (the default),
// running an experiment records nothing — the disabled path really is
// inert, not just cheap.
func TestTelemetryDisabledLeavesNoTrace(t *testing.T) {
	if telemetry.Enabled() {
		t.Skip("telemetry enabled by another test")
	}
	telemetry.Default.Reset()
	rt.ResetModuleCache()
	e, _ := ByID("transition")
	if _, err := e.Run(Options{}); err != nil {
		t.Fatal(err)
	}
	snap := telemetry.Default.Snapshot()
	for _, name := range []string{"exp.cells", "cpu.dispatch.fast", "cpu.dispatch.fused", "cpu.insts_retired"} {
		if snap.Counters[name] != 0 {
			t.Errorf("%s = %d after a disabled run, want 0", name, snap.Counters[name])
		}
	}
}

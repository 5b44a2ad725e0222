package repro

import (
	"os"
	"testing"
	"time"

	"repro/internal/cpu"
	"repro/internal/rt"
	"repro/internal/sfi"
	"repro/internal/telemetry"
	"repro/internal/workloads"
)

// TestSpanOverheadBounded is the span-bench smoke (`make span-bench`):
// it times fused-tier kernel invocations with all observability off and
// again with telemetry, spans, and the tracer fully armed, and fails if
// arming costs more than 3% wall time, comparing the fastest of 20
// interleaved five-invocation batches each way. The kernel hot path
// only ever consults the span gates at transition boundaries — one
// predictable branch per crossing — so the two should be
// indistinguishable up to scheduler noise. Wall-clock measurement, so gated behind
// REPRO_SPANBENCH=1 like the fuse-bench.
func TestSpanOverheadBounded(t *testing.T) {
	if os.Getenv("REPRO_SPANBENCH") == "" {
		t.Skip("set REPRO_SPANBENCH=1 to run the span-overhead smoke benchmark")
	}
	k, err := workloads.Sightglass().Find("seqhash")
	if err != nil {
		t.Fatal(err)
	}
	mod, err := rt.CompileModule(k.Build(false), sfi.DefaultConfig(sfi.ModeSegue))
	if err != nil {
		t.Fatal(err)
	}
	// set arms telemetry, spans and the tracer together, or none of them.
	set := func(on bool) {
		telemetry.SetEnabled(on)
		telemetry.SetSpansEnabled(on)
		if on {
			telemetry.Trace.Enable()
		} else {
			telemetry.Trace.Disable()
		}
	}
	defer set(false)
	// One instance serves both configurations, since every gate on the
	// path is read per call. With an instance per configuration, whole
	// runs on a 2-vCPU host read one side up to 1.26x slower.
	inst, err := rt.NewInstance(mod, rt.InstanceOptions{FSGSBASE: true})
	if err != nil {
		t.Fatal(err)
	}
	inst.Mach.Tier = cpu.TierFused
	if _, err := inst.Invoke("run", 10000); err != nil { // warmup
		t.Fatal(err)
	}
	// Off and on batches of five invocations interleave in off, on, on,
	// off order, 20 per side, so a drift in the host's speed (throttling,
	// a busy neighbour) falls on both sides alike; each side keeps its
	// fastest batch. The configuration is set once per batch, outside the
	// timed region, since arming the tracer resets its buffer.
	best := [2]time.Duration{1<<63 - 1, 1<<63 - 1}
	for b := 0; b < 40; b++ {
		on := 0
		if b%4 == 1 || b%4 == 2 {
			on = 1
		}
		set(on == 1)
		start := time.Now()
		for i := 0; i < 5; i++ {
			if _, err := inst.Invoke("run", 10000); err != nil {
				t.Fatal(err)
			}
		}
		best[on] = min(best[on], time.Since(start))
	}
	disabled, enabled := best[0], best[1]

	t.Logf("seqhash fused: spans off %v, spans on %v (%.4fx)",
		disabled, enabled, enabled.Seconds()/disabled.Seconds())
	if enabled.Seconds() > disabled.Seconds()*1.03 {
		t.Fatalf("span machinery costs >3%% on the kernel hot path: off %v, on %v",
			disabled, enabled)
	}
}

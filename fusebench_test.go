// Package repro's root tests are wall-clock guards on the emulator hot
// path (`make fuse-bench`, `make span-bench`), each gated behind an
// environment variable. The repository's performance record is the
// bench/ module.
package repro

import (
	"os"
	"testing"
	"time"

	"repro/internal/cpu"
	"repro/internal/rt"
	"repro/internal/sfi"
	"repro/internal/workloads"
)

// TestFusedTierNotSlower is the fuse-bench smoke (`make fuse-bench`):
// it times one kernel on the fast tier and on the fused tier — the same
// dispatch loop on the decoded stream and on its fused overlay, so
// groups against no groups — and fails if fusion makes dispatch slower.
// It is a wall-clock measurement, so it is gated behind
// REPRO_FUSEBENCH=1 and allows a noise margin; the correctness of the
// fused tier is covered by the differential tests, this guards the
// perf claim.
func TestFusedTierNotSlower(t *testing.T) {
	if os.Getenv("REPRO_FUSEBENCH") == "" {
		t.Skip("set REPRO_FUSEBENCH=1 to run the fused-tier smoke benchmark")
	}
	k, err := workloads.Sightglass().Find("seqhash")
	if err != nil {
		t.Fatal(err)
	}
	mod, err := rt.CompileModule(k.Build(false), sfi.DefaultConfig(sfi.ModeSegue))
	if err != nil {
		t.Fatal(err)
	}
	// Best of three timed batches per tier, to shrug off scheduler noise
	// in CI.
	run := func(tier cpu.Tier) time.Duration {
		inst, err := rt.NewInstance(mod, rt.InstanceOptions{FSGSBASE: true})
		if err != nil {
			t.Fatal(err)
		}
		inst.Mach.Tier = tier
		if _, err := inst.Invoke("run", 10000); err != nil { // untimed: on the fused tier it builds the overlay
			t.Fatal(err)
		}
		best := time.Duration(1<<63 - 1)
		for r := 0; r < 3; r++ {
			start := time.Now()
			for i := 0; i < 5; i++ {
				if _, err := inst.Invoke("run", 10000); err != nil {
					t.Fatal(err)
				}
			}
			if d := time.Since(start); d < best {
				best = d
			}
		}
		return best
	}
	fast := run(cpu.TierFast)
	fused := run(cpu.TierFused)
	t.Logf("seqhash: fast %v, fused %v (%.2fx)", fast, fused, fast.Seconds()/fused.Seconds())
	if fused.Seconds() > fast.Seconds()*1.2 {
		t.Fatalf("fused tier slower than fast tier: fast %v, fused %v", fast, fused)
	}
}

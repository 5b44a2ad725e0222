package rt

import (
	"testing"

	"repro/internal/cpu"
	"repro/internal/ir"
	"repro/internal/isolation"
	"repro/internal/mem"
	"repro/internal/sfi"
	"repro/internal/workloads"
)

// resetTestInstance places one instance of kernel k in a fresh slab of
// the given kind.
func resetTestInstance(t *testing.T, k workloads.Kernel, kind isolation.Kind) (*Instance, isolation.Backend) {
	t.Helper()
	mod, err := CompileModule(k.Build(false), sfi.DefaultConfig(sfi.ModeSegue))
	if err != nil {
		t.Fatalf("compiling %s: %v", k.Name, err)
	}
	cfg := isolation.Config{
		Slots:          4,
		MaxMemoryBytes: uint64(mod.IR.MemMax) * ir.PageSize,
		GuardBytes:     1 << 20,
	}
	if kind == isolation.ColorGuard {
		cfg.Keys = 15
	}
	b, err := isolation.NewReserved(kind, mem.NewAS(47), cfg)
	if err != nil {
		t.Fatalf("reserving %s: %v", kind, err)
	}
	slot, err := b.Allocate(uint64(mod.IR.MemMin) * ir.PageSize)
	if err != nil {
		t.Fatalf("allocating: %v", err)
	}
	inst, err := NewInstance(mod, InstanceOptions{
		FSGSBASE: true,
		Place:    isolation.Place(b, slot),
	})
	if err != nil {
		t.Fatalf("instantiating: %v", err)
	}
	return inst, b
}

// TestResetBitExact: for every FaaS kernel and every backend, a warm
// instance (Invoke, Reset, Invoke) returns exactly the checksum and
// simulated cycle count of a fresh instance. The hash-load-balance
// kernel makes this a real test — it mutates a heap histogram, so a
// missed reset changes the checksum.
func TestResetBitExact(t *testing.T) {
	for _, k := range workloads.FaaS().Kernels {
		for _, kind := range isolation.Kinds() {
			inst, b := resetTestInstance(t, k, kind)
			args := k.TestArgs

			out1, err := inst.Invoke(k.Entry, args...)
			if err != nil {
				t.Fatalf("%s/%s first invoke: %v", k.Name, kind, err)
			}
			cycles1 := inst.Mach.Stats.Cycles
			trans1 := inst.Transitions

			if err := inst.Reset(); err != nil {
				t.Fatalf("%s/%s reset: %v", k.Name, kind, err)
			}
			if inst.Transitions != 0 || inst.Mach.Stats.Cycles != 0 {
				t.Fatalf("%s/%s reset left accounting: %d transitions, %g cycles",
					k.Name, kind, inst.Transitions, inst.Mach.Stats.Cycles)
			}

			out2, err := inst.Invoke(k.Entry, args...)
			if err != nil {
				t.Fatalf("%s/%s warm invoke: %v", k.Name, kind, err)
			}
			if out1[0] != out2[0] {
				t.Errorf("%s/%s: warm checksum %d != fresh %d", k.Name, kind, out2[0], out1[0])
			}
			if inst.Mach.Stats.Cycles != cycles1 {
				t.Errorf("%s/%s: warm cycles %g != fresh %g", k.Name, kind, inst.Mach.Stats.Cycles, cycles1)
			}
			if inst.Transitions != trans1 {
				t.Errorf("%s/%s: warm transitions %d != fresh %d", k.Name, kind, inst.Transitions, trans1)
			}
			inst.Close()
			b.Release()
		}
	}
}

// TestResetRepeatedReuse: many invoke/reset rounds on one instance stay
// bit-identical — the pool can pin an instance indefinitely.
func TestResetRepeatedReuse(t *testing.T) {
	k, err := workloads.FaaS().Find("hash-load-balance")
	if err != nil {
		t.Fatal(err)
	}
	inst, b := resetTestInstance(t, k, isolation.ColorGuard)
	defer func() { inst.Close(); b.Release() }()

	out, err := inst.Invoke(k.Entry, k.TestArgs...)
	if err != nil {
		t.Fatal(err)
	}
	want := out[0]
	for i := 0; i < 10; i++ {
		if err := inst.Reset(); err != nil {
			t.Fatalf("round %d reset: %v", i, err)
		}
		out, err := inst.Invoke(k.Entry, k.TestArgs...)
		if err != nil {
			t.Fatalf("round %d invoke: %v", i, err)
		}
		if out[0] != want {
			t.Fatalf("round %d: checksum %d != %d", i, out[0], want)
		}
	}
}

// TestResetWithoutReset documents why Reset exists: the
// hash-load-balance kernel's histogram persists across invokes, so a
// second un-reset invoke must differ. If this ever starts passing the
// warm pool could skip resets — it should not silently.
func TestResetWithoutReset(t *testing.T) {
	k, err := workloads.FaaS().Find("hash-load-balance")
	if err != nil {
		t.Fatal(err)
	}
	inst, b := resetTestInstance(t, k, isolation.GuardPage)
	defer func() { inst.Close(); b.Release() }()

	out1, err := inst.Invoke(k.Entry, k.TestArgs...)
	if err != nil {
		t.Fatal(err)
	}
	out2, err := inst.Invoke(k.Entry, k.TestArgs...)
	if err != nil {
		t.Fatal(err)
	}
	if out1[0] == out2[0] {
		t.Fatalf("un-reset reuse produced identical checksums (%d); dirty-state hazard gone?", out1[0])
	}
}

// TestResetKeepsTier: Reset swaps in a recycled machine, which must run
// on the tier the instance's owner chose, not the zero-value tier a new
// machine starts on.
func TestResetKeepsTier(t *testing.T) {
	k, err := workloads.FaaS().Find("regex-filtering")
	if err != nil {
		t.Fatal(err)
	}
	inst, b := resetTestInstance(t, k, isolation.ColorGuard)
	defer func() { inst.Close(); b.Release() }()
	inst.Mach.Tier = cpu.TierSlow
	if _, err := inst.Invoke(k.Entry, k.TestArgs...); err != nil {
		t.Fatal(err)
	}
	if err := inst.Reset(); err != nil {
		t.Fatal(err)
	}
	if got := inst.Mach.Tier; got != cpu.TierSlow {
		t.Fatalf("tier after Reset = %v, want slow", got)
	}
}

package rt

import (
	"math"
	"testing"

	"repro/internal/cpu"
	"repro/internal/ir"
	"repro/internal/isolation"
	"repro/internal/mem"
	"repro/internal/sfi"
)

func nopTestModule(t *testing.T) *Module {
	t.Helper()
	m := ir.NewModule("schemenop", 1, 1)
	fb := m.NewFunc("nop", ir.Sig(nil, []ir.ValType{ir.I32}))
	fb.I32(1)
	fb.MustBuild()
	m.MustExport("nop")
	mod, err := CompileModule(m, sfi.DefaultConfig(sfi.ModeSegue))
	if err != nil {
		t.Fatal(err)
	}
	return mod
}

// TestSchemeTransitionCyclesPinned drives transitionIn/Out directly and
// pins the exact cycles each charges: the scheme's convention cycles
// plus the mechanism instructions (segment-base write each entry, a
// WRPKRU each way when the placement carries a color). One scheme must
// never change what another charges.
func TestSchemeTransitionCyclesPinned(t *testing.T) {
	mod := nopTestModule(t)
	for _, s := range isolation.Schemes() {
		for _, pkey := range []uint8{0, 5} {
			inst, err := NewInstance(mod, InstanceOptions{
				FSGSBASE: true,
				Scheme:   s,
				Place:    isolation.Colored(pkey),
			})
			if err != nil {
				t.Fatal(err)
			}
			cost := &inst.Mach.Cost

			before := inst.Mach.Stats.Cycles
			inst.transitionIn()
			wantIn := s.BaseCycles() + cost.WRGSBASE
			if pkey != 0 {
				wantIn += cost.WRPKRU
			}
			if got := inst.Mach.Stats.Cycles - before; got != wantIn {
				t.Errorf("%s pkey=%d: transitionIn charged %.2f cycles, want %.2f", s, pkey, got, wantIn)
			}

			before = inst.Mach.Stats.Cycles
			inst.transitionOut()
			wantOut := s.BaseCycles()
			if pkey != 0 {
				wantOut += cost.WRPKRU
			}
			if got := inst.Mach.Stats.Cycles - before; got != wantOut {
				t.Errorf("%s pkey=%d: transitionOut charged %.2f cycles, want %.2f", s, pkey, got, wantOut)
			}
		}
	}
}

// TestSchemeInvokeDelta pins the per-round-trip charge through the
// public surface: an Invoke is exactly one in+out pair, so between two
// schemes the total cycle difference is exactly twice the difference of
// their convention cycles — everything else (the function body, the
// segment write) is scheme-independent.
func TestSchemeInvokeDelta(t *testing.T) {
	mod := nopTestModule(t)
	run := func(s isolation.Scheme) float64 {
		inst, err := NewInstance(mod, InstanceOptions{FSGSBASE: true, Scheme: s})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := inst.Invoke("nop"); err != nil {
			t.Fatal(err)
		}
		if inst.scheme != s {
			t.Fatalf("scheme = %v, want %v", inst.scheme, s)
		}
		return inst.Mach.Stats.Cycles
	}
	base := run(isolation.SchemeDefault)
	for _, s := range []isolation.Scheme{isolation.SchemeZeroCost, isolation.SchemeOneStack, isolation.SchemeTrampoline} {
		got := run(s) - base
		want := 2 * (s.BaseCycles() - isolation.SchemeDefault.BaseCycles())
		if math.Abs(got-want) > 1e-6 {
			t.Errorf("%s: invoke cycle delta %.2f, want %.2f", s, got, want)
		}
	}
}

// TestSchemeHostCallDelta extends the pin to host calls: a loop making
// five host calls crosses the boundary six times each way (1 entry + 5
// re-entries, 5 exits + 1 final exit), so the scheme delta is 12 one-way
// convention charges.
func TestSchemeHostCallDelta(t *testing.T) {
	m := ir.NewModule("schemehost", 1, 1)
	h := m.AddImport("env.id", ir.Sig([]ir.ValType{ir.I32}, []ir.ValType{ir.I32}))
	fb := m.NewFunc("f", ir.Sig([]ir.ValType{ir.I32}, []ir.ValType{ir.I32}), ir.I32, ir.I32)
	fb.LoopN(1, 0, 5, 1, func() {
		fb.Get(2).Get(0).Call(h).I32Add().Set(2)
	})
	fb.Get(2)
	fb.MustBuild()
	m.MustExport("f")
	mod, err := CompileModule(m, sfi.DefaultConfig(sfi.ModeSegue))
	if err != nil {
		t.Fatal(err)
	}

	run := func(s isolation.Scheme) float64 {
		inst, err := NewInstance(mod, InstanceOptions{
			FSGSBASE: true,
			Scheme:   s,
			Hosts: map[string]HostFunc{
				"env.id": func(hc *HostCall) (uint64, error) { return hc.Args[0], nil },
			},
		})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := inst.Invoke("f", 7); err != nil {
			t.Fatal(err)
		}
		if inst.Transitions != 6 {
			t.Fatalf("%s: transitions = %d, want 6", s, inst.Transitions)
		}
		return inst.Mach.Stats.Cycles
	}
	base := run(isolation.SchemeDefault)
	for _, s := range []isolation.Scheme{isolation.SchemeZeroCost, isolation.SchemeTrampoline} {
		got := run(s) - base
		want := 12 * (s.BaseCycles() - isolation.SchemeDefault.BaseCycles())
		if math.Abs(got-want) > 1e-6 {
			t.Errorf("%s: host-call cycle delta %.2f, want %.2f", s, got, want)
		}
	}
}

// TestSchemeTierDifferential: the transition scheme and the execution
// tier are independent axes — under every scheme, the slow, fast, and
// fused engines produce the same checksum and bit-identical simulated
// cycles (the same law exp's TestGoldenTablesSlowSerial checks for
// whole tables).
func TestSchemeTierDifferential(t *testing.T) {
	m := ir.NewModule("schemetier", 1, 1)
	fb := m.NewFunc("sum", ir.Sig([]ir.ValType{ir.I32}, []ir.ValType{ir.I32}), ir.I32, ir.I32)
	fb.LoopN(1, 0, 64, 1, func() {
		fb.Get(2).Get(1).I32Add().Get(0).I32Add().Set(2)
	})
	fb.Get(2)
	fb.MustBuild()
	m.MustExport("sum")
	mod, err := CompileModule(m, sfi.DefaultConfig(sfi.ModeSegue))
	if err != nil {
		t.Fatal(err)
	}

	for _, s := range isolation.Schemes() {
		var wantRes uint64
		var wantCycles float64
		for i, tier := range []cpu.Tier{cpu.TierSlow, cpu.TierFast, cpu.TierFused} {
			inst, err := NewInstance(mod, InstanceOptions{FSGSBASE: true, Scheme: s})
			if err != nil {
				t.Fatal(err)
			}
			inst.Mach.Tier = tier
			res, err := inst.Invoke("sum", 3)
			if err != nil {
				t.Fatal(err)
			}
			if i == 0 {
				wantRes, wantCycles = res[0], inst.Mach.Stats.Cycles
				continue
			}
			if res[0] != wantRes {
				t.Errorf("%s/%s: result %d, slow tier got %d", s, tier, res[0], wantRes)
			}
			if inst.Mach.Stats.Cycles != wantCycles {
				t.Errorf("%s/%s: cycles %.2f, slow tier got %.2f (tiers must be bit-identical)", s, tier, inst.Mach.Stats.Cycles, wantCycles)
			}
		}
	}
}

// TestInstanceSchemeFromBackend: a placed instance's scheme is its own
// InstanceOptions.Scheme, not a property of the backend: two instances
// in one slab run under different schemes, and an empty scheme is the
// default.
func TestInstanceSchemeFromBackend(t *testing.T) {
	mod := nopTestModule(t)
	b, err := isolation.NewReserved(isolation.GuardPage, mem.NewAS(47), isolation.Config{
		Slots:          4,
		MaxMemoryBytes: 1 << 20,
		GuardBytes:     1 << 20,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer b.Release()

	for _, want := range []isolation.Scheme{isolation.SchemeTrampoline, isolation.SchemeZeroCost, ""} {
		slot, err := b.Allocate(1 << 16)
		if err != nil {
			t.Fatal(err)
		}
		inst, err := NewInstance(mod, InstanceOptions{
			FSGSBASE: true,
			Scheme:   want,
			Place:    isolation.Place(b, slot),
		})
		if err != nil {
			t.Fatal(err)
		}
		defer inst.Close()
		if got := inst.scheme; got != isolation.ResolveScheme(want) {
			t.Errorf("scheme = %v, want %v", got, isolation.ResolveScheme(want))
		}
	}
}

package exp

import (
	"testing"

	"repro/internal/cpu"
	"repro/internal/rt"
	"repro/internal/sfi"
	"repro/internal/workloads"
	"repro/internal/x86"
)

// hardenTestKernels are the kernels the bit-exactness proofs run: the
// indirect-dispatch worst case (indirect calls, returns, loops) and the
// FaaS regex kernel (heap loads and stores).
func hardenTestKernels(t *testing.T) []workloads.Kernel {
	t.Helper()
	regex, err := workloads.FaaS().Find("regex-filtering")
	if err != nil {
		t.Fatal(err)
	}
	return []workloads.Kernel{indirectDispatchKernel(), regex}
}

func isHardenOp(op x86.Op) bool {
	return op == x86.ENDBR || op == x86.BTBFLUSH || op == x86.INTERLOCK
}

// TestHardenNoneBitExact mirrors isolation's TestDefaultSchemeBitExact
// for the hardening axis: an explicit HardenNone must be invisible —
// the same instruction stream as a config that never mentions Harden,
// zero hardening opcodes in the output, and bit-identical cycles and
// checksums on every execution tier.
func TestHardenNoneBitExact(t *testing.T) {
	for _, mode := range []sfi.Mode{sfi.ModeGuard, sfi.ModeSegue} {
		for _, k := range hardenTestKernels(t) {
			legacy := sfi.Config{Mode: mode, FoldOperandSlot: true, FoldDispLimit: 1 << 30}
			off := legacy
			off.Harden = sfi.HardenNone

			progLegacy, _, err := sfi.Compile(k.Build(false), legacy)
			if err != nil {
				t.Fatal(err)
			}
			progOff, _, err := sfi.Compile(k.Build(false), off)
			if err != nil {
				t.Fatal(err)
			}
			if len(progLegacy.Funcs) != len(progOff.Funcs) {
				t.Fatalf("%s/%s: function count %d != %d", k.Name, mode, len(progOff.Funcs), len(progLegacy.Funcs))
			}
			for i := range progLegacy.Funcs {
				want, got := sfi.Disassemble(progLegacy.Funcs[i]), sfi.Disassemble(progOff.Funcs[i])
				if want != got {
					t.Fatalf("%s/%s: HardenNone changed codegen of %s:\n--- legacy ---\n%s--- HardenNone ---\n%s",
						k.Name, mode, progLegacy.Funcs[i].Name, want, got)
				}
				for _, in := range progOff.Funcs[i].Insts {
					if isHardenOp(in.Op) {
						t.Fatalf("%s/%s: hardening op %s emitted under HardenNone", k.Name, mode, in.Op)
					}
				}
			}

			modLegacy, err := rt.CompileModule(k.Build(false), legacy)
			if err != nil {
				t.Fatal(err)
			}
			modOff, err := rt.CompileModule(k.Build(false), off)
			if err != nil {
				t.Fatal(err)
			}
			for _, tier := range []cpu.Tier{cpu.TierSlow, cpu.TierFast, cpu.TierFused} {
				run := func(mod *rt.Module) (uint64, float64) {
					inst, err := rt.NewInstance(mod, rt.InstanceOptions{FSGSBASE: true})
					if err != nil {
						t.Fatal(err)
					}
					inst.Mach.Tier = tier
					res, err := inst.Invoke(k.Entry, k.TestArgs...)
					if err != nil {
						t.Fatal(err)
					}
					return res[0], inst.Mach.Stats.Cycles
				}
				wantSum, wantCycles := run(modLegacy)
				gotSum, gotCycles := run(modOff)
				if gotSum != wantSum || gotCycles != wantCycles {
					t.Fatalf("%s/%s/%s: HardenNone run (sum %#x, cycles %v) != legacy (sum %#x, cycles %v)",
						k.Name, mode, tier, gotSum, gotCycles, wantSum, wantCycles)
				}
			}
		}
	}
}

// TestHardenTierDifferential extends the tier-differential law to every
// hardening scheme: slow, fast, and fused must charge the hardening
// pseudo-ops identically — bit-identical cycles and checksums.
func TestHardenTierDifferential(t *testing.T) {
	for _, h := range sfi.Hardens() {
		for _, mode := range []sfi.Mode{sfi.ModeGuard, sfi.ModeSegue} {
			for _, k := range hardenTestKernels(t) {
				cfg := sfi.DefaultConfig(mode)
				cfg.Harden = h
				mod, err := rt.CompileModule(k.Build(false), cfg)
				if err != nil {
					t.Fatal(err)
				}
				var wantSum uint64
				var wantCycles float64
				for i, tier := range []cpu.Tier{cpu.TierSlow, cpu.TierFast, cpu.TierFused} {
					inst, err := rt.NewInstance(mod, rt.InstanceOptions{FSGSBASE: true})
					if err != nil {
						t.Fatal(err)
					}
					inst.Mach.Tier = tier
					res, err := inst.Invoke(k.Entry, k.TestArgs...)
					if err != nil {
						t.Fatal(err)
					}
					if i == 0 {
						wantSum, wantCycles = res[0], inst.Mach.Stats.Cycles
						continue
					}
					if res[0] != wantSum {
						t.Errorf("%s/%s/%s/%s: result %#x, slow tier got %#x", k.Name, mode, h, tier, res[0], wantSum)
					}
					if inst.Mach.Stats.Cycles != wantCycles {
						t.Errorf("%s/%s/%s/%s: cycles %v, slow tier got %v (tiers must be bit-identical)",
							k.Name, mode, h, tier, inst.Mach.Stats.Cycles, wantCycles)
					}
				}
			}
		}
	}
}

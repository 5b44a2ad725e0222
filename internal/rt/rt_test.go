package rt

import (
	"errors"
	"fmt"
	"math"
	"testing"

	"repro/internal/cpu"
	"repro/internal/ir"
	"repro/internal/isolation"
	"repro/internal/mem"
	"repro/internal/sfi"
)

// allModes is every compilation mode; differential tests must agree
// with the interpreter under each.
var allModes = []sfi.Mode{
	sfi.ModeNative, sfi.ModeGuard, sfi.ModeSegue,
	sfi.ModeBoundsCheck, sfi.ModeBoundsSegue,
	sfi.ModeLFI, sfi.ModeLFISegue,
}

// diffCase is one differential test: a module, an entry point, and a
// list of argument vectors. Results (and optionally a memory region)
// must match the interpreter in every mode.
type diffCase struct {
	name     string
	build    func() *ir.Module
	entry    string
	argSets  [][]uint64
	checkMem int // bytes of linear memory to compare (0 = none)
}

func buildArith() *ir.Module {
	m := ir.NewModule("arith", 1, 1)
	fb := m.NewFunc("f", ir.Sig([]ir.ValType{ir.I32, ir.I32}, []ir.ValType{ir.I32}), ir.I32)
	// ((a*3 + b) ^ (a >> 2)) * (b | 5) - (a & b) + rotl(a, b&7)
	fb.Get(0).I32(3).I32Mul().Get(1).I32Add()
	fb.Get(0).I32(2).I32ShrU().I32Xor()
	fb.Get(1).I32(5).I32Or().I32Mul()
	fb.Get(0).Get(1).I32And().I32Sub()
	fb.Get(0).Get(1).I32(7).I32And().I32Rotl().I32Add()
	fb.MustBuild()
	m.MustExport("f")
	return m
}

func buildMemRW() *ir.Module {
	m := ir.NewModule("memrw", 1, 1)
	// f(base, n): writes i*i at base+4i, then sums them back.
	fb := m.NewFunc("f", ir.Sig([]ir.ValType{ir.I32, ir.I32}, []ir.ValType{ir.I32}), ir.I32, ir.I32)
	fb.LoopNDyn(2, 1, 0, 1, func() {
		fb.Get(0).Get(2).I32(2).I32Shl().I32Add() // base + i*4
		fb.Get(2).Get(2).I32Mul()
		fb.I32Store(0)
	})
	fb.LoopNDyn(2, 1, 0, 1, func() {
		fb.Get(3)
		fb.Get(0).Get(2).I32(2).I32Shl().I32Add()
		fb.I32Load(0)
		fb.I32Add().Set(3)
	})
	fb.Get(3)
	fb.MustBuild()
	m.MustExport("f")
	return m
}

func buildPointerChase() *ir.Module {
	// A linked list in linear memory: node = {next i32, val i32} at
	// 8-byte stride; f(n) builds then walks it. Exercises the
	// int-to-pointer deref pattern (Figure 1, pattern 1) via i64.
	m := ir.NewModule("chase", 1, 1)
	fb := m.NewFunc("f", ir.Sig([]ir.ValType{ir.I32}, []ir.ValType{ir.I32}), ir.I32, ir.I32, ir.I64)
	// build: node i at 8*i -> next = 8*(i+1), val = i*7 (last next = 0)
	fb.LoopNDyn(1, 0, 0, 1, func() {
		fb.Get(1).I32(3).I32Shl()
		fb.Get(1).I32(1).I32Add().I32(3).I32Shl()
		fb.I32Store(0)
		fb.Get(1).I32(3).I32Shl()
		fb.Get(1).I32(7).I32Mul()
		fb.I32Store(4)
	})
	// terminate
	fb.Get(0).I32(1).I32Sub().I32(3).I32Shl()
	fb.I32(0)
	fb.I32Store(0)
	// walk from an i64-held pointer (int-to-ptr pattern)
	fb.I64(0).Set(3) // ptr
	fb.Block()
	fb.Loop()
	fb.Get(2)
	fb.Get(3).I32WrapI64().I32Load(4)
	fb.I32Add().Set(2)
	fb.Get(3).I32WrapI64().I32Load(0)
	fb.I64ExtendI32U().Tee(3)
	fb.I32WrapI64().I32Eqz().BrIf(1)
	fb.Br(0)
	fb.End()
	fb.End()
	fb.Get(2)
	fb.MustBuild()
	m.MustExport("f")
	return m
}

func buildControl() *ir.Module {
	m := ir.NewModule("control", 1, 1)
	// Collatz length with nested control.
	fb := m.NewFunc("f", ir.Sig([]ir.ValType{ir.I32}, []ir.ValType{ir.I32}), ir.I32)
	fb.While(func() {
		fb.Get(0).I32(1).I32GtS()
	}, func() {
		fb.Get(0).I32(1).I32And()
		fb.If()
		fb.Get(0).I32(3).I32Mul().I32(1).I32Add().Set(0)
		fb.Else()
		fb.Get(0).I32(1).I32ShrU().Set(0)
		fb.End()
		fb.Get(1).I32(1).I32Add().Set(1)
	})
	fb.Get(1)
	fb.MustBuild()
	m.MustExport("f")
	return m
}

func buildBrTable() *ir.Module {
	m := ir.NewModule("brtable", 1, 1)
	fb := m.NewFunc("f", ir.Sig([]ir.ValType{ir.I32}, []ir.ValType{ir.I32}), ir.I32)
	fb.LoopN(1, 0, 64, 1, func() {
		fb.Block()
		fb.Block()
		fb.Block()
		fb.Block()
		fb.Get(1).I32(3).I32And()
		fb.BrTable([]uint32{0, 1, 2}, 3)
		fb.End()
		fb.Get(0).I32(2).I32Add().Set(0)
		fb.Br(2)
		fb.End()
		fb.Get(0).I32(3).I32Mul().Set(0)
		fb.Br(1)
		fb.End()
		fb.Get(0).I32(1).I32ShrU().Set(0)
		fb.Br(0)
		fb.End()
		fb.Get(0).I32(1).I32Xor().Set(0)
	})
	fb.Get(0)
	fb.MustBuild()
	m.MustExport("f")
	return m
}

func buildCalls() *ir.Module {
	m := ir.NewModule("calls", 1, 1)
	gcd := m.NewFunc("gcd", ir.Sig([]ir.ValType{ir.I32, ir.I32}, []ir.ValType{ir.I32}))
	gcd.Get(1).I32Eqz()
	gcd.If(ir.I32)
	gcd.Get(0)
	gcd.Else()
	gcd.Get(1)
	gcd.Get(0).Get(1).I32RemU()
	gcd.CallNamed("gcd")
	gcd.End()
	gcd.MustBuild()

	sq := m.NewFunc("sq", ir.Sig([]ir.ValType{ir.I32}, []ir.ValType{ir.I32}))
	sq.Get(0).Get(0).I32Mul()
	sq.MustBuild()
	dbl := m.NewFunc("dbl", ir.Sig([]ir.ValType{ir.I32}, []ir.ValType{ir.I32}))
	dbl.Get(0).Get(0).I32Add()
	dbl.MustBuild()
	sqi, _ := m.FuncIndex("sq")
	dbi, _ := m.FuncIndex("dbl")
	m.Table = []uint32{sqi, dbi}

	f := m.NewFunc("f", ir.Sig([]ir.ValType{ir.I32, ir.I32}, []ir.ValType{ir.I32}))
	f.Get(0).Get(1).CallNamed("gcd")
	f.Get(0).Get(1).I32And().I32(1).I32And() // table index 0/1
	f.CallIndirect(ir.Sig([]ir.ValType{ir.I32}, []ir.ValType{ir.I32}))
	f.MustBuild()
	m.MustExport("f")
	return m
}

func buildF64() *ir.Module {
	m := ir.NewModule("f64", 1, 1)
	fb := m.NewFunc("f", ir.Sig([]ir.ValType{ir.I32}, []ir.ValType{ir.F64}), ir.I32, ir.F64, ir.F64)
	fb.F64(1).Set(2)
	fb.LoopNDyn(1, 0, 1, 1, func() {
		// acc += |i / 3 * 1.5 - min(i, 10)|; sum in local 3
		fb.Get(3)
		fb.Get(1).F64ConvertI32S().F64(3).F64Div().F64(1.5).F64Mul()
		fb.Get(1).F64ConvertI32S().F64(10).F64Min().F64(-1).F64Mul().F64Add()
		fb.F64Abs().F64Add().Set(3)
		fb.Get(2).F64(1.0001).F64Mul().Set(2)
	})
	fb.Get(3).Get(2).F64Add()
	fb.MustBuild()
	m.MustExport("f")
	return m
}

func buildI64() *ir.Module {
	m := ir.NewModule("i64", 1, 1)
	fb := m.NewFunc("f", ir.Sig([]ir.ValType{ir.I64, ir.I64}, []ir.ValType{ir.I64}), ir.I64)
	fb.Get(0).Get(1).I64Mul()
	fb.Get(0).I64(13).I64ShrU().I64Add()
	fb.Get(1).I64Popcnt().I64Add()
	fb.Get(0).I32WrapI64().I64ExtendI32U().I64Add().Set(2)
	fb.Get(2).Get(2).I64(7).I64ShrU().I64(3).I64Mul().I64Add()
	fb.MustBuild()
	m.MustExport("f")
	return m
}

func buildBulkOps() *ir.Module {
	m := ir.NewModule("bulk", 1, 2)
	m.AddData(0, []byte{1, 2, 3, 4, 5, 6, 7, 8})
	fb := m.NewFunc("f", ir.Sig([]ir.ValType{ir.I32}, []ir.ValType{ir.I32}), ir.I32)
	// fill [1000, 1000+n) with 0xAA; grow by 1 page; read back a mix
	// of the fill, the data segment, the old and the new size.
	fb.I32(1000).I32(0xAA).Get(0).MemFill()
	fb.I32(1).Op(ir.OpMemoryGrow)
	fb.Op(ir.OpMemorySize).Set(1)
	fb.I32(1000).I32Load8U(0)
	fb.I32Add()
	fb.I32(0).I32Load(4)
	fb.I32Add()
	fb.Get(1).I32Add()
	fb.MustBuild()
	m.MustExport("f")
	return m
}

func buildDirtyAddr() *ir.Module {
	// Exercises Figure 1 pattern 1 aggressively: addresses derived
	// from i64 arithmetic must be truncated before use.
	m := ir.NewModule("dirty", 1, 1)
	fb := m.NewFunc("f", ir.Sig([]ir.ValType{ir.I64}, []ir.ValType{ir.I32}))
	fb.Get(0).I64(0x100000000).I64Add().I32WrapI64()
	fb.I32(77)
	fb.I32Store(0)
	fb.Get(0).I32WrapI64()
	fb.I32Load(0)
	fb.MustBuild()
	m.MustExport("f")
	return m
}

var diffCases = []diffCase{
	{name: "arith", build: buildArith, entry: "f",
		argSets: [][]uint64{{0, 0}, {1, 2}, {123456, 789}, {0xFFFFFFFF, 0x80000000}, {7, 31}}},
	{name: "memrw", build: buildMemRW, entry: "f",
		argSets: [][]uint64{{64, 10}, {0, 100}, {4096, 33}}, checkMem: 8192},
	{name: "chase", build: buildPointerChase, entry: "f",
		argSets: [][]uint64{{4}, {100}, {1}}, checkMem: 1024},
	{name: "control", build: buildControl, entry: "f",
		argSets: [][]uint64{{27}, {1}, {97}, {871}}},
	{name: "brtable", build: buildBrTable, entry: "f",
		argSets: [][]uint64{{5}, {0}, {0xDEAD}}},
	{name: "calls", build: buildCalls, entry: "f",
		argSets: [][]uint64{{48, 18}, {17, 5}, {1000, 999}}},
	{name: "f64", build: buildF64, entry: "f",
		argSets: [][]uint64{{10}, {100}, {1}}},
	{name: "i64", build: buildI64, entry: "f",
		argSets: [][]uint64{{2, 3}, {0xFFFFFFFFFFFF, 7}, {1, 1}}},
	{name: "bulk", build: buildBulkOps, entry: "f",
		argSets: [][]uint64{{16}, {64}}, checkMem: 4096},
	{name: "dirty", build: buildDirtyAddr, entry: "f",
		argSets: [][]uint64{{256}, {1024}}, checkMem: 2048},
}

// TestDifferential runs every case on the reference interpreter and on
// the emulator under every compilation mode, comparing results and
// linear-memory contents.
func TestDifferential(t *testing.T) {
	for _, tc := range diffCases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			for _, mode := range allModes {
				mode := mode
				t.Run(mode.String(), func(t *testing.T) {
					for _, args := range tc.argSets {
						// Fresh module per run: globals and memory are stateful.
						mRef := tc.build()
						interp, err := ir.NewInterp(mRef, nil)
						if err != nil {
							t.Fatalf("interp: %v", err)
						}
						want, wantErr := interp.Invoke(tc.entry, args...)

						mRun := tc.build()
						cfg := sfi.DefaultConfig(mode)
						mod, err := CompileModule(mRun, cfg)
						if err != nil {
							t.Fatalf("compile: %v", err)
						}
						inst, err := NewInstance(mod, InstanceOptions{FSGSBASE: true})
						if err != nil {
							t.Fatalf("instantiate: %v", err)
						}
						got, gotErr := inst.Invoke(tc.entry, args...)
						if (wantErr == nil) != (gotErr == nil) {
							t.Fatalf("args %v: err mismatch: interp=%v machine=%v", args, wantErr, gotErr)
						}
						if wantErr != nil {
							continue
						}
						if len(want) != len(got) {
							t.Fatalf("args %v: result arity: %v vs %v", args, want, got)
						}
						for i := range want {
							if want[i] != got[i] {
								t.Fatalf("args %v: result[%d]: interp=%#x machine=%#x", args, i, want[i], got[i])
							}
						}
						if tc.checkMem > 0 {
							gotMem := make([]byte, tc.checkMem)
							inst.AS.ReadBytes(inst.HeapBase, gotMem)
							for i := 0; i < tc.checkMem; i++ {
								if interp.Mem[i] != gotMem[i] {
									t.Fatalf("args %v: memory[%d]: interp=%#x machine=%#x", args, i, interp.Mem[i], gotMem[i])
								}
							}
						}
					}
				})
			}
		})
	}
}

// TestDifferentialWAMRConfigs repeats the memory-heavy cases under the
// WAMR-flavored configurations (loads-only Segue, no operand-slot
// folding, vectorizer on).
func TestDifferentialWAMRConfigs(t *testing.T) {
	cfgs := []sfi.Config{
		{Mode: sfi.ModeSegue, SegueLoadsOnly: true, FoldOperandSlot: true, FoldDispLimit: 4096},
		{Mode: sfi.ModeSegue, FoldOperandSlot: false, FoldDispLimit: 4096},
		{Mode: sfi.ModeGuard, FoldOperandSlot: true, Vectorize: true, FoldDispLimit: 4096},
		{Mode: sfi.ModeSegue, FoldOperandSlot: true, Vectorize: true, FoldDispLimit: 4096},
		{Mode: sfi.ModeSegue, SegueLoadsOnly: true, FoldOperandSlot: true, Vectorize: true, FoldDispLimit: 4096},
		{Mode: sfi.ModeGuard, FoldOperandSlot: true, EpochChecks: true, FoldDispLimit: 4096},
		{Mode: sfi.ModeSegue, FoldOperandSlot: true, Hybrid: true, FoldDispLimit: 4096},
	}
	for _, tc := range diffCases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			for ci, cfg := range cfgs {
				for _, args := range tc.argSets {
					mRef := tc.build()
					interp, _ := ir.NewInterp(mRef, nil)
					want, wantErr := interp.Invoke(tc.entry, args...)

					mRun := tc.build()
					mod, err := CompileModule(mRun, cfg)
					if err != nil {
						t.Fatalf("cfg %d compile: %v", ci, err)
					}
					inst, err := NewInstance(mod, InstanceOptions{FSGSBASE: true})
					if err != nil {
						t.Fatalf("cfg %d instantiate: %v", ci, err)
					}
					got, gotErr := inst.Invoke(tc.entry, args...)
					if (wantErr == nil) != (gotErr == nil) {
						t.Fatalf("cfg %d args %v: err mismatch: %v vs %v", ci, args, wantErr, gotErr)
					}
					if wantErr == nil && len(want) == 1 && want[0] != got[0] {
						t.Fatalf("cfg %d args %v: %#x vs %#x", ci, args, want[0], got[0])
					}
					if tc.checkMem > 0 && wantErr == nil {
						gotMem := make([]byte, tc.checkMem)
						inst.AS.ReadBytes(inst.HeapBase, gotMem)
						for i := 0; i < tc.checkMem; i++ {
							if interp.Mem[i] != gotMem[i] {
								t.Fatalf("cfg %d args %v: memory[%d] differs", ci, args, i)
							}
						}
					}
				}
			}
		})
	}
}

// TestOOBTraps verifies out-of-bounds accesses trap in every mode —
// as a guard-page fault or an explicit bounds-check trap.
func TestOOBTraps(t *testing.T) {
	m := ir.NewModule("oob", 1, 1)
	fb := m.NewFunc("rd", ir.Sig([]ir.ValType{ir.I32}, []ir.ValType{ir.I32}))
	fb.Get(0).I32Load(0)
	fb.MustBuild()
	m.MustExport("rd")

	for _, mode := range allModes {
		if mode == sfi.ModeNative {
			continue // the native baseline has no isolation to test
		}
		mod, err := CompileModule(m, sfi.DefaultConfig(mode))
		if err != nil {
			t.Fatalf("%v: %v", mode, err)
		}
		inst, err := NewInstance(mod, InstanceOptions{FSGSBASE: true, GuardBytes: 4 << 30})
		if err != nil {
			t.Fatalf("%v: %v", mode, err)
		}
		// In bounds: works.
		if _, err := inst.Invoke("rd", 100); err != nil {
			t.Fatalf("%v: in-bounds read failed: %v", mode, err)
		}
		// Past the end: traps.
		_, err = inst.Invoke("rd", uint64(ir.PageSize))
		var trap *cpu.Trap
		if !errors.As(err, &trap) {
			t.Fatalf("%v: oob read err = %v, want trap", mode, err)
		}
		if mode.String() == "boundscheck" || mode.String() == "boundssegue" {
			if trap.Kind != cpu.TrapBounds {
				t.Errorf("%v: trap kind = %v, want bounds", mode, trap.Kind)
			}
		} else if trap.Kind != cpu.TrapPageFault {
			t.Errorf("%v: trap kind = %v, want page fault", mode, trap.Kind)
		}
		// Far past the end (maximum 33-bit address): still contained.
		_, err = inst.Invoke("rd", 0xFFFFFFFF)
		if !errors.As(err, &trap) {
			t.Fatalf("%v: far-oob read err = %v, want trap", mode, err)
		}
	}
}

// TestHostCallRoundtrip exercises import calls and transition counting.
func TestHostCallRoundtrip(t *testing.T) {
	m := ir.NewModule("host", 1, 1)
	h := m.AddImport("env.mul10", ir.Sig([]ir.ValType{ir.I32}, []ir.ValType{ir.I32}))
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
	inst, err := NewInstance(mod, InstanceOptions{
		FSGSBASE: true,
		Hosts: map[string]HostFunc{
			"env.mul10": func(hc *HostCall) (uint64, error) { return hc.Args[0] * 10, nil },
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	res, err := inst.Invoke("f", 7)
	if err != nil {
		t.Fatal(err)
	}
	if res[0] != 350 {
		t.Fatalf("f(7) = %d, want 350", res[0])
	}
	// 1 entry + 5 host-call re-entries.
	if inst.Transitions != 6 {
		t.Fatalf("transitions = %d, want 6", inst.Transitions)
	}
}

// TestTransitionCostShape reproduces §6.4.1: ColorGuard adds roughly
// 44 cycles (≈20 ns at 2.2 GHz) per transition.
func TestTransitionCostShape(t *testing.T) {
	m := ir.NewModule("t", 1, 1)
	fb := m.NewFunc("nop", ir.Sig(nil, []ir.ValType{ir.I32}))
	fb.I32(1)
	fb.MustBuild()
	m.MustExport("nop")

	measure := func(pkey uint8) float64 {
		mod, err := CompileModule(m, sfi.DefaultConfig(sfi.ModeSegue))
		if err != nil {
			t.Fatal(err)
		}
		inst, err := NewInstance(mod, InstanceOptions{FSGSBASE: true, Place: isolation.Colored(pkey)})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := inst.Invoke("nop"); err != nil {
			t.Fatal(err)
		}
		return inst.Mach.Stats.Nanos(&inst.Mach.Cost)
	}
	plain := measure(0)
	cg := measure(3)
	deltaNs := (cg - plain) / 2 // two transitions per invoke
	if deltaNs < 15 || deltaNs > 25 {
		t.Fatalf("per-transition ColorGuard cost = %.2f ns, want ≈20 ns", deltaNs)
	}
}

// TestColorGuardIsolation: an instance restricted to its color cannot
// read a neighboring color even when the pages are mapped.
func TestColorGuardIsolation(t *testing.T) {
	m := ir.NewModule("iso", 1, 1)
	fb := m.NewFunc("rd", ir.Sig([]ir.ValType{ir.I32}, []ir.ValType{ir.I32}))
	fb.Get(0).I32Load(0)
	fb.MustBuild()
	m.MustExport("rd")

	mod, err := CompileModule(m, sfi.DefaultConfig(sfi.ModeSegue))
	if err != nil {
		t.Fatal(err)
	}
	inst, err := NewInstance(mod, InstanceOptions{FSGSBASE: true, Place: isolation.Colored(2), GuardBytes: 1 << 20})
	if err != nil {
		t.Fatal(err)
	}
	// Map a differently-colored region right after the memory, inside
	// what used to be guard space (the ColorGuard layout).
	neighbor := inst.HeapBase + pageUp(inst.MemBytes)
	if err := inst.AS.PkeyMprotect(neighbor, 1<<16, mem.ProtRead|mem.ProtWrite, 3); err != nil {
		t.Fatal(err)
	}
	_, err = inst.Invoke("rd", uint64(ir.PageSize)+8)
	var trap *cpu.Trap
	if !errors.As(err, &trap) || trap.Kind != cpu.TrapPkey {
		t.Fatalf("cross-color read err = %v, want pkey trap", err)
	}
}

// TestMemoryGrowAcrossModes checks grow semantics and that new pages
// are usable (and colored) afterwards.
func TestMemoryGrowAcrossModes(t *testing.T) {
	m := ir.NewModule("grow", 1, 4)
	fb := m.NewFunc("f", ir.Sig(nil, []ir.ValType{ir.I32}), ir.I32)
	fb.I32(2).Op(ir.OpMemoryGrow).Set(0)
	// Write into the newly grown page and read back.
	fb.I32(ir.PageSize + 100).I32(42).I32Store(0)
	fb.I32(ir.PageSize + 100).I32Load(0)
	fb.Get(0).I32Add()
	fb.Op(ir.OpMemorySize).I32Add()
	fb.MustBuild()
	m.MustExport("f")

	for _, mode := range allModes {
		mod, err := CompileModule(m, sfi.DefaultConfig(mode))
		if err != nil {
			t.Fatalf("%v: %v", mode, err)
		}
		pkey := uint8(0)
		if mode == sfi.ModeSegue {
			pkey = 5 // also check grow+ColorGuard coloring
		}
		inst, err := NewInstance(mod, InstanceOptions{FSGSBASE: true, Place: isolation.Colored(pkey)})
		if err != nil {
			t.Fatalf("%v: %v", mode, err)
		}
		res, err := inst.Invoke("f")
		if err != nil {
			t.Fatalf("%v: %v", mode, err)
		}
		// 42 + old pages (1) + new size (3) = 46.
		if res[0] != 46 {
			t.Fatalf("%v: f() = %d, want 46", mode, res[0])
		}
	}
}

// TestEpochInterruption: a long loop with epoch checks yields and
// resumes to completion.
func TestEpochInterruption(t *testing.T) {
	m := ir.NewModule("epoch", 1, 1)
	fb := m.NewFunc("spin", ir.Sig([]ir.ValType{ir.I32}, []ir.ValType{ir.I32}), ir.I32, ir.I32)
	fb.LoopNDyn(1, 0, 0, 1, func() {
		fb.Get(2).Get(1).I32Add().Set(2)
	})
	fb.Get(2)
	fb.MustBuild()
	m.MustExport("spin")

	cfg := sfi.DefaultConfig(sfi.ModeSegue)
	cfg.EpochChecks = true
	mod, err := CompileModule(m, cfg)
	if err != nil {
		t.Fatal(err)
	}
	inst, err := NewInstance(mod, InstanceOptions{FSGSBASE: true})
	if err != nil {
		t.Fatal(err)
	}
	inst.Mach.EpochEnabled = true
	inst.Mach.EpochDeadline = 1000

	yields := 0
	_, err = inst.Invoke("spin", 200000)
	for err != nil {
		var trap *cpu.Trap
		if !errors.As(err, &trap) || trap.Kind != cpu.TrapEpoch {
			t.Fatalf("err = %v", err)
		}
		yields++
		if yields > 10000 {
			t.Fatal("too many yields")
		}
		inst.Mach.EpochDeadline = inst.Mach.Stats.Cycles + 20000
		err = inst.Resume()
	}
	if inst.Mach.Result() != uint64(199999*200000/2)%(1<<32) {
		// sum 0..n-1 mod 2^32
		t.Fatalf("result = %d", inst.Mach.Result())
	}
	if yields == 0 {
		t.Fatal("expected at least one epoch yield")
	}
}

// TestSegueCodeShape compiles the two Figure 1 patterns and checks the
// headline claim: Segue halves the instruction count of the sandboxed
// memory access and shrinks code.
func TestSegueCodeShape(t *testing.T) {
	m := ir.NewModule("fig1", 1, 1)
	// Pattern 2: u32 b = obj->arr[idx] — base + idx*4 + 8.
	fb := m.NewFunc("pat2", ir.Sig([]ir.ValType{ir.I32, ir.I32}, []ir.ValType{ir.I32}))
	fb.Get(1).I32(2).I32Shl().Get(0).I32Add()
	fb.I32Load(8)
	fb.MustBuild()
	m.MustExport("pat2")

	count := func(mode sfi.Mode) (insts int, bytes int) {
		prog, _, err := sfi.Compile(m, sfi.DefaultConfig(mode))
		if err != nil {
			t.Fatal(err)
		}
		f := prog.Funcs[0]
		return len(f.Insts), f.ByteLen
	}
	gi, gb := count(sfi.ModeGuard)
	si, sb := count(sfi.ModeSegue)
	if si >= gi {
		t.Errorf("Segue instruction count %d should be below Guard %d", si, gi)
	}
	if sb >= gb {
		t.Errorf("Segue code size %d should be below Guard %d", sb, gb)
	}
	t.Logf("pattern 2: guard %d insts / %d bytes, segue %d insts / %d bytes", gi, gb, si, sb)
}

// TestF64Result sanity-checks float returns end to end.
func TestF64Result(t *testing.T) {
	m := buildF64()
	mod, err := CompileModule(m, sfi.DefaultConfig(sfi.ModeGuard))
	if err != nil {
		t.Fatal(err)
	}
	inst, err := NewInstance(mod, InstanceOptions{FSGSBASE: true})
	if err != nil {
		t.Fatal(err)
	}
	res, err := inst.Invoke("f", 10)
	if err != nil {
		t.Fatal(err)
	}
	interp, _ := ir.NewInterp(buildF64(), nil)
	want, _ := interp.Invoke("f", 10)
	got := math.Float64frombits(res[0])
	if got != math.Float64frombits(want[0]) || math.IsNaN(got) {
		t.Fatalf("f(10) = %g, interpreter says %g", got, math.Float64frombits(want[0]))
	}
}

func ExampleInstance_Invoke() {
	m := ir.NewModule("hello", 1, 1)
	fb := m.NewFunc("add", ir.Sig([]ir.ValType{ir.I32, ir.I32}, []ir.ValType{ir.I32}))
	fb.Get(0).Get(1).I32Add()
	fb.MustBuild()
	m.MustExport("add")

	mod, _ := CompileModule(m, sfi.DefaultConfig(sfi.ModeSegue))
	inst, _ := NewInstance(mod, InstanceOptions{FSGSBASE: true})
	res, _ := inst.Invoke("add", 2, 40)
	fmt.Println(res[0])
	// Output: 42
}

// TestSignedOffsetScheme: Wasmtime's 2+2 GiB layout (§5.1). A corrupt
// index with the sign bit set traps in the PRE-guard region (negative
// offset) rather than wrapping into valid memory, and normal execution
// is unaffected.
func TestSignedOffsetScheme(t *testing.T) {
	cfg := sfi.DefaultConfig(sfi.ModeGuard)
	cfg.SignedOffset = true

	// Functional check across the differential corpus cases that use
	// wrapped addresses.
	for _, tc := range diffCases {
		for _, args := range tc.argSets {
			mRef := tc.build()
			interp, _ := ir.NewInterp(mRef, nil)
			want, wantErr := interp.Invoke(tc.entry, args...)
			mod, err := CompileModule(tc.build(), cfg)
			if err != nil {
				t.Fatalf("%s: %v", tc.name, err)
			}
			inst, err := NewInstance(mod, InstanceOptions{
				FSGSBASE:      true,
				GuardBytes:    2 << 30,
				PreGuardBytes: 2 << 30,
			})
			if err != nil {
				t.Fatal(err)
			}
			got, gotErr := inst.Invoke(tc.entry, args...)
			if (wantErr == nil) != (gotErr == nil) {
				t.Fatalf("%s args %v: err mismatch %v vs %v", tc.name, args, wantErr, gotErr)
			}
			if wantErr == nil && len(want) > 0 && want[0] != got[0] {
				t.Fatalf("%s args %v: %#x vs %#x", tc.name, args, got[0], want[0])
			}
		}
	}

	// Isolation check: an i64-derived address with the top bit set is
	// sign-extended and faults BELOW the heap.
	m := ir.NewModule("neg", 1, 1)
	fb := m.NewFunc("rd", ir.Sig([]ir.ValType{ir.I64}, []ir.ValType{ir.I32}))
	fb.Get(0).I32WrapI64().I32Load(0)
	fb.MustBuild()
	m.MustExport("rd")
	mod, err := CompileModule(m, cfg)
	if err != nil {
		t.Fatal(err)
	}
	inst, err := NewInstance(mod, InstanceOptions{
		FSGSBASE:      true,
		GuardBytes:    2 << 30,
		PreGuardBytes: 2 << 30,
	})
	if err != nil {
		t.Fatal(err)
	}
	_, err = inst.Invoke("rd", 0x80000000) // sign bit set: negative offset
	var trap *cpu.Trap
	if !errors.As(err, &trap) || trap.Kind != cpu.TrapPageFault {
		t.Fatalf("err = %v, want pre-guard page fault", err)
	}
	if trap.Addr >= inst.HeapBase {
		t.Fatalf("fault at %#x is not below the heap base %#x (pre-guard)", trap.Addr, inst.HeapBase)
	}
}

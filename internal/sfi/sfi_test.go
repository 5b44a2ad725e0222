package sfi_test

import (
	"testing"

	"repro/internal/cpu"
	"repro/internal/ir"
	"repro/internal/rt"
	"repro/internal/sfi"
	"repro/internal/x86"
)

// compile compiles m under cfg, failing the test on error.
func compile(t *testing.T, m *ir.Module, cfg sfi.Config) *cpu.Program {
	t.Helper()
	prog, _, err := sfi.Compile(m, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return prog
}

// fig1Module builds the two memory-access patterns of the paper's
// Figure 1: an int-to-pointer dereference (pattern 1) and a struct
// array-element read (pattern 2).
func fig1Module() *ir.Module {
	m := ir.NewModule("fig1", 1, 1)
	p1 := m.NewFunc("pattern1", ir.Sig([]ir.ValType{ir.I64}, []ir.ValType{ir.I64}))
	p1.Get(0).I32WrapI64().I64Load(0)
	p1.MustBuild()
	p2 := m.NewFunc("pattern2", ir.Sig([]ir.ValType{ir.I32, ir.I32}, []ir.ValType{ir.I32}))
	p2.Get(1).I32(2).I32Shl().Get(0).I32Add()
	p2.I32Load(8)
	p2.MustBuild()
	m.MustExport("pattern1")
	m.MustExport("pattern2")
	if err := m.Validate(); err != nil {
		panic(err)
	}
	return m
}

// TestFigure1InstructionCounts verifies the headline claim: Segue
// compiles each sandboxed access pattern with one fewer instruction
// than classic guard SFI, matching Figure 1's 2-vs-1 shape.
func TestFigure1InstructionCounts(t *testing.T) {
	m := fig1Module()
	counts := func(mode sfi.Mode) (p1, p2 int) {
		prog := compile(t, m, sfi.DefaultConfig(mode))
		return len(prog.Funcs[0].Insts), len(prog.Funcs[1].Insts)
	}
	g1, g2 := counts(sfi.ModeGuard)
	s1, s2 := counts(sfi.ModeSegue)
	n1, n2 := counts(sfi.ModeNative)
	if s1 >= g1 {
		t.Errorf("pattern 1: segue %d insts, guard %d — segue should be smaller", s1, g1)
	}
	if s2 >= g2 {
		t.Errorf("pattern 2: segue %d insts, guard %d — segue should be smaller", s2, g2)
	}
	// Segue reaches parity with native code (the §9 claim).
	if s1 != n1 || s2 != n2 {
		t.Errorf("segue (%d,%d) should match native (%d,%d) instruction counts", s1, s2, n1, n2)
	}
	t.Logf("pattern1 guard=%d segue=%d native=%d; pattern2 guard=%d segue=%d native=%d", g1, s1, n1, g2, s2, n2)
}

// TestWAMRLimitedSegue: with FoldOperandSlot disabled (WAMR's
// register-only Segue, §4.2), computed addresses do not shrink below
// the guard-mode instruction count.
func TestWAMRLimitedSegue(t *testing.T) {
	m := fig1Module()
	cfg := sfi.DefaultConfig(sfi.ModeSegue)
	cfg.FoldOperandSlot = false
	prog := compile(t, m, cfg)
	limited := len(prog.Funcs[1].Insts)
	full := compile(t, m, sfi.DefaultConfig(sfi.ModeSegue))
	if len(full.Funcs[1].Insts) >= limited {
		t.Errorf("full segue (%d insts) should beat register-only segue (%d)", len(full.Funcs[1].Insts), limited)
	}
}

// TestLFIPinsR15: LFI keeps the heap base pinned even under Segue, so
// its functions save fewer callee registers and instrument returns.
func TestLFIPinsR15(t *testing.T) {
	if !sfi.DefaultConfig(sfi.ModeLFISegue).PinsR15() {
		t.Error("LFI+Segue must pin R15 (§4.3)")
	}
	if sfi.DefaultConfig(sfi.ModeSegue).PinsR15() {
		t.Error("full Segue must free R15")
	}
	cfg := sfi.DefaultConfig(sfi.ModeSegue)
	cfg.SegueLoadsOnly = true
	if !cfg.PinsR15() {
		t.Error("loads-only Segue still needs R15 for stores")
	}
}

// TestLFIReturnInstrumentation: LFI epilogues carry the NaCl-style
// return masking sequence; plain guard epilogues do not.
func TestLFIReturnInstrumentation(t *testing.T) {
	m := fig1Module()
	count := func(mode sfi.Mode) int {
		prog := compile(t, m, sfi.DefaultConfig(mode))
		return len(prog.Funcs[0].Insts)
	}
	if lfi, guard := count(sfi.ModeLFI), count(sfi.ModeGuard); lfi <= guard {
		t.Errorf("LFI (%d insts) should exceed guard (%d) from control-flow instrumentation", lfi, guard)
	}
}

// buildRegression is the register-clobbering shape that triggered the
// scaled-pair bug: pair-folded 16-bit loads feeding a branchy
// condition with shifted comparisons and a division.
func buildRegression() *ir.Module {
	m := ir.NewModule("regress", 1, 1)
	data := make([]byte, 1024)
	for i := range data {
		data[i] = byte(i*7 + 3)
	}
	m.AddData(0, data)
	const (
		n    = 0
		y    = 1
		e    = 2
		acc  = 3
		base = 4
		y0   = 5
		y1   = 6
	)
	fb := m.NewFunc("run", ir.Sig([]ir.ValType{ir.I32}, []ir.ValType{ir.I32}),
		ir.I32, ir.I32, ir.I32, ir.I32, ir.I32, ir.I32)
	fb.I32(64).Set(base)
	fb.LoopNDyn(y, n, 0, 1, func() {
		fb.LoopN(e, 0, 8, 1, func() {
			fb.Get(base).Get(e).I32(3).I32Shl().I32Add().I32Load16U(2).Set(y0)
			fb.Get(base).Get(e).I32(3).I32Shl().I32Add().I32Load16U(6).Set(y1)
			fb.Get(y0).Get(y).I32(8).I32Shl().I32(128).I32Or().I32LeS()
			fb.Get(y).I32(8).I32Shl().I32(128).I32Or().Get(y1).I32LtS()
			fb.I32And()
			fb.If()
			fb.Get(y0).I32(100).I32Mul()
			fb.Get(y1).Get(y0).I32Sub().I32(1).I32Or().I32DivS()
			fb.Get(acc).I32Add().Set(acc)
			fb.End()
		})
	})
	fb.Get(acc)
	fb.MustBuild()
	m.MustExport("run")
	if err := m.Validate(); err != nil {
		panic(err)
	}
	return m
}

// TestScaledPairRegression guards against the register-protection bug
// where forming base+index*scale pairs could clobber the index while
// materializing the base.
func TestScaledPairRegression(t *testing.T) {
	interp, _ := ir.NewInterp(buildRegression(), nil)
	want, err := interp.Invoke("run", 3000)
	if err != nil {
		t.Fatal(err)
	}
	for _, mode := range []sfi.Mode{sfi.ModeGuard, sfi.ModeSegue, sfi.ModeBoundsCheck, sfi.ModeLFI} {
		mod, err := rt.CompileModule(buildRegression(), sfi.DefaultConfig(mode))
		if err != nil {
			t.Fatal(err)
		}
		inst, err := rt.NewInstance(mod, rt.InstanceOptions{FSGSBASE: true})
		if err != nil {
			t.Fatal(err)
		}
		got, err := inst.Invoke("run", 3000)
		if err != nil {
			t.Fatalf("%v: %v", mode, err)
		}
		if got[0] != want[0] {
			t.Errorf("%v: %#x, want %#x", mode, got[0], want[0])
		}
	}
}

// TestOversizedOffsetRegression covers the sibling bug: static offsets
// beyond the fold limit computed into an untracked register that a
// bounds-check temporary could clobber.
func TestOversizedOffsetRegression(t *testing.T) {
	m := ir.NewModule("bigoff", 16, 16)
	fb := m.NewFunc("run", ir.Sig([]ir.ValType{ir.I32}, []ir.ValType{ir.I32}), ir.I32, ir.I32)
	fb.LoopNDyn(1, 0, 0, 1, func() {
		fb.Get(1).I32(2).I32Shl()
		fb.Get(1).I32(3).I32Mul()
		fb.I32Store(524288) // far beyond FoldDispLimit
		fb.Get(1).I32(2).I32Shl().I32Load8U(524289)
		fb.Get(2).I32Add().Set(2)
	})
	fb.Get(2)
	fb.MustBuild()
	m.MustExport("run")
	if err := m.Validate(); err != nil {
		t.Fatal(err)
	}
	interp, _ := ir.NewInterp(m, nil)
	want, err := interp.Invoke("run", 50)
	if err != nil {
		t.Fatal(err)
	}
	for _, mode := range []sfi.Mode{sfi.ModeGuard, sfi.ModeSegue, sfi.ModeBoundsCheck, sfi.ModeBoundsSegue} {
		mod, err := rt.CompileModule(m, sfi.DefaultConfig(mode))
		if err != nil {
			t.Fatal(err)
		}
		inst, err := rt.NewInstance(mod, rt.InstanceOptions{FSGSBASE: true})
		if err != nil {
			t.Fatal(err)
		}
		got, err := inst.Invoke("run", 50)
		if err != nil {
			t.Fatalf("%v: %v", mode, err)
		}
		if got[0] != want[0] {
			t.Errorf("%v: %#x, want %#x", mode, got[0], want[0])
		}
	}
}

// TestDisassemble sanity-checks the listing output used by cmd/sfic.
func TestDisassemble(t *testing.T) {
	prog := compile(t, fig1Module(), sfi.DefaultConfig(sfi.ModeSegue))
	out := sfi.Disassemble(prog.Funcs[1])
	if len(out) == 0 {
		t.Fatal("empty disassembly")
	}
	found := false
	for _, in := range prog.Funcs[1].Insts {
		for _, op := range []x86.Operand{in.Dst, in.Src} {
			if op.Kind == x86.KindMem && op.Mem.Seg == x86.SegGS {
				found = true
			}
		}
	}
	if !found {
		t.Error("segue compilation of pattern 2 contains no gs-relative access")
	}
}

package cpu

import (
	"testing"

	"repro/internal/x86"
)

// diffRun executes the same call on one machine per tier, built from
// identical environments, and asserts the architectural state and Stats
// are bit-identical across all of them.
func diffRun(t *testing.T, funcs []*Func, fnIdx int, args ...uint64) {
	t.Helper()
	run := func(tier Tier) (*Machine, error) {
		m, heap := testEnv(t, funcs...)
		m.Tier = tier
		m.Regs[x86.RDX] = heap // convention: heap base in rdx for mem tests
		err := m.Call(fnIdx, args...)
		return m, err
	}
	slow, errS := run(TierSlow)
	for _, tier := range []Tier{TierFast, TierFused} {
		got, errG := run(tier)
		sameRun(t, tier.String(), got, errG, slow, errS)
	}
}

// sameRun asserts that a run retired bit-identical architectural state,
// Stats, trap, and heap contents to the slow-tier oracle's run.
func sameRun(t *testing.T, tier string, got *Machine, errG error, slow *Machine, errS error) {
	t.Helper()
	if (errG == nil) != (errS == nil) {
		t.Fatalf("%v error mismatch: %v=%v slow=%v", tier, tier, errG, errS)
	}
	if errG != nil && errG.Error() != errS.Error() {
		t.Fatalf("%v error text mismatch: %v=%v slow=%v", tier, tier, errG, errS)
	}
	if got.Regs != slow.Regs {
		t.Fatalf("%v register mismatch:\n%v %v\nslow %v", tier, tier, got.Regs, slow.Regs)
	}
	if got.XmmLo != slow.XmmLo || got.XmmHi != slow.XmmHi {
		t.Fatalf("%v xmm mismatch", tier)
	}
	if got.GSBase != slow.GSBase || got.FSBase != slow.FSBase || got.PKRU != slow.PKRU {
		t.Fatalf("%v segment/pkru mismatch", tier)
	}
	if got.zf != slow.zf || got.sf != slow.sf || got.cf != slow.cf || got.of != slow.of {
		t.Fatalf("%v flags mismatch", tier)
	}
	if got.Stats != slow.Stats {
		t.Fatalf("%v stats mismatch:\n%v %+v\nslow %+v", tier, tier, got.Stats, slow.Stats)
	}
	// Compare the heap region the programs may have written.
	const heapBase = 0x100000000
	for off := uint64(0); off < 4096; off += 8 {
		if g, s := got.AS.Load(heapBase+off, 8), slow.AS.Load(heapBase+off, 8); g != s {
			t.Fatalf("%v heap mismatch at +%#x: %#x slow %#x", tier, off, g, s)
		}
	}
}

// TestFastSlowAgreement drives both execution paths through a program
// covering the integer ALU, shifts, flags consumers, memory operands
// (including scaled index and 32-bit address override), calls, a jump
// table, and scalar/vector float ops, asserting bit-identical results.
func TestFastSlowAgreement(t *testing.T) {
	heapMem := func(disp int32) x86.Mem {
		return x86.Mem{Base: x86.RDX, Disp: disp}
	}
	callee := &Func{Name: "callee", Insts: []x86.Inst{
		{Op: x86.LEA, W: x86.W64, Dst: x86.R(x86.RAX),
			Src: x86.M(x86.Mem{Base: x86.RDI, Index: x86.RSI, Scale: 4, Disp: 17})},
		{Op: x86.RET},
	}}
	main := &Func{Name: "main", Insts: []x86.Inst{
		// ALU + flags.
		{Op: x86.MOV, W: x86.W64, Dst: x86.R(x86.RAX), Src: x86.R(x86.RDI)},
		{Op: x86.ADD, W: x86.W64, Dst: x86.R(x86.RAX), Src: x86.Imm(12345)},
		{Op: x86.SHL, W: x86.W64, Dst: x86.R(x86.RAX), Src: x86.Imm(3)},
		{Op: x86.XOR, W: x86.W32, Dst: x86.R(x86.RAX), Src: x86.Imm(0x5A5A)},
		{Op: x86.SAR, W: x86.W64, Dst: x86.R(x86.RAX), Src: x86.Imm(1)},
		{Op: x86.ROL, W: x86.W64, Dst: x86.R(x86.RAX), Src: x86.Imm(7)},
		{Op: x86.POPCNT, W: x86.W64, Dst: x86.R(x86.RCX), Src: x86.R(x86.RAX)},
		// Memory: store/load through [rdx+disp], scaled index, addr32.
		{Op: x86.MOV, W: x86.W64, Dst: x86.M(heapMem(0)), Src: x86.R(x86.RAX)},
		{Op: x86.MOV, W: x86.W64, Dst: x86.R(x86.RBX), Src: x86.M(heapMem(0))},
		{Op: x86.MOV, W: x86.W32, Dst: x86.M(x86.Mem{Base: x86.RDX, Index: x86.RCX, Scale: 8, Disp: 64}),
			Src: x86.Imm(0x7EAD)},
		{Op: x86.MOVZX, W: x86.W64, SrcW: x86.W16, Dst: x86.R(x86.R10), Src: x86.M(heapMem(0))},
		{Op: x86.MOVSX, W: x86.W64, SrcW: x86.W8, Dst: x86.R(x86.R11), Src: x86.M(heapMem(1))},
		// Branching loop: r8 counts down from rdi&7.
		{Op: x86.MOV, W: x86.W64, Dst: x86.R(x86.R8), Src: x86.R(x86.RDI)}, // 12
		{Op: x86.AND, W: x86.W64, Dst: x86.R(x86.R8), Src: x86.Imm(7)},
		{Op: x86.CMP, W: x86.W64, Dst: x86.R(x86.R8), Src: x86.Imm(0)}, // 14
		{Op: x86.JCC, Cond: x86.CondE, Dst: x86.Label(18)},
		{Op: x86.SUB, W: x86.W64, Dst: x86.R(x86.R8), Src: x86.Imm(1)},
		{Op: x86.JMP, Dst: x86.Label(14)},
		// Call the LEA callee. 18:
		{Op: x86.MOV, W: x86.W64, Dst: x86.R(x86.RSI), Src: x86.Imm(6)},
		{Op: x86.CALLFN, Dst: x86.Imm(1)},
		// Jump table on rax&3.
		{Op: x86.MOV, W: x86.W64, Dst: x86.R(x86.R9), Src: x86.R(x86.RAX)}, // 20
		{Op: x86.AND, W: x86.W64, Dst: x86.R(x86.R9), Src: x86.Imm(3)},
		{Op: x86.JTAB, Dst: x86.R(x86.R9), Src: x86.Label(26), Targets: []int{23, 24, 25, 26}},
		{Op: x86.ADD, W: x86.W64, Dst: x86.R(x86.RAX), Src: x86.Imm(100)}, // 23
		{Op: x86.ADD, W: x86.W64, Dst: x86.R(x86.RAX), Src: x86.Imm(200)}, // 24
		{Op: x86.ADD, W: x86.W64, Dst: x86.R(x86.RAX), Src: x86.Imm(300)}, // 25
		// Floats. 26:
		{Op: x86.CVTSI2SD, W: x86.W64, Dst: x86.X(0), Src: x86.R(x86.RDI)},
		{Op: x86.CVTSI2SD, W: x86.W64, Dst: x86.X(1), Src: x86.R(x86.RCX)},
		{Op: x86.ADDSD, Dst: x86.X(0), Src: x86.X(1)},
		{Op: x86.MULSD, Dst: x86.X(0), Src: x86.X(1)},
		{Op: x86.MOVSD, Dst: x86.X(2), Src: x86.X(0)},
		{Op: x86.DIVSD, Dst: x86.X(2), Src: x86.X(1)},
		{Op: x86.MINSD, Dst: x86.X(2), Src: x86.X(0)},
		{Op: x86.ABSSD, Dst: x86.X(2)},
		{Op: x86.CMP, W: x86.W64, Dst: x86.R(x86.RAX), Src: x86.R(x86.RCX)},
		{Op: x86.SETCC, Cond: x86.CondA, Dst: x86.R(x86.R12)},
		{Op: x86.MOVSD, Dst: x86.M(heapMem(128)), Src: x86.X(2)},
		{Op: x86.MOVSD, Dst: x86.X(3), Src: x86.M(heapMem(128))},
		// Vector.
		{Op: x86.MOVQRX, Dst: x86.X(4), Src: x86.R(x86.RAX)},
		{Op: x86.PXOR, Dst: x86.X(5), Src: x86.X(4)},
		{Op: x86.MOVDQU, Dst: x86.M(heapMem(256)), Src: x86.X(4)},
		{Op: x86.MOVDQU, Dst: x86.X(6), Src: x86.M(heapMem(256))},
		{Op: x86.MOVQXR, Dst: x86.R(x86.R13), Src: x86.X(6)},
		// Division.
		{Op: x86.MOV, W: x86.W64, Dst: x86.R(x86.RCX), Src: x86.Imm(7)},
		{Op: x86.CQO, W: x86.W64},
		{Op: x86.IDIV, W: x86.W64, Dst: x86.R(x86.RCX)},
		{Op: x86.RET},
	}}
	for _, arg := range []uint64{0, 1, 5, 13, 255, 1 << 20, 0xFFFFFFFFFFFFFFFF} {
		diffRun(t, []*Func{main, callee}, 0, arg)
	}
}

// TestFastSlowTraps checks the two paths agree on trap kinds and
// positions for div-by-zero, bounds, and page-fault traps.
func TestFastSlowTraps(t *testing.T) {
	div := &Func{Name: "div0", Insts: []x86.Inst{
		{Op: x86.XOR, W: x86.W64, Dst: x86.R(x86.RCX), Src: x86.R(x86.RCX)},
		{Op: x86.CQO, W: x86.W64},
		{Op: x86.IDIV, W: x86.W64, Dst: x86.R(x86.RCX)},
		{Op: x86.RET},
	}}
	diffRun(t, []*Func{div}, 0, 10)

	bounds := &Func{Name: "oob", Insts: []x86.Inst{
		{Op: x86.CMP, W: x86.W64, Dst: x86.R(x86.RDI), Src: x86.Imm(8)},
		{Op: x86.TRAPIF, Cond: x86.CondA},
		{Op: x86.RET},
	}}
	diffRun(t, []*Func{bounds}, 0, 9)

	fault := &Func{Name: "fault", Insts: []x86.Inst{
		// The test heap is 1 MiB; +1 MiB lands in the PROT_NONE guard.
		{Op: x86.MOV, W: x86.W64, Dst: x86.R(x86.RAX),
			Src: x86.M(x86.Mem{Base: x86.RDX, Disp: 1 << 20})},
		{Op: x86.RET},
	}}
	diffRun(t, []*Func{fault}, 0)
}

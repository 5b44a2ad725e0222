package cpu

import (
	"errors"
	"math"
	"testing"

	"repro/internal/mem"
	"repro/internal/x86"
)

// testEnv builds an address space with a 64 KiB stack at stackTop and a
// 1 MiB rw heap at heapBase, and a machine over the given functions.
func testEnv(t *testing.T, funcs ...*Func) (*Machine, uint64) {
	t.Helper()
	for _, f := range funcs {
		f.Encode()
	}
	return testEnvProg(t, &Program{Funcs: funcs})
}

// testEnvProg is testEnv over an existing (encoded) Program, for tests
// that run several machines on one Program's streams.
func testEnvProg(t *testing.T, prog *Program) (*Machine, uint64) {
	t.Helper()
	as := mem.NewAS(47)
	const stackBase = 0x7f0000000000
	const stackSize = 64 << 10
	if err := as.Mmap(stackBase, stackSize, mem.ProtRead|mem.ProtWrite); err != nil {
		t.Fatal(err)
	}
	const heapBase = 0x100000000 // 4 GiB mark
	if err := as.Mmap(heapBase, 1<<20, mem.ProtRead|mem.ProtWrite); err != nil {
		t.Fatal(err)
	}
	// Guard after the heap: 64 KiB of PROT_NONE.
	if err := as.Mmap(heapBase+1<<20, 64<<10, mem.ProtNone); err != nil {
		t.Fatal(err)
	}
	m := NewMachine(as, prog)
	m.Regs[x86.RSP] = stackBase + stackSize
	return m, heapBase
}

func TestALUAndResult(t *testing.T) {
	// f(a, b) = (a + b) * 3 - 1
	f := &Func{Name: "f", Insts: []x86.Inst{
		{Op: x86.MOV, W: x86.W64, Dst: x86.R(x86.RAX), Src: x86.R(x86.RDI)},
		{Op: x86.ADD, W: x86.W64, Dst: x86.R(x86.RAX), Src: x86.R(x86.RSI)},
		{Op: x86.IMUL, W: x86.W64, Dst: x86.R(x86.RAX), Src: x86.Imm(3)},
		{Op: x86.SUB, W: x86.W64, Dst: x86.R(x86.RAX), Src: x86.Imm(1)},
		{Op: x86.RET},
	}}
	m, _ := testEnv(t, f)
	if err := m.Call(0, 5, 7); err != nil {
		t.Fatal(err)
	}
	if m.Result() != 35 {
		t.Fatalf("result = %d, want 35", m.Result())
	}
	if m.Stats.Insts != 5 {
		t.Fatalf("insts = %d", m.Stats.Insts)
	}
	if m.Stats.Cycles <= 0 {
		t.Fatal("no cycles accumulated")
	}
}

func TestLoop(t *testing.T) {
	// sum 0..n-1: rax=0; rcx=0; loop: cmp rcx,rdi; jge done; add rax,rcx; inc; jmp
	f := &Func{Name: "sum", Insts: []x86.Inst{
		{Op: x86.XOR, W: x86.W64, Dst: x86.R(x86.RAX), Src: x86.R(x86.RAX)}, // 0
		{Op: x86.XOR, W: x86.W64, Dst: x86.R(x86.RCX), Src: x86.R(x86.RCX)}, // 1
		{Op: x86.CMP, W: x86.W64, Dst: x86.R(x86.RCX), Src: x86.R(x86.RDI)}, // 2
		{Op: x86.JCC, Cond: x86.CondGE, Dst: x86.Label(7)},                  // 3
		{Op: x86.ADD, W: x86.W64, Dst: x86.R(x86.RAX), Src: x86.R(x86.RCX)}, // 4
		{Op: x86.ADD, W: x86.W64, Dst: x86.R(x86.RCX), Src: x86.Imm(1)},     // 5
		{Op: x86.JMP, Dst: x86.Label(2)},                                    // 6
		{Op: x86.RET},                                                       // 7
	}}
	m, _ := testEnv(t, f)
	if err := m.Call(0, 100); err != nil {
		t.Fatal(err)
	}
	if m.Result() != 4950 {
		t.Fatalf("sum(100) = %d", m.Result())
	}
	if m.Stats.Branches == 0 {
		t.Fatal("no branches counted")
	}
}

func TestMemoryAndSegment(t *testing.T) {
	// Segue pattern: store via gs:[edi], load back via gs:[edi].
	f := &Func{Name: "seg", Insts: []x86.Inst{
		{Op: x86.MOV, W: x86.W64, Dst: x86.M(x86.Mem{Seg: x86.SegGS, Base: x86.RDI, Addr32: true}), Src: x86.R(x86.RSI)},
		{Op: x86.MOV, W: x86.W64, Dst: x86.R(x86.RAX), Src: x86.M(x86.Mem{Seg: x86.SegGS, Base: x86.RDI, Addr32: true})},
		{Op: x86.RET},
	}}
	m, heap := testEnv(t, f)
	m.GSBase = heap
	if err := m.Call(0, 0x100, 0xdeadbeefcafe); err != nil {
		t.Fatal(err)
	}
	if m.Result() != 0xdeadbeefcafe {
		t.Fatalf("result = %#x", m.Result())
	}
	// The store landed at heap+0x100.
	if got := m.AS.Load(heap+0x100, 8); got != 0xdeadbeefcafe {
		t.Fatalf("memory = %#x", got)
	}
	// The addr-size override truncates: offset 2^32+0x100 wraps to 0x100.
	m2, heap2 := testEnv(t, f)
	m2.GSBase = heap2
	if err := m2.Call(0, 1<<32|0x200, 42); err != nil {
		t.Fatal(err)
	}
	if got := m2.AS.Load(heap2+0x200, 8); got != 42 {
		t.Fatalf("wrapped store = %d", got)
	}
}

func TestGuardPageTrap(t *testing.T) {
	f := &Func{Name: "oob", Insts: []x86.Inst{
		{Op: x86.MOV, W: x86.W64, Dst: x86.R(x86.RAX), Src: x86.M(x86.Mem{Seg: x86.SegGS, Base: x86.RDI, Addr32: true})},
		{Op: x86.RET},
	}}
	m, heap := testEnv(t, f)
	m.GSBase = heap
	err := m.Call(0, 1<<20) // first byte past the heap: guard region
	var trap *Trap
	if !errors.As(err, &trap) || trap.Kind != TrapPageFault {
		t.Fatalf("err = %v, want page fault", err)
	}
	if trap.Addr != heap+1<<20 {
		t.Fatalf("fault addr = %#x", trap.Addr)
	}
}

func TestPkeyTrap(t *testing.T) {
	f := &Func{Name: "pk", Insts: []x86.Inst{
		{Op: x86.MOV, W: x86.W64, Dst: x86.R(x86.RAX), Src: x86.M(x86.Mem{Base: x86.RDI})},
		{Op: x86.RET},
	}}
	m, heap := testEnv(t, f)
	// Color the second half of the heap with key 5 and deny it.
	if err := m.AS.PkeyMprotect(heap+512<<10, 512<<10, mem.ProtRead|mem.ProtWrite, 5); err != nil {
		t.Fatal(err)
	}
	m.PKRU = mem.PkruAllowOnly(1)
	err := m.Call(0, heap+600<<10)
	var trap *Trap
	if !errors.As(err, &trap) || trap.Kind != TrapPkey {
		t.Fatalf("err = %v, want pkey fault", err)
	}
	// A PKRU that allows key 5, as a transition into that sandbox sets
	// it, lets the same load through.
	m2, heap2 := testEnv(t, f)
	if err := m2.AS.PkeyMprotect(heap2+512<<10, 512<<10, mem.ProtRead|mem.ProtWrite, 5); err != nil {
		t.Fatal(err)
	}
	m2.PKRU = mem.PkruAllowOnly(5)
	m2.AS.Store(heap2+600<<10, 8, 77)
	if err := m2.Call(0, heap2+600<<10); err != nil {
		t.Fatal(err)
	}
	if m2.Result() != 77 {
		t.Fatalf("result = %d", m2.Result())
	}
}

// TestWRPKRUCost pins the §6.4.1 price of a PKRU switch, which
// internal/rt charges on every crossing into and out of a colored slot.
func TestWRPKRUCost(t *testing.T) {
	if c := DefaultCostModel().WRPKRU; c < 40 || c > 50 {
		t.Fatalf("wrpkru cost = %.1f cycles, want ≈44", c)
	}
}

func TestCallsAndStack(t *testing.T) {
	// callee(a) = a*2 ; caller(a) = callee(a) + 1
	callee := &Func{Name: "callee", Insts: []x86.Inst{
		{Op: x86.MOV, W: x86.W64, Dst: x86.R(x86.RAX), Src: x86.R(x86.RDI)},
		{Op: x86.ADD, W: x86.W64, Dst: x86.R(x86.RAX), Src: x86.R(x86.RDI)},
		{Op: x86.RET},
	}}
	caller := &Func{Name: "caller", Insts: []x86.Inst{
		{Op: x86.CALLFN, Dst: x86.Imm(0)},
		{Op: x86.ADD, W: x86.W64, Dst: x86.R(x86.RAX), Src: x86.Imm(1)},
		{Op: x86.RET},
	}}
	m, _ := testEnv(t, callee, caller)
	spBefore := m.Regs[x86.RSP]
	if err := m.Call(1, 21); err != nil {
		t.Fatal(err)
	}
	if m.Result() != 43 {
		t.Fatalf("result = %d", m.Result())
	}
	if m.Regs[x86.RSP] != spBefore {
		t.Fatalf("stack imbalance: %#x vs %#x", m.Regs[x86.RSP], spBefore)
	}
}

func TestIndirectCall(t *testing.T) {
	callee := &Func{Name: "sq", Insts: []x86.Inst{
		{Op: x86.MOV, W: x86.W64, Dst: x86.R(x86.RAX), Src: x86.R(x86.RDI)},
		{Op: x86.IMUL, W: x86.W64, Dst: x86.R(x86.RAX), Src: x86.R(x86.RDI)},
		{Op: x86.RET},
	}}
	caller := &Func{Name: "via", Insts: []x86.Inst{
		// table slot in RSI; expected sig id 7.
		{Op: x86.CALLREG, Dst: x86.R(x86.RSI), Src: x86.Imm(7)},
		{Op: x86.RET},
	}}
	m, _ := testEnv(t, callee, caller)
	m.Prog.Table = []TableEntry{{FuncIdx: 0, SigID: 7}, {FuncIdx: NullTableEntry}, {FuncIdx: 0, SigID: 9}}
	if err := m.Call(1, 6, 0); err != nil {
		t.Fatal(err)
	}
	if m.Result() != 36 {
		t.Fatalf("result = %d", m.Result())
	}
	var trap *Trap
	if err := m.Call(1, 6, 1); !errors.As(err, &trap) || trap.Kind != TrapTableNull {
		t.Fatalf("null slot err = %v", err)
	}
	if err := m.Call(1, 6, 2); !errors.As(err, &trap) || trap.Kind != TrapTableSig {
		t.Fatalf("sig mismatch err = %v", err)
	}
	if err := m.Call(1, 6, 99); !errors.As(err, &trap) || trap.Kind != TrapTableOOB {
		t.Fatalf("oob slot err = %v", err)
	}
}

func TestEpochResume(t *testing.T) {
	// Infinite-ish loop with an epoch check at the back edge.
	f := &Func{Name: "spin", Insts: []x86.Inst{
		{Op: x86.XOR, W: x86.W64, Dst: x86.R(x86.RAX), Src: x86.R(x86.RAX)}, // 0
		{Op: x86.EPOCH}, // 1
		{Op: x86.ADD, W: x86.W64, Dst: x86.R(x86.RAX), Src: x86.Imm(1)},      // 2
		{Op: x86.CMP, W: x86.W64, Dst: x86.R(x86.RAX), Src: x86.Imm(100000)}, // 3
		{Op: x86.JCC, Cond: x86.CondL, Dst: x86.Label(1)},                    // 4
		{Op: x86.RET}, // 5
	}}
	m, _ := testEnv(t, f)
	m.EpochEnabled = true
	m.EpochDeadline = 50 // cycles: fires almost immediately
	m.Start(0, 0)
	yields := 0
	for {
		err := m.Run()
		if err == nil {
			break
		}
		var trap *Trap
		if !errors.As(err, &trap) || trap.Kind != TrapEpoch {
			t.Fatalf("err = %v", err)
		}
		yields++
		m.EpochDeadline = m.Stats.Cycles + 2000
		if yields > 1000 {
			t.Fatal("too many yields")
		}
	}
	if m.Result() != 100000 {
		t.Fatalf("result = %d", m.Result())
	}
	if yields == 0 {
		t.Fatal("never yielded")
	}
}

func TestFloatOps(t *testing.T) {
	// f(a, b) = |min((a*a + b*b) / (b*b), a)|, args in xmm0/xmm1.
	f := &Func{Name: "f", Insts: []x86.Inst{
		{Op: x86.MOVSD, Dst: x86.X(2), Src: x86.X(0)},
		{Op: x86.MULSD, Dst: x86.X(0), Src: x86.X(0)},
		{Op: x86.MULSD, Dst: x86.X(1), Src: x86.X(1)},
		{Op: x86.ADDSD, Dst: x86.X(0), Src: x86.X(1)},
		{Op: x86.DIVSD, Dst: x86.X(0), Src: x86.X(1)},
		{Op: x86.MINSD, Dst: x86.X(0), Src: x86.X(2)},
		{Op: x86.ABSSD, Dst: x86.X(0)},
		{Op: x86.RET},
	}}
	for _, c := range []struct{ a, b, want float64 }{{3, 4, 1.5625}, {-3, 4, 3}} {
		m, _ := testEnv(t, f)
		m.XmmLo[0] = math.Float64bits(c.a)
		m.XmmLo[1] = math.Float64bits(c.b)
		if err := m.Call(0); err != nil {
			t.Fatal(err)
		}
		if got := math.Float64frombits(m.XmmLo[0]); got != c.want {
			t.Fatalf("f(%g, %g) = %g, want %g", c.a, c.b, got, c.want)
		}
	}
}

func TestDivTraps(t *testing.T) {
	f := &Func{Name: "div", Insts: []x86.Inst{
		{Op: x86.MOV, W: x86.W64, Dst: x86.R(x86.RAX), Src: x86.R(x86.RDI)},
		{Op: x86.CQO, W: x86.W64},
		{Op: x86.IDIV, W: x86.W64, Dst: x86.R(x86.RSI)},
		{Op: x86.RET},
	}}
	m, _ := testEnv(t, f)
	if err := m.Call(0, 42, 7); err != nil {
		t.Fatal(err)
	}
	if m.Result() != 6 {
		t.Fatalf("42/7 = %d", m.Result())
	}
	var trap *Trap
	if err := m.Call(0, 42, 0); !errors.As(err, &trap) || trap.Kind != TrapDivZero {
		t.Fatalf("div0 err = %v", err)
	}
	if err := m.Call(0, 1<<63, ^uint64(0)); !errors.As(err, &trap) || trap.Kind != TrapOverflow {
		t.Fatalf("overflow err = %v", err)
	}
}

func TestTrapIf(t *testing.T) {
	f := &Func{Name: "bc", Insts: []x86.Inst{
		{Op: x86.CMP, W: x86.W64, Dst: x86.R(x86.RDI), Src: x86.Imm(100)},
		{Op: x86.TRAPIF, Cond: x86.CondA},
		{Op: x86.MOV, W: x86.W64, Dst: x86.R(x86.RAX), Src: x86.Imm(1)},
		{Op: x86.RET},
	}}
	m, _ := testEnv(t, f)
	if err := m.Call(0, 50); err != nil {
		t.Fatal(err)
	}
	var trap *Trap
	if err := m.Call(0, 150); !errors.As(err, &trap) || trap.Kind != TrapBounds {
		t.Fatalf("bounds err = %v", err)
	}
}

func TestHostCall(t *testing.T) {
	f := &Func{Name: "f", Insts: []x86.Inst{
		{Op: x86.CALLHOST, Dst: x86.Imm(0)},
		{Op: x86.ADD, W: x86.W64, Dst: x86.R(x86.RAX), Src: x86.Imm(1)},
		{Op: x86.RET},
	}}
	f.Encode()
	m, _ := testEnv(t, f)
	m.Hosts = []HostFunc{func(m *Machine) error {
		m.Regs[x86.RAX] = m.Regs[x86.RDI] * 10
		return nil
	}}
	if err := m.Call(0, 4); err != nil {
		t.Fatal(err)
	}
	if m.Result() != 41 {
		t.Fatalf("result = %d", m.Result())
	}
}

func TestWriteOpWidthRules(t *testing.T) {
	// 32-bit writes zero the upper half; 8/16-bit writes merge.
	f := &Func{Name: "w", Insts: []x86.Inst{
		{Op: x86.MOV, W: x86.W64, Dst: x86.R(x86.RAX), Src: x86.Imm(-1)},
		{Op: x86.MOV, W: x86.W32, Dst: x86.R(x86.RAX), Src: x86.Imm(0x1234)},
		{Op: x86.RET},
	}}
	m, _ := testEnv(t, f)
	if err := m.Call(0); err != nil {
		t.Fatal(err)
	}
	if m.Result() != 0x1234 {
		t.Fatalf("32-bit write result = %#x, want 0x1234 (upper bits zeroed)", m.Result())
	}
	g := &Func{Name: "w8", Insts: []x86.Inst{
		{Op: x86.MOV, W: x86.W64, Dst: x86.R(x86.RAX), Src: x86.Imm(0x1111111111111111)},
		{Op: x86.MOV, W: x86.W8, Dst: x86.R(x86.RAX), Src: x86.Imm(0xAB)},
		{Op: x86.RET},
	}}
	m2, _ := testEnv(t, g)
	if err := m2.Call(0); err != nil {
		t.Fatal(err)
	}
	if m2.Result() != 0x11111111111111AB {
		t.Fatalf("8-bit write result = %#x", m2.Result())
	}
}

func TestFetchCostPrefix(t *testing.T) {
	// The same loop body with gs-prefixed loads costs more fetch bytes.
	mk := func(seg x86.Seg, addr32 bool) *Func {
		return &Func{Name: "l", Insts: []x86.Inst{
			{Op: x86.MOV, W: x86.W64, Dst: x86.R(x86.RAX), Src: x86.M(x86.Mem{Seg: seg, Base: x86.RDI, Addr32: addr32})},
			{Op: x86.RET},
		}}
	}
	plain := mk(x86.SegNone, false)
	segue := mk(x86.SegGS, true)
	m1, heap := testEnv(t, plain)
	if err := m1.Call(0, heap); err != nil {
		t.Fatal(err)
	}
	m2, heap2 := testEnv(t, segue)
	m2.GSBase = heap2
	if err := m2.Call(0, 0); err != nil {
		t.Fatal(err)
	}
	if m2.Stats.BytesFetched <= m1.Stats.BytesFetched {
		t.Fatalf("segue fetch bytes %d should exceed plain %d", m2.Stats.BytesFetched, m1.Stats.BytesFetched)
	}
}

func TestJumpTable(t *testing.T) {
	// dispatch(i): jump table with 3 targets and a default.
	f := &Func{Name: "jt", Insts: []x86.Inst{
		{Op: x86.JTAB, Dst: x86.R(x86.RDI), Src: x86.Label(7), Targets: []int{1, 3, 5}}, // 0
		{Op: x86.MOV, W: x86.W64, Dst: x86.R(x86.RAX), Src: x86.Imm(10)},                // 1
		{Op: x86.RET}, // 2
		{Op: x86.MOV, W: x86.W64, Dst: x86.R(x86.RAX), Src: x86.Imm(20)}, // 3
		{Op: x86.RET}, // 4
		{Op: x86.MOV, W: x86.W64, Dst: x86.R(x86.RAX), Src: x86.Imm(30)}, // 5
		{Op: x86.RET}, // 6
		{Op: x86.MOV, W: x86.W64, Dst: x86.R(x86.RAX), Src: x86.Imm(99)}, // 7
		{Op: x86.RET}, // 8
	}}
	m, _ := testEnv(t, f)
	for _, c := range []struct{ in, want uint64 }{{0, 10}, {1, 20}, {2, 30}, {3, 99}, {1000, 99}} {
		if err := m.Call(0, c.in); err != nil {
			t.Fatal(err)
		}
		if m.Result() != c.want {
			t.Errorf("jt(%d) = %d, want %d", c.in, m.Result(), c.want)
		}
	}
}

func TestConditionMatrix(t *testing.T) {
	// cmp a, b then setcc for every condition, verified against Go.
	conds := []struct {
		c    x86.Cond
		eval func(a, b uint64) bool
	}{
		{x86.CondE, func(a, b uint64) bool { return a == b }},
		{x86.CondNE, func(a, b uint64) bool { return a != b }},
		{x86.CondL, func(a, b uint64) bool { return int64(a) < int64(b) }},
		{x86.CondLE, func(a, b uint64) bool { return int64(a) <= int64(b) }},
		{x86.CondG, func(a, b uint64) bool { return int64(a) > int64(b) }},
		{x86.CondGE, func(a, b uint64) bool { return int64(a) >= int64(b) }},
		{x86.CondB, func(a, b uint64) bool { return a < b }},
		{x86.CondBE, func(a, b uint64) bool { return a <= b }},
		{x86.CondA, func(a, b uint64) bool { return a > b }},
		{x86.CondAE, func(a, b uint64) bool { return a >= b }},
	}
	vals := []uint64{0, 1, 2, ^uint64(0), 1 << 63, 1<<63 - 1, 42}
	for _, cc := range conds {
		f := &Func{Name: "cmp", Insts: []x86.Inst{
			{Op: x86.CMP, W: x86.W64, Dst: x86.R(x86.RDI), Src: x86.R(x86.RSI)},
			{Op: x86.SETCC, Cond: cc.c, Dst: x86.R(x86.RAX)},
			{Op: x86.RET},
		}}
		m, _ := testEnv(t, f)
		for _, a := range vals {
			for _, b := range vals {
				if err := m.Call(0, a, b); err != nil {
					t.Fatal(err)
				}
				want := uint64(0)
				if cc.eval(a, b) {
					want = 1
				}
				if m.Result() != want {
					t.Errorf("set%v after cmp(%#x, %#x) = %d, want %d", cc.c, a, b, m.Result(), want)
				}
			}
		}
	}
}

func TestLEAAddr32Truncation(t *testing.T) {
	// lea edi, [rdi + rsi*4 + 8] truncates to 32 bits with Addr32.
	f := &Func{Name: "lea", Insts: []x86.Inst{
		{Op: x86.LEA, W: x86.W32, Dst: x86.R(x86.RAX),
			Src: x86.M(x86.Mem{Base: x86.RDI, Index: x86.RSI, Scale: 4, Disp: 8, Addr32: true})},
		{Op: x86.RET},
	}}
	m, _ := testEnv(t, f)
	if err := m.Call(0, 0xFFFFFFF0, 4); err != nil {
		t.Fatal(err)
	}
	var sum uint32 = 0xFFFFFFF0
	sum += 16 + 8 // wraps, as the address-size override does
	want := uint64(sum)
	if m.Result() != want {
		t.Errorf("lea = %#x, want %#x", m.Result(), want)
	}
}

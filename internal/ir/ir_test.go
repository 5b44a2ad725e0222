package ir

import (
	"errors"
	"math"
	"testing"
	"testing/quick"
)

// buildAdd returns a module with an exported i32 add function.
func buildAdd(t *testing.T) *Module {
	t.Helper()
	m := NewModule("add", 1, 1)
	fb := m.NewFunc("add", Sig([]ValType{I32, I32}, []ValType{I32}))
	fb.Get(0).Get(1).I32Add()
	fb.MustBuild()
	m.MustExport("add")
	if err := m.Validate(); err != nil {
		t.Fatalf("validate: %v", err)
	}
	return m
}

func run(t *testing.T, m *Module, name string, args ...uint64) []uint64 {
	t.Helper()
	ip, err := NewInterp(m, nil)
	if err != nil {
		t.Fatalf("instantiate: %v", err)
	}
	res, err := ip.Invoke(name, args...)
	if err != nil {
		t.Fatalf("invoke %s: %v", name, err)
	}
	return res
}

func TestAdd(t *testing.T) {
	m := buildAdd(t)
	res := run(t, m, "add", 2, 40)
	if len(res) != 1 || res[0] != 42 {
		t.Fatalf("add(2,40) = %v, want [42]", res)
	}
	// i32 wrap-around.
	res = run(t, m, "add", math.MaxUint32, 1)
	if res[0] != 0 {
		t.Fatalf("add(max,1) = %v, want 0", res[0])
	}
}

func TestLoopSum(t *testing.T) {
	m := NewModule("sum", 1, 1)
	fb := m.NewFunc("sum", Sig([]ValType{I32}, []ValType{I32}), I32, I32) // locals: i, acc
	fb.LoopNDyn(1, 0, 0, 1, func() {
		fb.Get(2).Get(1).I32Add().Set(2)
	})
	fb.Get(2)
	fb.MustBuild()
	m.MustExport("sum")
	if err := m.Validate(); err != nil {
		t.Fatalf("validate: %v", err)
	}
	res := run(t, m, "sum", 10)
	if res[0] != 45 { // 0+1+...+9
		t.Fatalf("sum(10) = %d, want 45", res[0])
	}
}

func TestIfElse(t *testing.T) {
	m := NewModule("max", 1, 1)
	fb := m.NewFunc("max", Sig([]ValType{I32, I32}, []ValType{I32}))
	fb.Get(0).Get(1).I32GtS()
	fb.If(I32)
	fb.Get(0)
	fb.Else()
	fb.Get(1)
	fb.End()
	fb.MustBuild()
	m.MustExport("max")
	if err := m.Validate(); err != nil {
		t.Fatalf("validate: %v", err)
	}
	if res := run(t, m, "max", 3, 9); res[0] != 9 {
		t.Fatalf("max(3,9) = %d", res[0])
	}
	if res := run(t, m, "max", 9, 3); res[0] != 9 {
		t.Fatalf("max(9,3) = %d", res[0])
	}
}

func TestBrTable(t *testing.T) {
	// classify(x): 0 -> 10, 1 -> 20, else -> 30
	m := NewModule("bt", 1, 1)
	fb := m.NewFunc("classify", Sig([]ValType{I32}, []ValType{I32}), I32)
	fb.Block() // depth 3 from the br_table: the result
	fb.Block() // depth 2 (default)
	fb.Block() // depth 1
	fb.Block() // depth 0
	fb.Get(0)
	fb.BrTable([]uint32{0, 1}, 2)
	fb.End()
	fb.I32(10).Set(1).Br(2)
	fb.End()
	fb.I32(20).Set(1).Br(1)
	fb.End()
	fb.I32(30).Set(1)
	fb.End()
	fb.Get(1)
	fb.MustBuild()
	m.MustExport("classify")
	if err := m.Validate(); err != nil {
		t.Fatalf("validate: %v", err)
	}
	for _, c := range []struct{ in, want uint64 }{{0, 10}, {1, 20}, {2, 30}, {99, 30}} {
		if res := run(t, m, "classify", c.in); res[0] != c.want {
			t.Errorf("classify(%d) = %d, want %d", c.in, res[0], c.want)
		}
	}
}

func TestCallAndIndirect(t *testing.T) {
	m := NewModule("calls", 1, 1)
	sq := m.NewFunc("square", Sig([]ValType{I32}, []ValType{I32}))
	sq.Get(0).Get(0).I32Mul()
	sq.MustBuild()
	db := m.NewFunc("double", Sig([]ValType{I32}, []ValType{I32}))
	db.Get(0).Get(0).I32Add()
	db.MustBuild()
	sqIdx, _ := m.FuncIndex("square")
	dbIdx, _ := m.FuncIndex("double")
	m.Table = []uint32{sqIdx, dbIdx, NullFunc}

	// apply(slot, x) = table[slot](x)
	ap := m.NewFunc("apply", Sig([]ValType{I32, I32}, []ValType{I32}))
	ap.Get(1).Get(0).CallIndirect(Sig([]ValType{I32}, []ValType{I32}))
	ap.MustBuild()

	// via direct call
	d := m.NewFunc("sq5", Sig(nil, []ValType{I32}))
	d.I32(5).CallNamed("square")
	d.MustBuild()

	m.MustExport("apply")
	m.MustExport("sq5")
	if err := m.Validate(); err != nil {
		t.Fatalf("validate: %v", err)
	}
	if res := run(t, m, "sq5"); res[0] != 25 {
		t.Fatalf("sq5 = %d", res[0])
	}
	if res := run(t, m, "apply", 0, 7); res[0] != 49 {
		t.Fatalf("apply(0,7) = %d", res[0])
	}
	if res := run(t, m, "apply", 1, 7); res[0] != 14 {
		t.Fatalf("apply(1,7) = %d", res[0])
	}

	ip, _ := NewInterp(m, nil)
	_, err := ip.Invoke("apply", 2, 7) // null element
	var trap *Trap
	if !errors.As(err, &trap) || trap.Kind != TrapIndirectNull {
		t.Fatalf("apply(2,7) err = %v, want null-element trap", err)
	}
	_, err = ip.Invoke("apply", 99, 7) // out of range
	if !errors.As(err, &trap) || trap.Kind != TrapIndirectOOB {
		t.Fatalf("apply(99,7) err = %v, want table-oob trap", err)
	}
}

func TestMemoryOps(t *testing.T) {
	m := NewModule("mem", 1, 2)
	m.AddData(8, []byte{1, 2, 3, 4})

	fb := m.NewFunc("rd", Sig([]ValType{I32}, []ValType{I32}))
	fb.Get(0).I32Load(0)
	fb.MustBuild()
	wb := m.NewFunc("wr", Sig([]ValType{I32, I32}, nil))
	wb.Get(0).Get(1).I32Store(0)
	wb.MustBuild()
	g := m.NewFunc("grow", Sig(nil, []ValType{I32}))
	g.I32(1).Op(OpMemoryGrow)
	g.MustBuild()
	m.MustExport("rd")
	m.MustExport("wr")
	m.MustExport("grow")
	if err := m.Validate(); err != nil {
		t.Fatalf("validate: %v", err)
	}
	ip, _ := NewInterp(m, nil)
	res, err := ip.Invoke("rd", 8)
	if err != nil || res[0] != 0x04030201 {
		t.Fatalf("rd(8) = %v, %v", res, err)
	}
	if _, err := ip.Invoke("wr", 100, 0xdeadbeef); err != nil {
		t.Fatalf("wr: %v", err)
	}
	res, _ = ip.Invoke("rd", 100)
	if res[0] != 0xdeadbeef {
		t.Fatalf("rd(100) = %#x", res[0])
	}

	// OOB load traps.
	_, err = ip.Invoke("rd", uint64(PageSize-2))
	var trap *Trap
	if !errors.As(err, &trap) || trap.Kind != TrapOOB {
		t.Fatalf("oob read err = %v", err)
	}

	// Grow succeeds once (max=2), then fails.
	res, _ = ip.Invoke("grow")
	if res[0] != 1 {
		t.Fatalf("grow = %d, want old size 1", res[0])
	}
	res, _ = ip.Invoke("grow")
	if uint32(res[0]) != 0xFFFFFFFF {
		t.Fatalf("second grow = %d, want -1", int32(res[0]))
	}
}

func TestHostImport(t *testing.T) {
	m := NewModule("host", 1, 1)
	logIdx := m.AddImport("env.add10", Sig([]ValType{I32}, []ValType{I32}))
	fb := m.NewFunc("f", Sig([]ValType{I32}, []ValType{I32}))
	fb.Get(0).Call(logIdx)
	fb.MustBuild()
	m.MustExport("f")
	if err := m.Validate(); err != nil {
		t.Fatalf("validate: %v", err)
	}
	ip, err := NewInterp(m, map[string]HostFunc{
		"env.add10": func(mem []byte, args []uint64) (uint64, error) { return args[0] + 10, nil },
	})
	if err != nil {
		t.Fatalf("instantiate: %v", err)
	}
	res, err := ip.Invoke("f", 32)
	if err != nil || res[0] != 42 {
		t.Fatalf("f(32) = %v, %v", res, err)
	}

	// Missing host binding is an instantiation error.
	if _, err := NewInterp(m, nil); err == nil {
		t.Fatal("instantiation without host binding should fail")
	}
}

func TestDivTraps(t *testing.T) {
	m := NewModule("div", 1, 1)
	fb := m.NewFunc("div", Sig([]ValType{I32, I32}, []ValType{I32}))
	fb.Get(0).Get(1).I32DivS()
	fb.MustBuild()
	m.MustExport("div")
	if err := m.Validate(); err != nil {
		t.Fatal(err)
	}
	ip, _ := NewInterp(m, nil)
	_, err := ip.Invoke("div", 10, 0)
	var trap *Trap
	if !errors.As(err, &trap) || trap.Kind != TrapDivByZero {
		t.Fatalf("div by zero err = %v", err)
	}
	_, err = ip.Invoke("div", 0x80000000, 0xFFFFFFFF) // MinInt32 / -1
	if !errors.As(err, &trap) || trap.Kind != TrapIntOverflow {
		t.Fatalf("overflow err = %v", err)
	}
	res, err := ip.Invoke("div", uint64(uint32(^uint32(6))+1), 2) // -6 / 2
	if err != nil || int32(res[0]) != -3 {
		t.Fatalf("-6/2 = %d, %v", int32(res[0]), err)
	}
}

func TestValidateRejects(t *testing.T) {
	cases := []struct {
		name  string
		build func(m *Module)
	}{
		{"stack underflow", func(m *Module) {
			fb := m.NewFunc("f", Sig(nil, []ValType{I32}))
			fb.I32Add() // nothing on the stack
			fb.I32(0)
			fb.MustBuild()
		}},
		{"type mismatch", func(m *Module) {
			fb := m.NewFunc("f", Sig(nil, []ValType{I32}))
			fb.I64(1).I64(2).I64Add() // leaves i64, result is i32
			fb.MustBuild()
		}},
		{"bad local", func(m *Module) {
			fb := m.NewFunc("f", Sig(nil, []ValType{I32}))
			fb.Get(3)
			fb.MustBuild()
		}},
		{"bad branch depth", func(m *Module) {
			fb := m.NewFunc("f", Sig(nil, nil))
			fb.Br(5)
			fb.MustBuild()
		}},
		{"if result without else", func(m *Module) {
			fb := m.NewFunc("f", Sig(nil, []ValType{I32}))
			fb.I32(1)
			fb.If(I32)
			fb.I32(2)
			fb.End()
			fb.MustBuild()
		}},
		{"extra values at end", func(m *Module) {
			fb := m.NewFunc("f", Sig(nil, nil))
			fb.I32(1).I32(2)
			fb.MustBuild()
		}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			m := NewModule("bad", 1, 1)
			c.build(m)
			if err := m.Validate(); err == nil {
				t.Errorf("Validate accepted invalid module (%s)", c.name)
			}
		})
	}
}

func TestValidateAcceptsDeadCode(t *testing.T) {
	m := NewModule("dead", 1, 1)
	fb := m.NewFunc("f", Sig(nil, []ValType{I32}))
	fb.Block(I32)
	fb.I32(1).Br(0)
	fb.I32Add() // dead: polymorphic stack
	fb.End()
	fb.MustBuild()
	m.MustExport("f")
	if err := m.Validate(); err != nil {
		t.Fatalf("dead code should validate: %v", err)
	}
	if res := run(t, m, "f"); res[0] != 1 {
		t.Fatalf("f() = %d", res[0])
	}
}

func TestStepLimit(t *testing.T) {
	m := NewModule("spin", 1, 1)
	fb := m.NewFunc("spin", Sig(nil, nil))
	fb.Loop()
	fb.Br(0)
	fb.End()
	fb.MustBuild()
	m.MustExport("spin")
	if err := m.Validate(); err != nil {
		t.Fatal(err)
	}
	ip, _ := NewInterp(m, nil)
	ip.StepLimit = 10000
	if _, err := ip.Invoke("spin"); !errors.Is(err, ErrStepLimit) {
		t.Fatalf("err = %v, want step limit", err)
	}
}

func TestRecursionFib(t *testing.T) {
	m := NewModule("fib", 1, 1)
	fb := m.NewFunc("fib", Sig([]ValType{I32}, []ValType{I32}))
	fb.Get(0).I32(2).I32LtS()
	fb.If(I32)
	fb.Get(0)
	fb.Else()
	fb.Get(0).I32(1).I32Sub().CallNamed("fib")
	fb.Get(0).I32(2).I32Sub().CallNamed("fib")
	fb.I32Add()
	fb.End()
	fb.MustBuild()
	m.MustExport("fib")
	if err := m.Validate(); err != nil {
		t.Fatal(err)
	}
	if res := run(t, m, "fib", 15); res[0] != 610 {
		t.Fatalf("fib(15) = %d, want 610", res[0])
	}
}

func TestStackExhaustion(t *testing.T) {
	m := NewModule("rec", 1, 1)
	fb := m.NewFunc("rec", Sig([]ValType{I32}, []ValType{I32}))
	fb.Get(0).I32(1).I32Add().CallNamed("rec")
	fb.MustBuild()
	m.MustExport("rec")
	if err := m.Validate(); err != nil {
		t.Fatal(err)
	}
	ip, _ := NewInterp(m, nil)
	_, err := ip.Invoke("rec", 0)
	var trap *Trap
	if !errors.As(err, &trap) || trap.Kind != TrapStackExhausted {
		t.Fatalf("err = %v, want stack exhaustion", err)
	}
}

// TestI32ArithQuick checks a sample of i32 operators against Go
// semantics on random operand pairs.
func TestI32ArithQuick(t *testing.T) {
	type opCase struct {
		op   Op
		eval func(a, b uint32) uint32
	}
	cases := []opCase{
		{OpI32Add, func(a, b uint32) uint32 { return a + b }},
		{OpI32Sub, func(a, b uint32) uint32 { return a - b }},
		{OpI32Mul, func(a, b uint32) uint32 { return a * b }},
		{OpI32And, func(a, b uint32) uint32 { return a & b }},
		{OpI32Or, func(a, b uint32) uint32 { return a | b }},
		{OpI32Xor, func(a, b uint32) uint32 { return a ^ b }},
		{OpI32Shl, func(a, b uint32) uint32 { return a << (b & 31) }},
		{OpI32ShrU, func(a, b uint32) uint32 { return a >> (b & 31) }},
		{OpI32ShrS, func(a, b uint32) uint32 { return uint32(int32(a) >> (b & 31)) }},
	}
	for _, c := range cases {
		m := NewModule("q", 1, 1)
		fb := m.NewFunc("f", Sig([]ValType{I32, I32}, []ValType{I32}))
		fb.Get(0).Get(1).Op(c.op)
		fb.MustBuild()
		m.MustExport("f")
		if err := m.Validate(); err != nil {
			t.Fatal(err)
		}
		ip, _ := NewInterp(m, nil)
		f := func(a, b uint32) bool {
			res, err := ip.Invoke("f", uint64(a), uint64(b))
			return err == nil && uint32(res[0]) == c.eval(a, b)
		}
		if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
			t.Errorf("op %v: %v", c.op, err)
		}
	}
}

func TestMemFill(t *testing.T) {
	m := NewModule("bulk", 1, 1)
	f1 := m.NewFunc("fill", Sig([]ValType{I32, I32, I32}, nil))
	f1.Get(0).Get(1).Get(2).MemFill()
	f1.MustBuild()
	rd := m.NewFunc("rd", Sig([]ValType{I32}, []ValType{I32}))
	rd.Get(0).I32Load8U(0)
	rd.MustBuild()
	m.MustExport("fill")
	m.MustExport("rd")
	if err := m.Validate(); err != nil {
		t.Fatal(err)
	}
	ip, _ := NewInterp(m, nil)
	if _, err := ip.Invoke("fill", 10, 0xAB, 4); err != nil {
		t.Fatal(err)
	}
	for addr, want := range map[uint64]uint64{9: 0, 10: 0xAB, 13: 0xAB, 14: 0} {
		if res, _ := ip.Invoke("rd", addr); res[0] != want {
			t.Fatalf("rd(%d) = %#x, want %#x", addr, res[0], want)
		}
	}
	// A fill that runs past the end of memory traps.
	_, err := ip.Invoke("fill", uint64(PageSize-2), 1, 4)
	var trap *Trap
	if !errors.As(err, &trap) || trap.Kind != TrapOOB {
		t.Fatalf("oob fill err = %v", err)
	}
}

func TestWhileCombinator(t *testing.T) {
	// Collatz step count for n=27 is 111.
	m := NewModule("collatz", 1, 1)
	fb := m.NewFunc("collatz", Sig([]ValType{I32}, []ValType{I32}), I32)
	fb.While(func() {
		fb.Get(0).I32(1).I32Ne()
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
	m.MustExport("collatz")
	if err := m.Validate(); err != nil {
		t.Fatal(err)
	}
	if res := run(t, m, "collatz", 27); res[0] != 111 {
		t.Fatalf("collatz(27) = %d, want 111", res[0])
	}
}

func TestF64(t *testing.T) {
	m := NewModule("f64", 1, 1)
	// f(a, b) = min(|a|*|a|, b) / 2 + 1.5
	fb := m.NewFunc("f", Sig([]ValType{F64, F64}, []ValType{F64}))
	fb.Get(0).F64Abs().Get(0).F64Abs().F64Mul()
	fb.Get(1).F64Min()
	fb.F64(2).F64Div().F64(1.5).F64Add()
	fb.MustBuild()
	m.MustExport("f")
	if err := m.Validate(); err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct{ a, b, want float64 }{{-3, 100, 6}, {3, 4, 3.5}} {
		res := run(t, m, "f", math.Float64bits(c.a), math.Float64bits(c.b))
		if got := math.Float64frombits(res[0]); got != c.want {
			t.Fatalf("f(%g,%g) = %g, want %g", c.a, c.b, got, c.want)
		}
	}
}

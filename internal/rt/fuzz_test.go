package rt

import (
	"testing"

	"repro/internal/ir"
	"repro/internal/sfi"
	"repro/internal/stats"
)

// progGen generates random but always-valid modules: straight-line
// arithmetic over typed locals, masked memory accesses, nested
// if/else, and bounded loops. Running each generated program on the
// reference interpreter and under every compilation mode is the
// compiler's randomized differential gate.
type progGen struct {
	rng *stats.RNG
	fb  *ir.FuncBuilder
	// local index ranges by type
	i32s, i64s []uint32
	f64s       []uint32
	// counters are dedicated loop-counter locals, one per nesting
	// level, never written by generated statements — guaranteeing
	// every generated loop terminates.
	counters []uint32
	depth    int
	loops    int
}

const fuzzMemMask = 0xFFF8 // accesses within the single 64 KiB page

func (g *progGen) pick(xs []uint32) uint32 { return xs[g.rng.Intn(len(xs))] }

// expr emits code pushing one i32 value.
func (g *progGen) expr(d int) {
	fb := g.fb
	if d <= 0 {
		switch g.rng.Intn(3) {
		case 0:
			fb.I32(int32(g.rng.Uint64()))
		case 1:
			fb.Get(g.pick(g.i32s))
		default:
			// masked load
			fb.Get(g.pick(g.i32s)).I32(fuzzMemMask).I32And()
			fb.I32Load(uint32(g.rng.Intn(16)) * 4)
		}
		return
	}
	switch g.rng.Intn(10) {
	case 0:
		g.expr(d - 1)
		g.expr(d - 1)
		fb.I32Add()
	case 1:
		g.expr(d - 1)
		g.expr(d - 1)
		fb.I32Sub()
	case 2:
		g.expr(d - 1)
		g.expr(d - 1)
		fb.I32Mul()
	case 3:
		g.expr(d - 1)
		g.expr(d - 1)
		fb.I32Xor()
	case 4:
		g.expr(d - 1)
		fb.I32(int32(g.rng.Intn(31) + 1)).I32ShrU()
	case 5:
		g.expr(d - 1)
		fb.I32(int32(g.rng.Intn(31) + 1)).I32Shl()
	case 6:
		// safe remainder: divisor | 1 (an unsigned DIV lowering)
		g.expr(d - 1)
		g.expr(d - 1)
		fb.I32(1).I32Or()
		fb.I32RemU()
	case 7:
		g.expr(d - 1)
		g.expr(d - 1)
		fb.I32LtU() // comparison as value
	case 8:
		// i64 round trip
		g.expr(d - 1)
		fb.I64ExtendI32U()
		fb.Get(g.pick(g.i64s)).I64Add()
		fb.I32WrapI64()
	default:
		// f64 round trip (exact ops only)
		g.expr(d - 1)
		fb.F64ConvertI32S() // exact for every int32
		fb.Get(g.pick(g.f64s)).F64Add()
		fb.I64ReinterpretF64().I32WrapI64()
	}
}

// stmt emits one statement.
func (g *progGen) stmt(budget *int) {
	fb := g.fb
	*budget--
	switch g.rng.Intn(8) {
	case 0, 1, 2:
		g.expr(2)
		fb.Set(g.pick(g.i32s))
	case 3:
		// store
		fb.Get(g.pick(g.i32s)).I32(fuzzMemMask).I32And()
		g.expr(1)
		fb.I32Store(uint32(g.rng.Intn(16)) * 4)
	case 4:
		// i64 update
		fb.Get(g.pick(g.i64s))
		g.expr(1)
		fb.I64ExtendI32U().I64Mul()
		fb.I64(int64(g.rng.Uint64() | 1)).I64Add()
		fb.Set(g.pick(g.i64s))
	case 5:
		// f64 update (add/mul only: exact and order-stable)
		fb.Get(g.pick(g.f64s))
		g.expr(1)
		fb.F64ConvertI32S().F64Add()
		fb.Set(g.pick(g.f64s))
	case 6:
		if g.depth < 3 {
			g.depth++
			g.expr(1)
			fb.If()
			n := g.rng.Intn(3) + 1
			for i := 0; i < n && *budget > 0; i++ {
				g.stmt(budget)
			}
			if g.rng.Intn(2) == 0 {
				fb.Else()
				n = g.rng.Intn(2) + 1
				for i := 0; i < n && *budget > 0; i++ {
					g.stmt(budget)
				}
			}
			fb.End()
			g.depth--
		} else {
			g.expr(2)
			fb.Set(g.pick(g.i32s))
		}
	default:
		if g.loops < len(g.counters) {
			g.loops++
			g.depth++
			ctr := g.counters[g.loops-1]
			trips := int32(g.rng.Intn(12) + 2)
			fb.LoopN(ctr, 0, trips, 1, func() {
				n := g.rng.Intn(3) + 1
				for i := 0; i < n && *budget > 0; i++ {
					g.stmt(budget)
				}
			})
			g.depth--
			g.loops--
		} else {
			g.expr(2)
			fb.Set(g.pick(g.i32s))
		}
	}
}

// genModule builds a random module from a seed.
func genModule(seed uint64) *ir.Module {
	rng := stats.NewRNG(seed)
	m := ir.NewModule("fuzz", 1, 1)
	// Deterministic data so loads see non-zero values.
	data := make([]byte, 4096)
	for i := range data {
		data[i] = byte(i*13 + int(seed))
	}
	m.AddData(0, data)

	g := &progGen{rng: rng}
	fb := m.NewFunc("run", ir.Sig([]ir.ValType{ir.I32}, []ir.ValType{ir.I32}),
		ir.I32, ir.I32, ir.I32, ir.I64, ir.I64, ir.F64, ir.F64, ir.I32, ir.I32)
	g.fb = fb
	g.i32s = []uint32{0, 1, 2, 3}
	g.i64s = []uint32{4, 5}
	g.f64s = []uint32{6, 7}
	g.counters = []uint32{8, 9}

	budget := 40 + rng.Intn(40)
	for budget > 0 {
		g.stmt(&budget)
	}
	// checksum: fold everything
	fb.Get(0)
	fb.Get(1).I32Add()
	fb.Get(2).I32Xor()
	fb.Get(3).I32Add()
	fb.Get(4).I32WrapI64().I32Xor()
	fb.Get(5).I32WrapI64().I32Add()
	fb.Get(6).I64ReinterpretF64().I32WrapI64().I32Xor()
	fb.Get(7).I64ReinterpretF64().I64(32).I64ShrU().I32WrapI64().I32Add()
	fb.MustBuild()
	m.MustExport("run")
	if err := m.Validate(); err != nil {
		panic(err)
	}
	return m
}

// TestRandomProgramsDifferential is the randomized compiler gate: 120
// generated programs, every compilation mode, interpreter as oracle.
func TestRandomProgramsDifferential(t *testing.T) {
	seeds := 120
	if testing.Short() {
		seeds = 25
	}
	modes := []sfi.Mode{sfi.ModeNative, sfi.ModeGuard, sfi.ModeSegue, sfi.ModeBoundsCheck, sfi.ModeLFI, sfi.ModeLFISegue}
	for s := 0; s < seeds; s++ {
		seed := uint64(s)*2654435761 + 17
		ref := genModule(seed)
		interp, err := ir.NewInterp(ref, nil)
		if err != nil {
			t.Fatalf("seed %d: %v", s, err)
		}
		interp.StepLimit = 50_000_000
		want, werr := interp.Invoke("run", uint64(s))
		for _, mode := range modes {
			mod, err := CompileModule(genModule(seed), sfi.DefaultConfig(mode))
			if err != nil {
				t.Fatalf("seed %d mode %v: compile: %v", s, mode, err)
			}
			inst, err := NewInstance(mod, InstanceOptions{FSGSBASE: true})
			if err != nil {
				t.Fatalf("seed %d mode %v: instantiate: %v", s, mode, err)
			}
			got, gerr := inst.Invoke("run", uint64(s))
			if (werr == nil) != (gerr == nil) {
				t.Fatalf("seed %d mode %v: error mismatch: interp=%v machine=%v", s, mode, werr, gerr)
			}
			if werr != nil {
				continue
			}
			if got[0] != want[0] {
				t.Fatalf("seed %d mode %v: checksum %#x, interpreter %#x", s, mode, got[0], want[0])
			}
			// Memory must agree byte for byte.
			buf := make([]byte, 1<<16)
			inst.AS.ReadBytes(inst.HeapBase, buf)
			for i := range buf {
				if buf[i] != interp.Mem[i] {
					t.Fatalf("seed %d mode %v: memory[%d] = %#x, interpreter %#x", s, mode, i, buf[i], interp.Mem[i])
				}
			}
		}
	}
}

// TestRandomProgramsVectorized re-runs a slice of seeds under the
// vectorizing WAMR configurations.
func TestRandomProgramsVectorized(t *testing.T) {
	cfgs := []sfi.Config{
		{Mode: sfi.ModeGuard, FoldOperandSlot: true, Vectorize: true, FoldDispLimit: 1 << 30},
		{Mode: sfi.ModeSegue, SegueLoadsOnly: true, FoldOperandSlot: true, Vectorize: true, FoldDispLimit: 1 << 30},
	}
	for s := 0; s < 40; s++ {
		seed := uint64(s)*40503 + 99
		interp, _ := ir.NewInterp(genModule(seed), nil)
		interp.StepLimit = 50_000_000
		want, werr := interp.Invoke("run", uint64(s))
		for ci, cfg := range cfgs {
			mod, err := CompileModule(genModule(seed), cfg)
			if err != nil {
				t.Fatalf("seed %d cfg %d: %v", s, ci, err)
			}
			inst, err := NewInstance(mod, InstanceOptions{FSGSBASE: true})
			if err != nil {
				t.Fatal(err)
			}
			got, gerr := inst.Invoke("run", uint64(s))
			if (werr == nil) != (gerr == nil) {
				t.Fatalf("seed %d cfg %d: error mismatch %v vs %v", s, ci, werr, gerr)
			}
			if werr == nil && got[0] != want[0] {
				t.Fatalf("seed %d cfg %d: %#x vs %#x", s, ci, got[0], want[0])
			}
		}
	}
}

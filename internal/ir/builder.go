package ir

import "fmt"

// FuncBuilder assembles a function body instruction by instruction. It
// tracks control nesting so Build can reject unbalanced bodies early,
// and offers loop combinators that keep kernel code compact.
//
// Obtain one from Module.NewFunc; finish with Build.
type FuncBuilder struct {
	m     *Module
	f     *Func
	depth int
	built bool
}

// NewFunc starts building a function with the given name, signature, and
// extra local types. The function is appended to the module immediately
// so its index is stable; the body is filled by the builder.
func (m *Module) NewFunc(name string, t FuncType, locals ...ValType) *FuncBuilder {
	f := &Func{Name: name, Type: t, Locals: locals}
	m.Funcs = append(m.Funcs, f)
	return &FuncBuilder{m: m, f: f}
}

// Build finalizes the body, checking that control is balanced. The
// module-level Validate pass performs full type checking.
func (b *FuncBuilder) Build() error {
	if b.built {
		return fmt.Errorf("ir: function %q built twice", b.f.Name)
	}
	if b.depth != 0 {
		return fmt.Errorf("ir: function %q has unbalanced control (depth %d at end)", b.f.Name, b.depth)
	}
	b.built = true
	return nil
}

// MustBuild is Build that panics on error, for use in kernel definitions.
func (b *FuncBuilder) MustBuild() {
	if err := b.Build(); err != nil {
		panic(err)
	}
}

func (b *FuncBuilder) emit(i Inst) *FuncBuilder {
	b.f.Body = append(b.f.Body, i)
	return b
}

// Op appends a no-immediate instruction (ALU ops, conversions, sizing).
func (b *FuncBuilder) Op(op Op) *FuncBuilder { return b.emit(Inst{Op: op}) }

// --- Control flow ---

// Block opens a block region. Pass no arguments for an empty result or
// one ValType for a single-result block.
func (b *FuncBuilder) Block(result ...ValType) *FuncBuilder {
	b.depth++
	return b.emit(Inst{Op: OpBlock, BlockType: blockType(result)})
}

// Loop opens a loop region (branches to it re-enter the loop).
func (b *FuncBuilder) Loop(result ...ValType) *FuncBuilder {
	b.depth++
	return b.emit(Inst{Op: OpLoop, BlockType: blockType(result)})
}

// If opens a conditional region consuming an i32 condition.
func (b *FuncBuilder) If(result ...ValType) *FuncBuilder {
	b.depth++
	return b.emit(Inst{Op: OpIf, BlockType: blockType(result)})
}

// Else begins the false arm of the innermost if.
func (b *FuncBuilder) Else() *FuncBuilder { return b.emit(Inst{Op: OpElse}) }

// End closes the innermost block/loop/if.
func (b *FuncBuilder) End() *FuncBuilder {
	b.depth--
	return b.emit(Inst{Op: OpEnd})
}

func blockType(result []ValType) int8 {
	switch len(result) {
	case 0:
		return NoResult
	case 1:
		return int8(result[0])
	default:
		panic("ir: blocks support at most one result")
	}
}

// Br branches unconditionally to the label at the given relative depth.
func (b *FuncBuilder) Br(depth uint32) *FuncBuilder {
	return b.emit(Inst{Op: OpBr, Imm: int64(depth)})
}

// BrIf branches if the popped i32 condition is non-zero.
func (b *FuncBuilder) BrIf(depth uint32) *FuncBuilder {
	return b.emit(Inst{Op: OpBrIf, Imm: int64(depth)})
}

// BrTable branches to targets[i] for popped index i, or to def.
func (b *FuncBuilder) BrTable(targets []uint32, def uint32) *FuncBuilder {
	cp := make([]uint32, len(targets))
	copy(cp, targets)
	return b.emit(Inst{Op: OpBrTable, Targets: cp, Imm: int64(def)})
}

// Call calls the function at the given index in the combined index space.
func (b *FuncBuilder) Call(fn uint32) *FuncBuilder {
	return b.emit(Inst{Op: OpCall, Imm: int64(fn)})
}

// CallNamed calls a defined function by name; it panics if the name is
// unknown, so kernels must define callees before callers reference them.
func (b *FuncBuilder) CallNamed(name string) *FuncBuilder {
	idx, ok := b.m.FuncIndex(name)
	if !ok {
		panic(fmt.Sprintf("ir: CallNamed(%q): unknown function", name))
	}
	return b.Call(idx)
}

// CallIndirect calls through the table; the table slot index is popped
// from the stack and the callee must have signature t.
func (b *FuncBuilder) CallIndirect(t FuncType) *FuncBuilder {
	// Signatures are stored inline; the validator matches structurally.
	i := Inst{Op: OpCallIndirect}
	i.Imm = int64(b.m.internType(t))
	return b.emit(i)
}

// --- Constants and locals ---

// I32 pushes an i32 constant.
func (b *FuncBuilder) I32(v int32) *FuncBuilder {
	return b.emit(Inst{Op: OpI32Const, Imm: int64(v)})
}

// I64 pushes an i64 constant.
func (b *FuncBuilder) I64(v int64) *FuncBuilder {
	return b.emit(Inst{Op: OpI64Const, Imm: v})
}

// F64 pushes an f64 constant.
func (b *FuncBuilder) F64(v float64) *FuncBuilder {
	return b.emit(Inst{Op: OpF64Const, Fimm: v})
}

// Get pushes local i; Set pops into local i; Tee stores without popping.
func (b *FuncBuilder) Get(i uint32) *FuncBuilder {
	return b.emit(Inst{Op: OpLocalGet, Imm: int64(i)})
}

// Set pops the top of stack into local i.
func (b *FuncBuilder) Set(i uint32) *FuncBuilder {
	return b.emit(Inst{Op: OpLocalSet, Imm: int64(i)})
}

// Tee stores the top of stack into local i without popping it.
func (b *FuncBuilder) Tee(i uint32) *FuncBuilder {
	return b.emit(Inst{Op: OpLocalTee, Imm: int64(i)})
}

// --- Memory ---

func (b *FuncBuilder) mem(op Op, offset uint32) *FuncBuilder {
	return b.emit(Inst{Op: op, Offset: offset})
}

// Memory loads: address (i32) is popped; offset is the static memarg.
func (b *FuncBuilder) I32Load(offset uint32) *FuncBuilder    { return b.mem(OpI32Load, offset) }
func (b *FuncBuilder) I64Load(offset uint32) *FuncBuilder    { return b.mem(OpI64Load, offset) }
func (b *FuncBuilder) F64Load(offset uint32) *FuncBuilder    { return b.mem(OpF64Load, offset) }
func (b *FuncBuilder) I32Load8U(offset uint32) *FuncBuilder  { return b.mem(OpI32Load8U, offset) }
func (b *FuncBuilder) I32Load16U(offset uint32) *FuncBuilder { return b.mem(OpI32Load16U, offset) }

// Memory stores: value then address are popped (address pushed first).
func (b *FuncBuilder) I32Store(offset uint32) *FuncBuilder  { return b.mem(OpI32Store, offset) }
func (b *FuncBuilder) I64Store(offset uint32) *FuncBuilder  { return b.mem(OpI64Store, offset) }
func (b *FuncBuilder) F64Store(offset uint32) *FuncBuilder  { return b.mem(OpF64Store, offset) }
func (b *FuncBuilder) I32Store8(offset uint32) *FuncBuilder { return b.mem(OpI32Store8, offset) }

// MemFill fills memory: dst, byte and length (i32) are popped. The
// sizing ops memory.size and memory.grow have no builder method; they
// are emitted with Op.
func (b *FuncBuilder) MemFill() *FuncBuilder { return b.Op(OpMemoryFill) }

// --- i32 ALU ---

func (b *FuncBuilder) I32Eqz() *FuncBuilder  { return b.Op(OpI32Eqz) }
func (b *FuncBuilder) I32Eq() *FuncBuilder   { return b.Op(OpI32Eq) }
func (b *FuncBuilder) I32Ne() *FuncBuilder   { return b.Op(OpI32Ne) }
func (b *FuncBuilder) I32LtS() *FuncBuilder  { return b.Op(OpI32LtS) }
func (b *FuncBuilder) I32LtU() *FuncBuilder  { return b.Op(OpI32LtU) }
func (b *FuncBuilder) I32GtS() *FuncBuilder  { return b.Op(OpI32GtS) }
func (b *FuncBuilder) I32LeS() *FuncBuilder  { return b.Op(OpI32LeS) }
func (b *FuncBuilder) I32GeS() *FuncBuilder  { return b.Op(OpI32GeS) }
func (b *FuncBuilder) I32GeU() *FuncBuilder  { return b.Op(OpI32GeU) }
func (b *FuncBuilder) I32Add() *FuncBuilder  { return b.Op(OpI32Add) }
func (b *FuncBuilder) I32Sub() *FuncBuilder  { return b.Op(OpI32Sub) }
func (b *FuncBuilder) I32Mul() *FuncBuilder  { return b.Op(OpI32Mul) }
func (b *FuncBuilder) I32DivS() *FuncBuilder { return b.Op(OpI32DivS) }
func (b *FuncBuilder) I32RemS() *FuncBuilder { return b.Op(OpI32RemS) }
func (b *FuncBuilder) I32RemU() *FuncBuilder { return b.Op(OpI32RemU) }
func (b *FuncBuilder) I32And() *FuncBuilder  { return b.Op(OpI32And) }
func (b *FuncBuilder) I32Or() *FuncBuilder   { return b.Op(OpI32Or) }
func (b *FuncBuilder) I32Xor() *FuncBuilder  { return b.Op(OpI32Xor) }
func (b *FuncBuilder) I32Shl() *FuncBuilder  { return b.Op(OpI32Shl) }
func (b *FuncBuilder) I32ShrS() *FuncBuilder { return b.Op(OpI32ShrS) }
func (b *FuncBuilder) I32ShrU() *FuncBuilder { return b.Op(OpI32ShrU) }
func (b *FuncBuilder) I32Rotl() *FuncBuilder { return b.Op(OpI32Rotl) }

// --- i64 ALU ---

func (b *FuncBuilder) I64Add() *FuncBuilder    { return b.Op(OpI64Add) }
func (b *FuncBuilder) I64Mul() *FuncBuilder    { return b.Op(OpI64Mul) }
func (b *FuncBuilder) I64ShrU() *FuncBuilder   { return b.Op(OpI64ShrU) }
func (b *FuncBuilder) I64Popcnt() *FuncBuilder { return b.Op(OpI64Popcnt) }

// --- f64 ---

func (b *FuncBuilder) F64Add() *FuncBuilder { return b.Op(OpF64Add) }
func (b *FuncBuilder) F64Mul() *FuncBuilder { return b.Op(OpF64Mul) }
func (b *FuncBuilder) F64Div() *FuncBuilder { return b.Op(OpF64Div) }
func (b *FuncBuilder) F64Abs() *FuncBuilder { return b.Op(OpF64Abs) }
func (b *FuncBuilder) F64Min() *FuncBuilder { return b.Op(OpF64Min) }

// --- Conversions ---

func (b *FuncBuilder) I32WrapI64() *FuncBuilder        { return b.Op(OpI32WrapI64) }
func (b *FuncBuilder) I64ExtendI32U() *FuncBuilder     { return b.Op(OpI64ExtendI32U) }
func (b *FuncBuilder) F64ConvertI32S() *FuncBuilder    { return b.Op(OpF64ConvertI32S) }
func (b *FuncBuilder) I64ReinterpretF64() *FuncBuilder { return b.Op(OpI64ReinterpretF64) }

// --- Combinators ---

// LoopN emits a counted loop: for (i = start; i < limit; i += step) body.
// The counter lives in local i and the comparison is signed. Branch
// depths inside body shift by two (the combinator's block and loop).
func (b *FuncBuilder) LoopN(i uint32, start, limit, step int32, body func()) *FuncBuilder {
	b.I32(start).Set(i)
	b.Block()
	b.Loop()
	b.Get(i).I32(limit).I32GeS().BrIf(1)
	body()
	b.Get(i).I32(step).I32Add().Set(i)
	b.Br(0)
	b.End()
	b.End()
	return b
}

// LoopNDyn emits a counted loop whose limit is local limitLocal.
func (b *FuncBuilder) LoopNDyn(i, limitLocal uint32, start, step int32, body func()) *FuncBuilder {
	b.I32(start).Set(i)
	b.Block()
	b.Loop()
	b.Get(i).Get(limitLocal).I32GeS().BrIf(1)
	body()
	b.Get(i).I32(step).I32Add().Set(i)
	b.Br(0)
	b.End()
	b.End()
	return b
}

// While emits: while (cond) body. cond must push one i32. Branch depths
// inside cond/body shift by two.
func (b *FuncBuilder) While(cond, body func()) *FuncBuilder {
	b.Block()
	b.Loop()
	cond()
	b.I32Eqz().BrIf(1)
	body()
	b.Br(0)
	b.End()
	b.End()
	return b
}

// InternType registers t in the module's signature table (the table
// call_indirect type indices refer to) and returns its index. The SFI
// compilers use the same indices as signature ids for table entries.
func (m *Module) InternType(t FuncType) int { return m.internType(t) }

// internType registers t in the module's signature table for
// call_indirect and returns its index.
func (m *Module) internType(t FuncType) int {
	for i, s := range m.sigTable {
		if s.Equal(t) {
			return i
		}
	}
	m.sigTable = append(m.sigTable, t)
	return len(m.sigTable) - 1
}

// SigByIndex returns the interned signature for a call_indirect type
// index.
func (m *Module) SigByIndex(i int) FuncType {
	return m.sigTable[i]
}

package ir

import "fmt"

// Validate type-checks every function in the module against the standard
// Wasm stack discipline (including unreachable-code polymorphism),
// verifies table/data consistency, and caches control-structure
// resolution (block/if → matching else/end) for the interpreter and the
// compilers. It must be called before Interp or compilation.
func (m *Module) Validate() error {
	if m.MemMax < m.MemMin {
		return fmt.Errorf("ir: module %q: MemMax %d < MemMin %d", m.Name, m.MemMax, m.MemMin)
	}
	for _, seg := range m.Data {
		end := uint64(seg.Offset) + uint64(len(seg.Bytes))
		if end > uint64(m.MemMin)*PageSize {
			return fmt.Errorf("ir: module %q: data segment [%d, %d) exceeds initial memory", m.Name, seg.Offset, end)
		}
	}
	for _, idx := range m.Table {
		if idx != NullFunc && int(idx) >= m.NumFuncs() {
			return fmt.Errorf("ir: module %q: table element %d out of range", m.Name, idx)
		}
	}
	for name, idx := range m.Exports {
		if int(idx) >= m.NumFuncs() {
			return fmt.Errorf("ir: module %q: export %q index %d out of range", m.Name, name, idx)
		}
	}
	for fi, f := range m.Funcs {
		if len(f.Type.Results) > 1 {
			return fmt.Errorf("ir: function %q: multiple results unsupported", f.Name)
		}
		if err := m.validateFunc(f); err != nil {
			return fmt.Errorf("ir: function %d (%q): %w", fi, f.Name, err)
		}
	}
	for _, imp := range m.Imports {
		if len(imp.Type.Results) > 1 {
			return fmt.Errorf("ir: import %q: multiple results unsupported", imp.Name)
		}
	}
	m.validated = true
	return nil
}

// Validated reports whether Validate has succeeded on this module.
func (m *Module) Validated() bool { return m.validated }

// unknownType is the polymorphic stack value used after unconditional
// branches.
const unknownType ValType = 0xFF

type vframe struct {
	op       Op
	result   int8 // NoResult or ValType
	height   int  // value-stack height at entry
	startIdx int  // instruction index of the opener (-1 for the body frame)
	elseIdx  int
	dead     bool // current code in this frame is unreachable
}

type validator struct {
	m      *Module
	f      *Func
	vals   []ValType
	frames []vframe
}

func (v *validator) push(t ValType) { v.vals = append(v.vals, t) }

func (v *validator) popAny() (ValType, error) {
	fr := &v.frames[len(v.frames)-1]
	if len(v.vals) == fr.height {
		if fr.dead {
			return unknownType, nil
		}
		return 0, fmt.Errorf("value stack underflow")
	}
	t := v.vals[len(v.vals)-1]
	v.vals = v.vals[:len(v.vals)-1]
	return t, nil
}

func (v *validator) pop(expect ValType) error {
	t, err := v.popAny()
	if err != nil {
		return err
	}
	if t != unknownType && t != expect {
		return fmt.Errorf("expected %v on stack, found %v", expect, t)
	}
	return nil
}

// labelTypes returns the types a branch to the frame must supply: none
// for a loop (branches re-enter), the result for block/if.
func labelTypes(fr vframe) []ValType {
	if fr.op == OpLoop || fr.result == NoResult {
		return nil
	}
	return []ValType{ValType(fr.result)}
}

func (v *validator) frameAt(depth int64) (*vframe, error) {
	if depth < 0 || int(depth) >= len(v.frames) {
		return nil, fmt.Errorf("branch depth %d out of range (nesting %d)", depth, len(v.frames))
	}
	return &v.frames[len(v.frames)-1-int(depth)], nil
}

func (v *validator) markDead() {
	fr := &v.frames[len(v.frames)-1]
	fr.dead = true
	v.vals = v.vals[:fr.height]
}

func (m *Module) validateFunc(f *Func) error {
	v := &validator{m: m, f: f}
	bodyResult := NoResult
	if len(f.Type.Results) == 1 {
		bodyResult = int8(f.Type.Results[0])
	}
	v.frames = []vframe{{op: OpBlock, result: bodyResult, startIdx: -1, elseIdx: -1}}
	f.ctrl = make(map[int]ctrlInfo)

	for pc, in := range f.Body {
		if err := v.step(pc, in); err != nil {
			return fmt.Errorf("at %d (%s): %w", pc, in, err)
		}
	}
	if len(v.frames) != 1 {
		return fmt.Errorf("unbalanced control: %d frames open at end of body", len(v.frames)-1)
	}
	// The implicit end of the body: the declared result must be present.
	fr := v.frames[0]
	if fr.result != NoResult {
		if err := v.pop(ValType(fr.result)); err != nil {
			return fmt.Errorf("function result: %w", err)
		}
	}
	if len(v.vals) != 0 && !fr.dead {
		return fmt.Errorf("%d extra values on stack at end of body", len(v.vals))
	}
	return nil
}

func (v *validator) step(pc int, in Inst) error {
	f, m := v.f, v.m
	switch in.Op {
	case OpBlock, OpLoop:
		v.frames = append(v.frames, vframe{op: in.Op, result: in.BlockType, height: len(v.vals), startIdx: pc, elseIdx: -1})
	case OpIf:
		if err := v.pop(I32); err != nil {
			return err
		}
		v.frames = append(v.frames, vframe{op: OpIf, result: in.BlockType, height: len(v.vals), startIdx: pc, elseIdx: -1})
	case OpElse:
		fr := &v.frames[len(v.frames)-1]
		if fr.op != OpIf || fr.elseIdx != -1 {
			return fmt.Errorf("else without matching if")
		}
		if fr.result != NoResult {
			if err := v.pop(ValType(fr.result)); err != nil {
				return fmt.Errorf("true arm result: %w", err)
			}
		}
		if len(v.vals) != fr.height && !fr.dead {
			return fmt.Errorf("true arm leaves %d extra values", len(v.vals)-fr.height)
		}
		v.vals = v.vals[:fr.height]
		fr.elseIdx = pc
		fr.dead = false
	case OpEnd:
		if len(v.frames) == 1 {
			return fmt.Errorf("end without matching block")
		}
		fr := v.frames[len(v.frames)-1]
		if fr.result != NoResult {
			if err := v.pop(ValType(fr.result)); err != nil {
				return fmt.Errorf("block result: %w", err)
			}
		}
		if len(v.vals) != fr.height && !fr.dead {
			return fmt.Errorf("block leaves %d extra values", len(v.vals)-fr.height)
		}
		if fr.op == OpIf && fr.elseIdx == -1 && fr.result != NoResult {
			return fmt.Errorf("if with result type requires an else arm")
		}
		v.vals = v.vals[:fr.height]
		v.frames = v.frames[:len(v.frames)-1]
		if fr.result != NoResult {
			v.push(ValType(fr.result))
		}
		f.ctrl[fr.startIdx] = ctrlInfo{end: pc, els: fr.elseIdx}

	case OpBr:
		fr, err := v.frameAt(in.Imm)
		if err != nil {
			return err
		}
		for _, t := range labelTypes(*fr) {
			if err := v.pop(t); err != nil {
				return err
			}
		}
		v.markDead()
	case OpBrIf:
		if err := v.pop(I32); err != nil {
			return err
		}
		fr, err := v.frameAt(in.Imm)
		if err != nil {
			return err
		}
		lt := labelTypes(*fr)
		for _, t := range lt {
			if err := v.pop(t); err != nil {
				return err
			}
		}
		for _, t := range lt {
			v.push(t)
		}
	case OpBrTable:
		if err := v.pop(I32); err != nil {
			return err
		}
		def, err := v.frameAt(in.Imm)
		if err != nil {
			return err
		}
		want := labelTypes(*def)
		for _, d := range in.Targets {
			fr, err := v.frameAt(int64(d))
			if err != nil {
				return err
			}
			got := labelTypes(*fr)
			if len(got) != len(want) || (len(got) == 1 && got[0] != want[0]) {
				return fmt.Errorf("br_table label arity mismatch")
			}
		}
		for _, t := range want {
			if err := v.pop(t); err != nil {
				return err
			}
		}
		v.markDead()

	case OpCall:
		sig, err := m.TypeOf(uint32(in.Imm))
		if err != nil {
			return err
		}
		return v.applyCall(sig)
	case OpCallIndirect:
		if in.Imm < 0 || int(in.Imm) >= len(m.sigTable) {
			return fmt.Errorf("call_indirect type index %d out of range", in.Imm)
		}
		if err := v.pop(I32); err != nil {
			return err
		}
		return v.applyCall(m.sigTable[in.Imm])

	case OpLocalGet, OpLocalSet, OpLocalTee:
		if in.Imm < 0 || int(in.Imm) >= f.NumLocals() {
			return fmt.Errorf("local index %d out of range", in.Imm)
		}
		t := f.LocalType(int(in.Imm))
		switch in.Op {
		case OpLocalGet:
			v.push(t)
		case OpLocalSet:
			return v.pop(t)
		default:
			if err := v.pop(t); err != nil {
				return err
			}
			v.push(t)
		}

	case OpI32Const:
		v.push(I32)
	case OpI64Const:
		v.push(I64)
	case OpF64Const:
		v.push(F64)

	case OpMemorySize:
		v.push(I32)
	case OpMemoryGrow:
		if err := v.pop(I32); err != nil {
			return err
		}
		v.push(I32)
	case OpMemoryFill:
		for i := 0; i < 3; i++ {
			if err := v.pop(I32); err != nil {
				return err
			}
		}

	default:
		return v.stepALU(in)
	}
	return nil
}

func (v *validator) applyCall(sig FuncType) error {
	for i := len(sig.Params) - 1; i >= 0; i-- {
		if err := v.pop(sig.Params[i]); err != nil {
			return fmt.Errorf("call argument %d: %w", i, err)
		}
	}
	for _, r := range sig.Results {
		v.push(r)
	}
	return nil
}

// loadResult maps a load opcode to the pushed type.
func loadResult(o Op) ValType {
	switch o {
	case OpI64Load:
		return I64
	case OpF64Load:
		return F64
	default:
		return I32
	}
}

// storeOperand maps a store opcode to the popped value type.
func storeOperand(o Op) ValType {
	switch o {
	case OpI64Store:
		return I64
	case OpF64Store:
		return F64
	default:
		return I32
	}
}

func (v *validator) stepALU(in Inst) error {
	o := in.Op
	bin := func(t, r ValType) error {
		if err := v.pop(t); err != nil {
			return err
		}
		if err := v.pop(t); err != nil {
			return err
		}
		v.push(r)
		return nil
	}
	un := func(t, r ValType) error {
		if err := v.pop(t); err != nil {
			return err
		}
		v.push(r)
		return nil
	}
	switch {
	case o.IsLoad():
		return un(I32, loadResult(o))
	case o.IsStore():
		if err := v.pop(storeOperand(o)); err != nil {
			return err
		}
		return v.pop(I32)
	case o == OpI32Eqz:
		return un(I32, I32)
	case o >= OpI32Eq && o <= OpI32Rotl:
		return bin(I32, I32)
	case o == OpI64Add || o == OpI64Mul || o == OpI64ShrU:
		return bin(I64, I64)
	case o == OpI64Popcnt:
		return un(I64, I64)
	case o == OpF64Add || o == OpF64Mul || o == OpF64Div || o == OpF64Min:
		return bin(F64, F64)
	case o == OpF64Abs:
		return un(F64, F64)
	case o == OpI32WrapI64:
		return un(I64, I32)
	case o == OpI64ExtendI32U:
		return un(I32, I64)
	case o == OpF64ConvertI32S:
		return un(I32, F64)
	case o == OpI64ReinterpretF64:
		return un(F64, I64)
	default:
		return fmt.Errorf("unknown opcode %v", o)
	}
}

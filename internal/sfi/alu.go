package sfi

import (
	"fmt"
	"math"

	"repro/internal/ir"
	"repro/internal/x86"
)

// aluOpFor maps straightforward IR binops to x86 opcodes.
var aluOpFor = map[ir.Op]x86.Op{
	ir.OpI32Add: x86.ADD, ir.OpI32Sub: x86.SUB, ir.OpI32Mul: x86.IMUL,
	ir.OpI32And: x86.AND, ir.OpI32Or: x86.OR, ir.OpI32Xor: x86.XOR,
	ir.OpI32Shl: x86.SHL, ir.OpI32ShrS: x86.SAR, ir.OpI32ShrU: x86.SHR,
	ir.OpI32Rotl: x86.ROL,
	ir.OpI64Add:  x86.ADD, ir.OpI64Mul: x86.IMUL, ir.OpI64ShrU: x86.SHR,
}

// condFor maps IR comparisons to x86 condition codes (for CMP a, b).
var condFor = map[ir.Op]x86.Cond{
	ir.OpI32Eq: x86.CondE, ir.OpI32Ne: x86.CondNE,
	ir.OpI32LtS: x86.CondL, ir.OpI32LtU: x86.CondB,
	ir.OpI32GtS: x86.CondG, ir.OpI32LeS: x86.CondLE,
	ir.OpI32GeS: x86.CondGE, ir.OpI32GeU: x86.CondAE,
}

var fbinOpFor = map[ir.Op]x86.Op{
	ir.OpF64Add: x86.ADDSD, ir.OpF64Mul: x86.MULSD,
	ir.OpF64Div: x86.DIVSD, ir.OpF64Min: x86.MINSD,
}

// fuseAhead reports whether the next IR instruction consumes a
// comparison directly (compare/branch fusion).
func (fc *fnc) fuseAhead(pc int) bool {
	if pc+1 >= len(fc.f.Body) {
		return false
	}
	switch fc.f.Body[pc+1].Op {
	case ir.OpBrIf, ir.OpIf:
		return true
	}
	return false
}

// memopAfter reports whether the value produced at pc feeds a memory
// access directly: either the next instruction is a load, or the next
// pushes a simple value (const/local.get) and the one after is a store.
func (fc *fnc) memopAfter(pc int) bool {
	body := fc.f.Body
	if pc+1 >= len(body) {
		return false
	}
	n1 := body[pc+1].Op
	if n1.IsLoad() || n1.IsStore() {
		return true
	}
	if (n1 == ir.OpI32Const || n1 == ir.OpI64Const || n1 == ir.OpF64Const || n1 == ir.OpLocalGet) &&
		pc+2 < len(body) && body[pc+2].Op.IsStore() {
		return true
	}
	return false
}

func (fc *fnc) compileALU(pc int, in ir.Inst) error {
	o := in.Op
	switch {
	case o == ir.OpI32Eqz:
		r, _ := fc.popReg(false)
		fc.emit(x86.Inst{Op: x86.CMP, W: x86.W32, Dst: x86.R(r), Src: x86.Imm(0)})
		fc.pushCmpResult(pc, x86.CondE)
		return nil

	case condFor[o] != 0:
		w := x86.W32
		n := len(fc.vstack)
		if top := fc.vstack[n-1]; top.kind == lConst && fitsImm32(top.imm) {
			fc.pop()
			a := fc.ensureReg(n-2, false)
			fc.pop()
			fc.emit(x86.Inst{Op: x86.CMP, W: w, Dst: x86.R(a), Src: x86.Imm(top.imm)})
		} else {
			fc.ensureReg(n-1, false)
			a := fc.ensureReg(n-2, false)
			b := fc.ensureReg(n-1, false)
			fc.vstack = fc.vstack[:n-2]
			fc.emit(x86.Inst{Op: x86.CMP, W: w, Dst: x86.R(a), Src: x86.R(b)})
		}
		fc.pushCmpResult(pc, condFor[o])
		return nil

	case o == ir.OpI32DivS || o == ir.OpI32RemS || o == ir.OpI32RemU:
		return fc.compileDivRem(o)

	case o == ir.OpI64Popcnt:
		a, _ := fc.popReg(true)
		fc.emit(x86.Inst{Op: x86.POPCNT, W: x86.W64, Dst: x86.R(a), Src: x86.R(a)})
		fc.pushReg(a, ir.I64)
		return nil

	case aluOpFor[o] != 0:
		return fc.compileIntBin(pc, in)

	case fbinOpFor[o] != 0:
		n := len(fc.vstack)
		fc.ensureXmm(n-1, false)
		a := fc.ensureXmm(n-2, true)
		b := fc.ensureXmm(n-1, false)
		fc.vstack = fc.vstack[:n-2]
		fc.emit(x86.Inst{Op: fbinOpFor[o], Dst: x86.X(a), Src: x86.X(b)})
		fc.push(loc{kind: lXmm, typ: ir.F64, xmm: a})
		return nil

	case o == ir.OpF64Abs:
		a := fc.popXmm(true)
		fc.emit(x86.Inst{Op: x86.ABSSD, Dst: x86.X(a)})
		fc.push(loc{kind: lXmm, typ: ir.F64, xmm: a})
		return nil

	default:
		return fc.compileConvert(pc, in)
	}
}

// pushCmpResult pushes either a fused flags value or a SETcc result.
func (fc *fnc) pushCmpResult(pc int, c x86.Cond) {
	if fc.fuseAhead(pc) {
		fc.push(loc{kind: lFlags, typ: ir.I32, imm: int64(c)})
		return
	}
	r := fc.allocGPR()
	fc.emit(x86.Inst{Op: x86.SETCC, Cond: c, Dst: x86.R(r)})
	fc.pushReg(r, ir.I32)
}

func fitsImm32(v int64) bool { return v >= math.MinInt32 && v <= math.MaxInt32 }

// compileIntBin lowers add/sub/mul/logic/shift/rotate, including the
// address-folding lookahead that creates pending-address pairs for
// Segue's extra operand slot (and Guard's single-LEA form).
func (fc *fnc) compileIntBin(pc int, in ir.Inst) error {
	o := in.Op
	is64 := o == ir.OpI64Add || o == ir.OpI64Mul || o == ir.OpI64ShrU
	w := x86.W32
	t := ir.I32
	if is64 {
		w, t = x86.W64, ir.I64
	}
	n := len(fc.vstack)
	a, b := &fc.vstack[n-2], &fc.vstack[n-1]

	// Address-pair formation for i32.add feeding a memory access.
	if o == ir.OpI32Add && fc.memopAfter(pc) {
		if p := fc.tryFormPair(); p {
			return nil
		}
	}
	// Scaled-index formation: i32.shl x, c (c in 1..3) or i32.mul by
	// 2/4/8, followed — possibly after one simple push (local.get or
	// const, the other add operand) — by an i32.add feeding a memory
	// access.
	scaledAhead := func() bool {
		body := fc.f.Body
		if pc+1 >= len(body) {
			return false
		}
		if body[pc+1].Op == ir.OpI32Add && fc.memopAfter(pc+1) {
			return true
		}
		if (body[pc+1].Op == ir.OpLocalGet || body[pc+1].Op == ir.OpI32Const) &&
			pc+2 < len(body) && body[pc+2].Op == ir.OpI32Add && fc.memopAfter(pc+2) {
			return true
		}
		return false
	}
	if (o == ir.OpI32Shl || o == ir.OpI32Mul) && b.kind == lConst && scaledAhead() {
		var scale uint8
		if o == ir.OpI32Shl {
			switch b.imm {
			case 1:
				scale = 2
			case 2:
				scale = 4
			case 3:
				scale = 8
			}
		} else {
			switch b.imm {
			case 2, 4, 8:
				scale = uint8(b.imm)
			}
		}
		if scale != 0 && a.kind != lPair && a.kind != lFlags {
			fc.pop() // const
			r := fc.ensureReg(n-2, false)
			fc.pop()
			fc.push(loc{kind: lPair, typ: ir.I32, base: x86.RegNone, index: r, scale: scale})
			return nil
		}
	}

	// Immediate-operand form.
	if b.kind == lConst && fitsImm32(b.imm) {
		imm := b.imm
		fc.pop()
		ra := fc.ensureReg(len(fc.vstack)-1, true)
		fc.pop()
		fc.emit(x86.Inst{Op: aluOpFor[o], W: w, Dst: x86.R(ra), Src: x86.Imm(imm)})
		fc.pushReg(ra, t)
		return nil
	}

	// Register-register form.
	fc.ensureReg(n-1, false)
	ra := fc.ensureReg(n-2, true)
	rb := fc.ensureReg(n-1, false)
	fc.vstack = fc.vstack[:n-2]
	fc.emit(x86.Inst{Op: aluOpFor[o], W: w, Dst: x86.R(ra), Src: x86.R(rb)})
	fc.pushReg(ra, t)
	return nil
}

// tryFormPair attempts to turn the two top i32 entries (operands of an
// i32.add that feeds a memory op) into a pending-address pair. Returns
// false when the shapes don't allow it.
func (fc *fnc) tryFormPair() bool {
	n := len(fc.vstack)
	a, b := &fc.vstack[n-2], &fc.vstack[n-1]
	// scaled + const -> index*scale + disp.
	if a.kind == lPair && a.base == x86.RegNone && a.disp == 0 &&
		b.kind == lConst && b.imm >= 0 && b.imm <= 32767 {
		disp := int32(b.imm)
		idx, scale := a.index, a.scale
		fc.vstack = fc.vstack[:n-2]
		fc.push(loc{kind: lPair, typ: ir.I32, base: x86.RegNone, index: idx, scale: scale, disp: disp})
		return true
	}
	// reg + const -> base+disp.
	if b.kind == lConst && b.imm >= 0 && b.imm <= 32767 && a.kind != lPair && a.kind != lFlags {
		disp := int32(b.imm)
		fc.pop()
		r := fc.ensureReg(n-2, false)
		fc.pop()
		fc.push(loc{kind: lPair, typ: ir.I32, base: r, disp: disp})
		return true
	}
	if a.kind == lConst && a.imm >= 0 && a.imm <= 32767 && b.kind != lPair && b.kind != lFlags {
		disp := int32(a.imm)
		r := fc.ensureReg(n-1, false)
		fc.vstack = fc.vstack[:n-2]
		fc.push(loc{kind: lPair, typ: ir.I32, base: r, disp: disp})
		return true
	}
	// scaled + reg or reg + scaled -> base + index*scale. The base must
	// be materialized while the pair is still on the stack, or the
	// pair's index register loses its protection and can be claimed as
	// the base's scratch register.
	if b.kind == lPair && b.base == x86.RegNone && a.kind != lPair && a.kind != lFlags && a.kind != lConst {
		r := fc.ensureReg(n-2, false)
		if bb := &fc.vstack[n-1]; bb.kind == lPair && bb.base == x86.RegNone {
			idx, scale := bb.index, bb.scale
			fc.vstack = fc.vstack[:n-2]
			fc.push(loc{kind: lPair, typ: ir.I32, base: r, index: idx, scale: scale})
			return true
		}
		// The pair was spilled while materializing the base; fall
		// through to the generic handling below.
		a, b = &fc.vstack[n-2], &fc.vstack[n-1]
	}
	if a.kind == lPair && a.base == x86.RegNone && b.kind != lPair && b.kind != lFlags && b.kind != lConst {
		r := fc.ensureReg(n-1, false)
		idx, scale := a.index, a.scale
		fc.vstack = fc.vstack[:n-2]
		fc.push(loc{kind: lPair, typ: ir.I32, base: r, index: idx, scale: scale})
		return true
	}
	// reg + reg -> base + index*1.
	if a.kind != lPair && a.kind != lFlags && a.kind != lConst &&
		b.kind != lPair && b.kind != lFlags && b.kind != lConst {
		fc.ensureReg(n-1, false)
		ra := fc.ensureReg(n-2, false)
		rb := fc.ensureReg(n-1, false)
		fc.vstack = fc.vstack[:n-2]
		fc.push(loc{kind: lPair, typ: ir.I32, base: ra, index: rb, scale: 1})
		return true
	}
	return false
}

// allocGPRExcl allocates a scratch register outside the excluded set.
func (fc *fnc) allocGPRExcl(excl ...x86.Reg) x86.Reg {
	bad := func(r x86.Reg) bool {
		for _, e := range excl {
			if e == r {
				return true
			}
		}
		return false
	}
	for _, r := range fc.scratch {
		if !bad(r) && !fc.regInUse(r) {
			return r
		}
	}
	for i := range fc.vstack {
		k := fc.vstack[i].kind
		if k == lReg || k == lPair {
			if k == lReg && bad(fc.vstack[i].reg) {
				continue
			}
			fc.spillEntry(i)
			return fc.allocGPRExcl(excl...)
		}
	}
	panic("sfi: no register available outside exclusion set")
}

// compileDivRem lowers i32 division through the RAX/RDX convention.
func (fc *fnc) compileDivRem(o ir.Op) error {
	signed := o == ir.OpI32DivS || o == ir.OpI32RemS
	isRem := o == ir.OpI32RemS || o == ir.OpI32RemU
	w := x86.W32
	t := ir.I32
	n := len(fc.vstack)
	// Evict unrelated values from RAX/RDX.
	for i := 0; i < n-2; i++ {
		l := &fc.vstack[i]
		if l.kind == lReg && (l.reg == x86.RAX || l.reg == x86.RDX) {
			fc.spillEntry(i)
		}
		if l.kind == lPair && (l.base == x86.RAX || l.base == x86.RDX ||
			(l.scale != 0 && (l.index == x86.RAX || l.index == x86.RDX))) {
			fc.spillEntry(i)
		}
	}
	// Divisor must avoid RAX/RDX.
	rb := fc.ensureReg(n-1, false)
	if rb == x86.RAX || rb == x86.RDX {
		nr := fc.allocGPRExcl(x86.RAX, x86.RDX)
		fc.emit(x86.Inst{Op: x86.MOV, W: w, Dst: x86.R(nr), Src: x86.R(rb)})
		fc.vstack[n-1] = loc{kind: lReg, typ: t, reg: nr}
		rb = nr
	}
	ra := fc.ensureReg(n-2, false)
	rb = fc.ensureReg(n-1, false)
	fc.vstack = fc.vstack[:n-2]
	if ra != x86.RAX {
		fc.emit(x86.Inst{Op: x86.MOV, W: w, Dst: x86.R(x86.RAX), Src: x86.R(ra)})
	}
	if signed {
		fc.emit(x86.Inst{Op: x86.CQO, W: w})
		fc.emit(x86.Inst{Op: x86.IDIV, W: w, Dst: x86.R(rb)})
	} else {
		fc.emit(x86.Inst{Op: x86.XOR, W: x86.W64, Dst: x86.R(x86.RDX), Src: x86.R(x86.RDX)})
		fc.emit(x86.Inst{Op: x86.DIV, W: w, Dst: x86.R(rb)})
	}
	// Wasm rem_s of MinInt/-1 is 0 (no trap); the hardware IDIV traps on
	// that case, so engines emit a check. Our machine IDIV models the
	// checked engine sequence for div_s; for rem_s the kernels avoid the
	// corner (documented).
	if isRem {
		fc.pushReg(x86.RDX, t)
	} else {
		fc.pushReg(x86.RAX, t)
	}
	return nil
}

// compileConvert lowers conversion operators.
func (fc *fnc) compileConvert(pc int, in ir.Inst) error {
	switch in.Op {
	case ir.OpI32WrapI64:
		n := len(fc.vstack)
		l := &fc.vstack[n-1]
		if l.kind == lConst {
			l.imm = int64(uint32(l.imm))
			l.typ = ir.I32
			return nil
		}
		// In Segue and Native modes a wrapped value feeding a memory
		// access truncates for free via the address-size override
		// (Figure 1, pattern 1); under the signed-offset scheme the
		// access site sign-extends it instead (§5.1). Otherwise
		// truncate explicitly here.
		freeTrunc := (fc.cfg.Mode.usesSegment() || fc.cfg.Mode == ModeNative || fc.cfg.SignedOffset) &&
			fc.memopAfter(pc)
		if freeTrunc {
			l.typ = ir.I32
			l.dirty = true
			return nil
		}
		r := fc.ensureReg(n-1, true)
		fc.pop()
		fc.emit(x86.Inst{Op: x86.MOV, W: x86.W32, Dst: x86.R(r), Src: x86.R(r)})
		fc.pushReg(r, ir.I32)
		return nil

	case ir.OpI64ExtendI32U:
		n := len(fc.vstack)
		l := &fc.vstack[n-1]
		if l.kind == lConst {
			l.imm = int64(uint32(l.imm))
			l.typ = ir.I64
			return nil
		}
		r := fc.ensureReg(n-1, true)
		fc.pop()
		if l.dirty {
			fc.emit(x86.Inst{Op: x86.MOV, W: x86.W32, Dst: x86.R(r), Src: x86.R(r)})
		}
		fc.pushReg(r, ir.I64)
		return nil

	case ir.OpF64ConvertI32S:
		r, _ := fc.popReg(false)
		x := fc.allocXmm()
		fc.emit(x86.Inst{Op: x86.CVTSI2SD, W: x86.W32, Dst: x86.X(x), Src: x86.R(r)})
		fc.push(loc{kind: lXmm, typ: ir.F64, xmm: x})
		return nil
	case ir.OpI64ReinterpretF64:
		x := fc.popXmm(false)
		r := fc.allocGPR()
		fc.emit(x86.Inst{Op: x86.MOVQXR, Dst: x86.R(r), Src: x86.X(x)})
		fc.pushReg(r, ir.I64)
		return nil

	default:
		return fmt.Errorf("unimplemented opcode %v", in.Op)
	}
}

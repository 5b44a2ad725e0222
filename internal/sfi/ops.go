package sfi

import (
	"fmt"
	"math"

	"repro/internal/cpu"
	"repro/internal/ir"
	"repro/internal/x86"
)

// step compiles one IR instruction.
func (fc *fnc) step(pc int, in ir.Inst) error {
	switch in.Op {
	case ir.OpBlock:
		fc.spillVolatile()
		c := ctl{endLbl: fc.newLabel(), elseLbl: -1, height: len(fc.vstack)}
		if in.BlockType != ir.NoResult {
			c.hasResult = true
			c.resultType = ir.ValType(in.BlockType)
			c.resultSlot = fc.newSlot()
		}
		fc.ctls = append(fc.ctls, c)
	case ir.OpLoop:
		fc.spillVolatile()
		c := ctl{isLoop: true, startLbl: fc.newLabel(), endLbl: fc.newLabel(), elseLbl: -1, height: len(fc.vstack)}
		if in.BlockType != ir.NoResult {
			c.hasResult = true
			c.resultType = ir.ValType(in.BlockType)
			c.resultSlot = fc.newSlot()
		}
		fc.ctls = append(fc.ctls, c)
		fc.bind(c.startLbl)
		if fc.cfg.EpochChecks {
			fc.emit(x86.Inst{Op: x86.EPOCH})
		}
		if fc.harden().interlocksBackEdges() {
			// Swivel-SFI linear-block discipline: the loop header ends
			// a speculation-relevant block, so re-establish the
			// register interlock here.
			fc.emit(x86.Inst{Op: x86.INTERLOCK})
		}
	case ir.OpIf:
		cond := fc.popCond()
		fc.spillVolatile()
		c := ctl{isIf: true, elseLbl: fc.newLabel(), endLbl: fc.newLabel(), height: len(fc.vstack)}
		if in.BlockType != ir.NoResult {
			c.hasResult = true
			c.resultType = ir.ValType(in.BlockType)
			c.resultSlot = fc.newSlot()
		}
		fc.ctls = append(fc.ctls, c)
		fc.jcc(cond.Negate(), c.elseLbl)
	case ir.OpElse:
		fc.compileElse(false)
	case ir.OpEnd:
		fc.compileEnd(false)

	case ir.OpBr:
		fc.branch(int(in.Imm))
		fc.dead = true
	case ir.OpBrIf:
		fc.branchIf(int(in.Imm))
	case ir.OpBrTable:
		idx, _ := fc.popReg(false)
		fc.spillVolatile()
		targets := make([]int, len(in.Targets))
		for i, d := range in.Targets {
			lbl, err := fc.branchTargetLabel(int(d))
			if err != nil {
				return err
			}
			targets[i] = lbl
		}
		defLbl, err := fc.branchTargetLabel(int(in.Imm))
		if err != nil {
			return err
		}
		if fc.harden().flushesIndirect() {
			fc.emit(x86.Inst{Op: x86.BTBFLUSH})
		}
		fc.emit(x86.Inst{Op: x86.JTAB, Dst: x86.R(idx), Src: x86.Label(defLbl), Targets: targets})
		fc.dead = true

	case ir.OpCall:
		return fc.compileCall(uint32(in.Imm))
	case ir.OpCallIndirect:
		return fc.compileCallIndirect(int(in.Imm))

	case ir.OpLocalGet:
		li := uint32(in.Imm)
		fc.push(loc{kind: lLocal, typ: fc.f.LocalType(int(li)), local: li})
	case ir.OpLocalSet, ir.OpLocalTee:
		li := uint32(in.Imm)
		fc.invalidateLocal(li)
		t := fc.f.LocalType(int(li))
		place := fc.localPlace[li]
		if t == ir.F64 {
			x := fc.ensureXmm(len(fc.vstack)-1, false)
			fc.emit(x86.Inst{Op: x86.MOVSD, Dst: x86.M(fc.slotMem(place.slot)), Src: x86.X(x)})
		} else {
			r := fc.ensureReg(len(fc.vstack)-1, false)
			w := widthOf(t)
			if place.kind == lReg {
				fc.emit(x86.Inst{Op: x86.MOV, W: w, Dst: x86.R(place.reg), Src: x86.R(r)})
			} else {
				fc.emit(x86.Inst{Op: x86.MOV, W: w, Dst: x86.M(fc.slotMem(place.slot)), Src: x86.R(r)})
			}
		}
		if in.Op == ir.OpLocalSet {
			fc.pop()
		}
		// For tee, the value stays on the stack in its register.

	case ir.OpI32Const:
		fc.push(loc{kind: lConst, typ: ir.I32, imm: int64(uint32(in.Imm))})
	case ir.OpI64Const:
		fc.push(loc{kind: lConst, typ: ir.I64, imm: in.Imm})
	case ir.OpF64Const:
		fc.push(loc{kind: lFConst, typ: ir.F64, imm: int64(math.Float64bits(in.Fimm))})

	case ir.OpMemorySize:
		r := fc.allocGPR()
		fc.emit(x86.Inst{Op: x86.MOV, W: x86.W32, Dst: x86.R(r), Src: x86.M(x86.Mem{Base: vmctxReg, Disp: CtxMemPagesOff})})
		fc.pushReg(r, ir.I32)
	case ir.OpMemoryGrow:
		return fc.compileBuiltin(BuiltinGrow, 1, true)
	case ir.OpMemoryFill:
		return fc.compileBuiltin(BuiltinFill, 3, false)

	default:
		if in.Op.IsLoad() {
			return fc.compileLoad(pc, in)
		}
		if in.Op.IsStore() {
			return fc.compileStore(pc, in)
		}
		return fc.compileALU(pc, in)
	}
	return nil
}

// popCond pops an i32 condition, returning the x86 condition to branch
// on when the condition is TRUE. A pending lFlags entry is used
// directly (compare/branch fusion); otherwise TEST r,r ; NE.
func (fc *fnc) popCond() x86.Cond {
	top := &fc.vstack[len(fc.vstack)-1]
	if top.kind == lFlags {
		c := x86.Cond(top.imm)
		fc.pop()
		return c
	}
	r, _ := fc.popReg(false)
	fc.emit(x86.Inst{Op: x86.TEST, W: x86.W32, Dst: x86.R(r), Src: x86.R(r)})
	return x86.CondNE
}

func (fc *fnc) compileElse(fromDead bool) {
	c := &fc.ctls[len(fc.ctls)-1]
	if !fromDead {
		if c.hasResult {
			fc.storeResult(c)
		}
		fc.jmp(c.endLbl)
	}
	fc.bind(c.elseLbl)
	c.elseLbl = -2 // mark consumed
	fc.vstack = fc.vstack[:c.height]
	fc.dead = false
}

func (fc *fnc) compileEnd(fromDead bool) {
	c := fc.ctls[len(fc.ctls)-1]
	fc.ctls = fc.ctls[:len(fc.ctls)-1]
	if !fromDead && c.hasResult {
		fc.storeResult(&c)
	}
	if c.isIf && c.elseLbl >= 0 {
		// If without else: the false path lands here.
		fc.bind(c.elseLbl)
	}
	fc.bind(c.endLbl)
	fc.vstack = fc.vstack[:c.height]
	if c.hasResult {
		fc.push(loc{kind: lSlot, typ: c.resultType, slot: c.resultSlot})
	}
	fc.dead = false
}

// storeResult pops the top of stack into the control frame's result
// slot.
func (fc *fnc) storeResult(c *ctl) {
	if c.resultType == ir.F64 {
		x := fc.popXmm(false)
		fc.emit(x86.Inst{Op: x86.MOVSD, Dst: x86.M(fc.slotMem(c.resultSlot)), Src: x86.X(x)})
		return
	}
	r, t := fc.popReg(false)
	fc.emit(x86.Inst{Op: x86.MOV, W: widthOf(t), Dst: x86.M(fc.slotMem(c.resultSlot)), Src: x86.R(r)})
}

// branchTargetLabel returns the label a br of the given depth jumps to,
// for result-less targets (br_table).
func (fc *fnc) branchTargetLabel(depth int) (int, error) {
	idx := len(fc.ctls) - 1 - depth
	if idx < 0 {
		return 0, fmt.Errorf("branch depth %d escapes function scope in br_table", depth)
	}
	c := &fc.ctls[idx]
	if c.isLoop {
		return c.startLbl, nil
	}
	if c.hasResult {
		return 0, fmt.Errorf("br_table to a result-carrying block is unsupported")
	}
	return c.endLbl, nil
}

// branch compiles an unconditional br to the given depth.
func (fc *fnc) branch(depth int) {
	idx := len(fc.ctls) - 1 - depth
	if idx < 0 {
		// Branch out of the function body: equivalent to return.
		fc.moveResultToABI()
		fc.jmp(fc.epilogLbl)
		return
	}
	c := &fc.ctls[idx]
	if c.isLoop {
		fc.jmp(c.startLbl)
		return
	}
	if c.hasResult {
		fc.storeResult(c)
	}
	fc.jmp(c.endLbl)
}

// branchIf compiles br_if: branch to the target when the popped
// condition is non-zero; fall through otherwise.
func (fc *fnc) branchIf(depth int) {
	idx := len(fc.ctls) - 1 - depth
	if idx < 0 {
		// br_if to function scope: conditional return. Only supported
		// for result-less functions (kernels use explicit blocks
		// otherwise).
		cond := fc.popCond()
		fc.jcc(cond, fc.epilogLbl)
		return
	}
	c := &fc.ctls[idx]
	if c.isLoop {
		cond := fc.popCond()
		fc.jcc(cond, c.startLbl)
		return
	}
	if !c.hasResult {
		cond := fc.popCond()
		fc.jcc(cond, c.endLbl)
		return
	}
	// Result-carrying br_if: materialize the value first (MOV/LEA only,
	// so a pending lFlags condition survives), then branch around a
	// store+jump pair. The value stays on the stack for fallthrough.
	n := len(fc.vstack)
	var vr x86.Reg
	var vx x86.Xmm
	if c.resultType == ir.F64 {
		vx = fc.ensureXmm(n-2, false)
	} else {
		vr = fc.ensureReg(n-2, false)
	}
	cond := fc.popCond()
	skip := fc.newLabel()
	fc.jcc(cond.Negate(), skip)
	if c.resultType == ir.F64 {
		fc.emit(x86.Inst{Op: x86.MOVSD, Dst: x86.M(fc.slotMem(c.resultSlot)), Src: x86.X(vx)})
	} else {
		fc.emit(x86.Inst{Op: x86.MOV, W: widthOf(c.resultType), Dst: x86.M(fc.slotMem(c.resultSlot)), Src: x86.R(vr)})
	}
	fc.jmp(c.endLbl)
	fc.bind(skip)
}

// compileCall lowers a direct call (import or defined function).
func (fc *fnc) compileCall(irIdx uint32) error {
	sig, err := fc.m.TypeOf(irIdx)
	if err != nil {
		return err
	}
	fc.loadArgs(sig)
	if int(irIdx) < fc.meta.NumImports {
		fc.emit(x86.Inst{Op: x86.CALLHOST, Dst: x86.Imm(int64(fc.meta.HostIndex(irIdx)))})
	} else {
		fc.emit(x86.Inst{Op: x86.CALLFN, Dst: x86.Imm(int64(fc.meta.FuncIndex(irIdx)))})
	}
	fc.pushCallResult(sig)
	return nil
}

func (fc *fnc) compileCallIndirect(sigIdx int) error {
	sig := fc.m.SigByIndex(sigIdx)
	// Pop the table slot before spilling the arguments.
	n := len(fc.vstack)
	slotReg := fc.ensureReg(n-1, true)
	fc.pop()
	// Keep the slot register across argument setup by re-pushing it
	// temporarily under a fresh entry... simpler: spill it to a slot.
	s := fc.newSlot()
	fc.emit(x86.Inst{Op: x86.MOV, W: x86.W32, Dst: x86.M(fc.slotMem(s)), Src: x86.R(slotReg)})
	fc.loadArgs(sig)
	fc.emit(x86.Inst{Op: x86.MOV, W: x86.W32, Dst: x86.R(x86.R10), Src: x86.M(fc.slotMem(s))})
	fc.freeSlot(s)
	if fc.cfg.Mode.controlFlowSFI() {
		// LFI indirect-branch instrumentation: mask and rebase the
		// target (modeled on a scratch copy).
		fc.emit(x86.Inst{Op: x86.MOV, W: x86.W32, Dst: x86.R(x86.R11), Src: x86.R(x86.R10)})
		fc.emit(x86.Inst{Op: x86.ADD, W: x86.W64, Dst: x86.R(x86.R11), Src: x86.R(heapReg)})
	}
	if fc.harden().flushesIndirect() {
		// Swivel-SFI: flush the indirect predictors before an
		// untrusted indirect call.
		fc.emit(x86.Inst{Op: x86.BTBFLUSH})
	}
	fc.emit(x86.Inst{Op: x86.CALLREG, Dst: x86.R(x86.R10), Src: x86.Imm(int64(sigIdx))})
	fc.pushCallResult(sig)
	return nil
}

// loadArgs spills the vstack, then moves the top len(sig.Params)
// entries into the ABI argument registers and pops them.
func (fc *fnc) loadArgs(sig ir.FuncType) {
	fc.spillVolatile()
	n := len(sig.Params)
	base := len(fc.vstack) - n
	ipos, fpos := 0, 0
	for i, p := range sig.Params {
		l := fc.vstack[base+i]
		if p == ir.F64 {
			dst := x86.Xmm(fpos)
			fpos++
			switch l.kind {
			case lSlot:
				fc.emit(x86.Inst{Op: x86.MOVSD, Dst: x86.X(dst), Src: x86.M(fc.slotMem(l.slot))})
				fc.freeSlot(l.slot)
			case lFConst:
				fc.emit(x86.Inst{Op: x86.MOV, W: x86.W64, Dst: x86.R(x86.RAX), Src: x86.Imm(l.imm)})
				fc.emit(x86.Inst{Op: x86.MOVQRX, Dst: x86.X(dst), Src: x86.R(x86.RAX)})
			default:
				panic("sfi: unexpected f64 arg location after spill")
			}
			continue
		}
		dst := cpu.ArgRegs[ipos]
		ipos++
		w := widthOf(p)
		switch l.kind {
		case lSlot:
			fc.emit(x86.Inst{Op: x86.MOV, W: w, Dst: x86.R(dst), Src: x86.M(fc.slotMem(l.slot))})
			fc.freeSlot(l.slot)
		case lConst:
			fc.emit(x86.Inst{Op: x86.MOV, W: w, Dst: x86.R(dst), Src: x86.Imm(l.imm)})
		default:
			panic("sfi: unexpected int arg location after spill")
		}
	}
	fc.vstack = fc.vstack[:base]
}

func (fc *fnc) pushCallResult(sig ir.FuncType) {
	if len(sig.Results) == 0 {
		return
	}
	if sig.Results[0] == ir.F64 {
		fc.push(loc{kind: lXmm, typ: ir.F64, xmm: 0})
		return
	}
	fc.pushReg(x86.RAX, sig.Results[0])
}

// compileBuiltin lowers memory.grow/fill to a builtin host call.
func (fc *fnc) compileBuiltin(b int, args int, hasResult bool) error {
	params := make([]ir.ValType, args)
	for i := range params {
		params[i] = ir.I32
	}
	var results []ir.ValType
	if hasResult {
		results = []ir.ValType{ir.I32}
	}
	sig := ir.Sig(params, results)
	fc.loadArgs(sig)
	fc.emit(x86.Inst{Op: x86.CALLHOST, Dst: x86.Imm(int64(fc.meta.BuiltinIndex(b)))})
	fc.pushCallResult(sig)
	return nil
}

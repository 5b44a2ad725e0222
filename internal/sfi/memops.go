package sfi

import (
	"math"

	"repro/internal/ir"
	"repro/internal/x86"
)

// loadInstFor describes the x86 instruction shape for each load opcode.
func loadInstFor(o ir.Op) (op x86.Op, w, srcW x86.Width) {
	switch o {
	case ir.OpI32Load:
		return x86.MOV, x86.W32, 0
	case ir.OpI64Load:
		return x86.MOV, x86.W64, 0
	case ir.OpF64Load:
		return x86.MOVSD, x86.W64, 0
	case ir.OpI32Load8U:
		return x86.MOVZX, x86.W32, x86.W8
	case ir.OpI32Load16U:
		return x86.MOVZX, x86.W32, x86.W16
	}
	panic("sfi: not a load")
}

func storeWidthFor(o ir.Op) x86.Width {
	switch o {
	case ir.OpI32Store8:
		return x86.W8
	case ir.OpI32Store:
		return x86.W32
	case ir.OpI64Store, ir.OpF64Store:
		return x86.W64
	}
	panic("sfi: not a store")
}

// compileLoad lowers a memory load. The address is the top vstack entry.
func (fc *fnc) compileLoad(pc int, in ir.Inst) error {
	mem, err := fc.memOperandAt(len(fc.vstack)-1, in.Offset, in.Op.AccessSize(), true)
	if err != nil {
		return err
	}
	fc.pop() // the address entry (registers it used are now free)
	if fc.harden().masksLoads() {
		// Interlock / SLH mask: delay the sandbox load until the
		// bounds condition resolves (Swivel's register interlock).
		fc.emit(x86.Inst{Op: x86.INTERLOCK})
	}
	op, w, srcW := loadInstFor(in.Op)
	switch in.Op {
	case ir.OpF64Load:
		x := fc.allocXmm()
		fc.emit(x86.Inst{Op: op, Dst: x86.X(x), Src: x86.M(mem)})
		fc.push(loc{kind: lXmm, typ: ir.F64, xmm: x})
	default:
		r := fc.allocGPR()
		fc.emit(x86.Inst{Op: op, W: w, SrcW: srcW, Dst: x86.R(r), Src: x86.M(mem)})
		t := ir.I32
		if in.Op == ir.OpI64Load {
			t = ir.I64
		}
		fc.pushReg(r, t)
	}
	return nil
}

// compileStore lowers a memory store. Stack: [..., addr, value].
func (fc *fnc) compileStore(pc int, in ir.Inst) error {
	n := len(fc.vstack)
	w := storeWidthFor(in.Op)

	// Materialize the value first (keeping it on the vstack so its
	// register is protected while the address is formed).
	val := &fc.vstack[n-1]
	var valImm int64
	var valIsImm bool
	var valReg x86.Reg
	var valXmm x86.Xmm
	switch {
	case in.Op == ir.OpF64Store:
		valXmm = fc.ensureXmm(n-1, false)
	case val.kind == lConst && fitsImm32(val.imm):
		valIsImm, valImm = true, val.imm
	default:
		valReg = fc.ensureReg(n-1, false)
	}

	mem, err := fc.memOperandAt(n-2, in.Offset, in.Op.AccessSize(), false)
	if err != nil {
		return err
	}
	// Re-fetch the value register in case address formation spilled it.
	if !valIsImm && in.Op != ir.OpF64Store {
		valReg = fc.ensureReg(n-1, false)
	}
	fc.vstack = fc.vstack[:n-2]

	if fc.harden().masksStores() {
		// Deterministic SLH masks store addresses too.
		fc.emit(x86.Inst{Op: x86.INTERLOCK})
	}
	switch {
	case in.Op == ir.OpF64Store:
		fc.emit(x86.Inst{Op: x86.MOVSD, Dst: x86.M(mem), Src: x86.X(valXmm)})
	case valIsImm:
		fc.emit(x86.Inst{Op: x86.MOV, W: w, Dst: x86.M(mem), Src: x86.Imm(valImm)})
	default:
		fc.emit(x86.Inst{Op: x86.MOV, W: w, Dst: x86.M(mem), Src: x86.R(valReg)})
	}
	return nil
}

// memOperandAt builds the x86 memory operand for an access whose IR
// address is the vstack entry at index idx, under the configured mode.
// This is where Segue's three benefits materialize (or don't):
//
//   - Guard: [R15 + addr + disp] with an explicit 32-bit LEA for any
//     computed address and an explicit truncation for dirty values.
//   - Segue: gs:[addr-parts + disp] folding base+index*scale directly,
//     with the address-size override standing in for truncation.
//   - Native: like Segue but through the implicit 64-bit pointer base.
//   - Bounds modes: an explicit limit comparison precedes the access.
func (fc *fnc) memOperandAt(idx int, offset uint32, size uint32, isLoad bool) (x86.Mem, error) {
	mode := fc.cfg.Mode
	useSeg := mode.usesSegment() && (isLoad || !fc.cfg.SegueLoadsOnly)
	foldPair := fc.cfg.FoldOperandSlot && (useSeg || mode == ModeNative)
	l := &fc.vstack[idx]

	// Constant address: fold everything into the displacement.
	if l.kind == lConst {
		total := int64(uint32(l.imm)) + int64(offset)
		if total <= math.MaxInt32 {
			switch {
			case mode == ModeNative:
				return x86.Mem{Seg: x86.SegImplicit, Base: x86.RegNone, Disp: int32(total)}, nil
			case useSeg:
				return x86.Mem{Seg: x86.SegGS, Base: x86.RegNone, Disp: int32(total), Addr32: true}, nil
			case mode.boundsChecked():
				fc.emitBoundsCheckConst(uint64(total), size)
				return fc.plainAccess(x86.RegNone, int32(total), useSeg, mode), nil
			default:
				return x86.Mem{Base: heapReg, Disp: int32(total)}, nil
			}
		}
		// Oversized constant: materialize and fall through.
		fc.ensureReg(idx, false)
	}

	// Pending pair: fold into the operand slot where the mode allows.
	if l.kind == lPair && foldPair && !mode.boundsChecked() {
		total := int64(l.disp) + int64(offset)
		if total <= int64(fc.cfg.FoldDispLimit) {
			mem := x86.Mem{Base: l.base, Disp: int32(total), Addr32: true}
			if l.scale != 0 {
				mem.Index, mem.Scale = l.index, l.scale
			}
			if l.base == x86.RegNone && l.scale == 0 {
				// Degenerate pair; treat as register below.
			} else {
				if mode == ModeNative {
					mem.Seg = x86.SegImplicit
				} else {
					mem.Seg = x86.SegGS
				}
				return mem, nil
			}
		}
	}

	// Everything else needs the address as a register. Dirty values may
	// be truncated in place below, so they need a mutable (non-aliased)
	// register.
	r := fc.ensureReg(idx, fc.vstack[idx].dirty)
	dirty := fc.vstack[idx].dirty

	// Fold the static offset when it is within the guard-covered limit;
	// otherwise add it explicitly (64-bit, no wrap on clean values).
	disp := int32(0)
	if offset <= fc.cfg.FoldDispLimit {
		disp = int32(offset)
	} else {
		// Oversized static offset: truncate (if needed) and add it
		// explicitly in 64 bits so no wrap can occur. The new register
		// must be recorded on the vstack entry, or a later allocation
		// (bounds-check temporary, spilled-value reload) could claim
		// and clobber it before the access is emitted.
		nr := fc.allocGPR()
		if dirty {
			fc.emit(x86.Inst{Op: x86.MOV, W: x86.W32, Dst: x86.R(nr), Src: x86.R(r)})
			fc.emit(x86.Inst{Op: x86.ADD, W: x86.W64, Dst: x86.R(nr), Src: x86.Imm(int64(offset))})
		} else {
			fc.emit(x86.Inst{Op: x86.LEA, W: x86.W64, Dst: x86.R(nr), Src: x86.M(x86.Mem{Base: r, Disp: int32(offset)})})
		}
		fc.vstack[idx] = loc{kind: lReg, typ: ir.I32, reg: nr}
		r, dirty, disp = nr, false, 0
	}

	switch {
	case mode == ModeNative:
		return x86.Mem{Seg: x86.SegImplicit, Base: r, Disp: disp, Addr32: dirty}, nil
	case useSeg && !mode.boundsChecked():
		if fc.cfg.Hybrid && !dirty {
			// Cost-function hybrid (§6.1 future work): a plain clean
			// register gains nothing from the segment form, so use the
			// pinned base and skip the prefix bytes.
			return x86.Mem{Base: heapReg, Index: r, Scale: 1, Disp: disp}, nil
		}
		// Wasm2c's named-address-space codegen always carries the
		// address-size override with the segment prefix (Figure 1c) —
		// that second byte is the cost behind the 473_astar outlier.
		return x86.Mem{Seg: x86.SegGS, Base: r, Disp: disp, Addr32: true}, nil
	case mode.boundsChecked():
		if dirty {
			fc.emit(x86.Inst{Op: x86.MOV, W: x86.W32, Dst: x86.R(r), Src: x86.R(r)})
		}
		fc.emitBoundsCheck(r, uint32(disp), size)
		return fc.plainAccess(r, disp, useSeg, mode), nil
	default: // Guard and LFI data accesses.
		if dirty {
			if fc.cfg.SignedOffset {
				// Wasmtime's signed-offset scheme (§5.1): sign-extend
				// the untrusted index so corrupt values go negative and
				// trap in the pre-guard region.
				fc.emit(x86.Inst{Op: x86.MOVSX, W: x86.W64, SrcW: x86.W32, Dst: x86.R(r), Src: x86.R(r)})
			} else {
				// Pattern 1 of Figure 1: the explicit truncation classic
				// SFI pays that Segue gets for free.
				fc.emit(x86.Inst{Op: x86.MOV, W: x86.W32, Dst: x86.R(r), Src: x86.R(r)})
			}
		}
		return x86.Mem{Base: heapReg, Index: r, Scale: 1, Disp: disp}, nil
	}
}

// plainAccess builds the access operand used after an explicit bounds
// check.
func (fc *fnc) plainAccess(r x86.Reg, disp int32, useSeg bool, mode Mode) x86.Mem {
	if useSeg {
		if r == x86.RegNone {
			return x86.Mem{Seg: x86.SegGS, Base: x86.RegNone, Disp: disp}
		}
		return x86.Mem{Seg: x86.SegGS, Base: r, Disp: disp}
	}
	if r == x86.RegNone {
		return x86.Mem{Base: heapReg, Disp: disp}
	}
	return x86.Mem{Base: heapReg, Index: r, Scale: 1, Disp: disp}
}

// emitBoundsCheck emits the explicit limit comparison: the end of the
// access must not exceed the linear-memory size held in the context.
func (fc *fnc) emitBoundsCheck(addr x86.Reg, disp uint32, size uint32) {
	t := fc.allocGPR()
	fc.emit(x86.Inst{Op: x86.LEA, W: x86.W64, Dst: x86.R(t),
		Src: x86.M(x86.Mem{Base: addr, Disp: int32(disp + size)})})
	fc.emit(x86.Inst{Op: x86.CMP, W: x86.W64, Dst: x86.R(t),
		Src: x86.M(x86.Mem{Base: vmctxReg, Disp: CtxMemLimitOff})})
	fc.emit(x86.Inst{Op: x86.TRAPIF, Cond: x86.CondA})
}

func (fc *fnc) emitBoundsCheckConst(end uint64, size uint32) {
	t := fc.allocGPR()
	fc.emit(x86.Inst{Op: x86.MOV, W: x86.W64, Dst: x86.R(t), Src: x86.Imm(int64(end + uint64(size)))})
	fc.emit(x86.Inst{Op: x86.CMP, W: x86.W64, Dst: x86.R(t),
		Src: x86.M(x86.Mem{Base: vmctxReg, Disp: CtxMemLimitOff})})
	fc.emit(x86.Inst{Op: x86.TRAPIF, Cond: x86.CondA})
}

package sfi

import (
	"fmt"

	"repro/internal/cpu"
	"repro/internal/ir"
	"repro/internal/x86"
)

// Register conventions for compiled code:
//
//	RSP/RBP  — machine stack / frame pointer (locals, spill slots)
//	R14      — vmctx: per-instance context block (heap base, limits)
//	R15      — heap base in modes that pin it; an extra local register
//	           in ModeNative/ModeSegue/ModeBoundsSegue
//	R12, R13, RBX — register-resident locals (callee-saved)
//	others   — scratch pool for the virtual stack
var scratchGPRs = []x86.Reg{
	x86.RAX, x86.RCX, x86.RDX, x86.RSI, x86.RDI,
	x86.R8, x86.R9, x86.R10, x86.R11,
}

const vmctxReg = x86.R14
const heapReg = x86.R15

// locKind discriminates virtual-stack value locations.
type locKind uint8

const (
	lReg    locKind = iota // integer value in a scratch GPR
	lXmm                   // f64 value in an xmm register
	lSlot                  // value in a frame spill slot
	lConst                 // integer constant
	lFConst                // f64 constant (bits in imm)
	lLocal                 // lazy reference to a local variable
	lPair                  // pending address: base + index*scale + disp
	lFlags                 // pending comparison result in EFLAGS
)

// loc describes where a virtual-stack value currently lives.
type loc struct {
	kind  locKind
	typ   ir.ValType
	reg   x86.Reg
	xmm   x86.Xmm
	slot  int
	imm   int64
	local uint32
	dirty bool // i32 value whose upper 32 register bits are unknown

	// lPair fields.
	base, index x86.Reg
	scale       uint8
	disp        int32
}

// ctl is a control-structure frame during compilation.
type ctl struct {
	isLoop     bool
	isIf       bool
	startLbl   int // loop header label
	elseLbl    int
	endLbl     int
	height     int // vstack height at entry
	hasResult  bool
	resultType ir.ValType
	resultSlot int
}

type fnc struct {
	m       *ir.Module
	f       *ir.Func
	cfg     Config
	meta    *Meta
	scratch []x86.Reg

	insts  []x86.Inst
	labels []int

	vstack []loc
	ctls   []ctl

	localPlace []loc // lReg (pinned) or lSlot per local
	localRegs  []x86.Reg

	slots     int   // high-water slot count
	freeSlots []int // recycled slot indices
	numSaved  int   // callee-saved registers pushed in the prologue

	dead      bool
	deadDepth int

	subIdx    int // prologue SUB RSP instruction index, patched at the end
	epilogLbl int
}

// r15Free reports whether R15 is available to the register allocator.
// Segue frees it unless the mode pins it for control flow (LFI) or
// stores still need it (SegueLoadsOnly). The native baseline has no
// reserved heap register at all.
func (fc *fnc) r15Free() bool {
	if fc.cfg.ReserveR15 {
		return false
	}
	if fc.cfg.Mode == ModeNative {
		return true
	}
	if fc.cfg.Mode.pinsHeapBase() || fc.cfg.SegueLoadsOnly || fc.cfg.Hybrid {
		return false
	}
	return fc.cfg.Mode.usesSegment()
}

func newFnCompiler(m *ir.Module, f *ir.Func, cfg Config, meta *Meta) *fnc {
	fc := &fnc{m: m, f: f, cfg: cfg, meta: meta, scratch: scratchGPRs}
	if cfg.ReserveR15 {
		// The LFI rewriting contract also reserves R11, the rewriter's
		// scratch register.
		fc.scratch = make([]x86.Reg, 0, len(scratchGPRs)-1)
		for _, r := range scratchGPRs {
			if r != x86.R11 {
				fc.scratch = append(fc.scratch, r)
			}
		}
	}
	return fc
}

func (fc *fnc) emit(in x86.Inst) { fc.insts = append(fc.insts, in) }

// harden returns the effective hardening scheme: the configured one,
// except under ModeNative (trusted code is never instrumented).
func (fc *fnc) harden() Harden {
	if fc.cfg.Mode == ModeNative {
		return HardenNone
	}
	return fc.cfg.Harden
}

func (fc *fnc) newLabel() int {
	fc.labels = append(fc.labels, -1)
	return len(fc.labels) - 1
}

func (fc *fnc) bind(lbl int) { fc.labels[lbl] = len(fc.insts) }

func (fc *fnc) jmp(lbl int) { fc.emit(x86.Inst{Op: x86.JMP, Dst: x86.Label(lbl)}) }

func (fc *fnc) jcc(c x86.Cond, lbl int) {
	fc.emit(x86.Inst{Op: x86.JCC, Cond: c, Dst: x86.Label(lbl)})
}

// widthOf maps an IR type to the operation width.
func widthOf(t ir.ValType) x86.Width {
	if t == ir.I32 {
		return x86.W32
	}
	return x86.W64
}

// --- slots ---

func (fc *fnc) newSlot() int {
	if n := len(fc.freeSlots); n > 0 {
		s := fc.freeSlots[n-1]
		fc.freeSlots = fc.freeSlots[:n-1]
		return s
	}
	fc.slots++
	return fc.slots - 1
}

func (fc *fnc) freeSlot(s int) { fc.freeSlots = append(fc.freeSlots, s) }

// slotMem returns the frame address of a spill slot.
func (fc *fnc) slotMem(s int) x86.Mem {
	return x86.Mem{Base: x86.RBP, Disp: int32(-8 * (fc.numSaved + s + 1))}
}

// --- register allocation ---

// regInUse reports whether r is referenced by any vstack entry or
// pinned local.
func (fc *fnc) regInUse(r x86.Reg) bool {
	for i := range fc.vstack {
		l := &fc.vstack[i]
		switch l.kind {
		case lReg:
			if l.reg == r {
				return true
			}
		case lPair:
			if l.base == r || (l.scale != 0 && l.index == r) {
				return true
			}
		}
	}
	for _, lr := range fc.localRegs {
		if lr == r {
			return true
		}
	}
	return false
}

// allocGPR returns a free scratch register, spilling the oldest
// register-resident vstack entry if necessary.
func (fc *fnc) allocGPR() x86.Reg {
	for _, r := range fc.scratch {
		if !fc.regInUse(r) {
			return r
		}
	}
	for i := range fc.vstack {
		if fc.vstack[i].kind == lReg || fc.vstack[i].kind == lPair {
			fc.spillEntry(i)
			return fc.allocGPR()
		}
	}
	panic("sfi: no spillable register (vstack corrupted)")
}

func (fc *fnc) xmmInUse(x x86.Xmm) bool {
	for i := range fc.vstack {
		if fc.vstack[i].kind == lXmm && fc.vstack[i].xmm == x {
			return true
		}
	}
	return false
}

func (fc *fnc) allocXmm() x86.Xmm {
	for x := x86.Xmm(0); x < 14; x++ {
		if !fc.xmmInUse(x) {
			return x
		}
	}
	for i := range fc.vstack {
		if fc.vstack[i].kind == lXmm {
			fc.spillEntry(i)
			return fc.allocXmm()
		}
	}
	panic("sfi: no spillable xmm register")
}

// spillEntry stores vstack entry i to a fresh slot.
func (fc *fnc) spillEntry(i int) {
	l := &fc.vstack[i]
	switch l.kind {
	case lReg:
		s := fc.newSlot()
		fc.emit(x86.Inst{Op: x86.MOV, W: widthOf(l.typ), Dst: x86.M(fc.slotMem(s)), Src: x86.R(l.reg)})
		*l = loc{kind: lSlot, typ: l.typ, slot: s}
	case lPair:
		fc.materializePair(l)
		fc.spillEntry(i)
	case lXmm:
		s := fc.newSlot()
		fc.emit(x86.Inst{Op: x86.MOVSD, Dst: x86.M(fc.slotMem(s)), Src: x86.X(l.xmm)})
		*l = loc{kind: lSlot, typ: l.typ, slot: s}
	case lLocal:
		// Copy the current local value out (the local may change).
		s := fc.newSlot()
		src := fc.localPlace[l.local]
		t := fc.f.LocalType(int(l.local))
		if t == ir.F64 {
			x := fc.allocXmm()
			fc.emitLoadLocalF(src, x)
			fc.emit(x86.Inst{Op: x86.MOVSD, Dst: x86.M(fc.slotMem(s)), Src: x86.X(x)})
		} else {
			r := fc.allocGPR()
			fc.emitLoadLocal(src, r, t)
			fc.emit(x86.Inst{Op: x86.MOV, W: widthOf(t), Dst: x86.M(fc.slotMem(s)), Src: x86.R(r)})
		}
		*l = loc{kind: lSlot, typ: l.typ, slot: s}
	case lConst, lFConst, lSlot, lFlags:
		// Stable across control flow, or (lFlags) consumed by the very
		// next instruction; nothing to do.
	}
}

// materializePair turns a pending address into a clean i32 register via
// a 32-bit LEA (which truncates, matching i32.add wrap semantics).
func (fc *fnc) materializePair(l *loc) {
	r := fc.allocGPR()
	mem := x86.Mem{Base: l.base, Disp: l.disp}
	if l.scale != 0 {
		mem.Index, mem.Scale = l.index, l.scale
	}
	fc.emit(x86.Inst{Op: x86.LEA, W: x86.W32, Dst: x86.R(r), Src: x86.M(mem)})
	*l = loc{kind: lReg, typ: ir.I32, reg: r}
}

func (fc *fnc) emitLoadLocal(place loc, r x86.Reg, t ir.ValType) {
	w := widthOf(t)
	if place.kind == lReg {
		fc.emit(x86.Inst{Op: x86.MOV, W: w, Dst: x86.R(r), Src: x86.R(place.reg)})
	} else {
		fc.emit(x86.Inst{Op: x86.MOV, W: w, Dst: x86.R(r), Src: x86.M(fc.slotMem(place.slot))})
	}
}

func (fc *fnc) emitLoadLocalF(place loc, x x86.Xmm) {
	fc.emit(x86.Inst{Op: x86.MOVSD, Dst: x86.X(x), Src: x86.M(fc.slotMem(place.slot))})
}

// ensureReg materializes vstack entry i into a GPR (integer types).
// When mutable is set the resulting register is guaranteed not to alias
// a local register, so the caller may overwrite it.
func (fc *fnc) ensureReg(i int, mutable bool) x86.Reg {
	l := &fc.vstack[i]
	switch l.kind {
	case lReg:
		return l.reg
	case lConst:
		r := fc.allocGPR()
		w := widthOf(l.typ)
		fc.emit(x86.Inst{Op: x86.MOV, W: w, Dst: x86.R(r), Src: x86.Imm(l.imm)})
		*l = loc{kind: lReg, typ: l.typ, reg: r}
		return r
	case lSlot:
		r := fc.allocGPR()
		fc.emit(x86.Inst{Op: x86.MOV, W: widthOf(l.typ), Dst: x86.R(r), Src: x86.M(fc.slotMem(l.slot))})
		fc.freeSlot(l.slot)
		*l = loc{kind: lReg, typ: l.typ, reg: r}
		return r
	case lLocal:
		place := fc.localPlace[l.local]
		t := fc.f.LocalType(int(l.local))
		if place.kind == lReg && !mutable {
			return place.reg
		}
		r := fc.allocGPR()
		fc.emitLoadLocal(place, r, t)
		dirty := l.dirty
		*l = loc{kind: lReg, typ: l.typ, reg: r, dirty: dirty}
		return r
	case lPair:
		fc.materializePair(l)
		return l.reg
	default:
		panic(fmt.Sprintf("sfi: ensureReg on kind %d", l.kind))
	}
}

// ensureXmm materializes vstack entry i into an xmm register.
func (fc *fnc) ensureXmm(i int, mutable bool) x86.Xmm {
	l := &fc.vstack[i]
	switch l.kind {
	case lXmm:
		return l.xmm
	case lFConst:
		x := fc.allocXmm()
		r := fc.allocGPR()
		fc.emit(x86.Inst{Op: x86.MOV, W: x86.W64, Dst: x86.R(r), Src: x86.Imm(l.imm)})
		fc.emit(x86.Inst{Op: x86.MOVQRX, Dst: x86.X(x), Src: x86.R(r)})
		*l = loc{kind: lXmm, typ: ir.F64, xmm: x}
		return x
	case lSlot:
		x := fc.allocXmm()
		fc.emit(x86.Inst{Op: x86.MOVSD, Dst: x86.X(x), Src: x86.M(fc.slotMem(l.slot))})
		fc.freeSlot(l.slot)
		*l = loc{kind: lXmm, typ: ir.F64, xmm: x}
		return x
	case lLocal:
		place := fc.localPlace[l.local]
		x := fc.allocXmm()
		fc.emitLoadLocalF(place, x)
		*l = loc{kind: lXmm, typ: ir.F64, xmm: x}
		return x
	default:
		panic(fmt.Sprintf("sfi: ensureXmm on kind %d", l.kind))
	}
}

func (fc *fnc) push(l loc)                      { fc.vstack = append(fc.vstack, l) }
func (fc *fnc) pushReg(r x86.Reg, t ir.ValType) { fc.push(loc{kind: lReg, typ: t, reg: r}) }
func (fc *fnc) pop() loc {
	l := fc.vstack[len(fc.vstack)-1]
	fc.vstack = fc.vstack[:len(fc.vstack)-1]
	return l
}

// popReg pops the top of stack into a register.
func (fc *fnc) popReg(mutable bool) (x86.Reg, ir.ValType) {
	r := fc.ensureReg(len(fc.vstack)-1, mutable)
	l := fc.pop()
	return r, l.typ
}

// popXmm pops the top of stack into an xmm register.
func (fc *fnc) popXmm(mutable bool) x86.Xmm {
	x := fc.ensureXmm(len(fc.vstack)-1, mutable)
	fc.pop()
	return x
}

// spillVolatile spills every volatile vstack entry (registers, pairs,
// lazy locals) to slots. Called at control-flow boundaries and calls;
// constants stay as constants.
func (fc *fnc) spillVolatile() {
	for i := range fc.vstack {
		switch fc.vstack[i].kind {
		case lReg, lXmm, lPair, lLocal:
			fc.spillEntry(i)
		}
	}
}

// invalidateLocal materializes any vstack reference to local li before
// the local is overwritten.
func (fc *fnc) invalidateLocal(li uint32) {
	place := fc.localPlace[li]
	for i := range fc.vstack {
		l := &fc.vstack[i]
		switch l.kind {
		case lLocal:
			if l.local == li {
				if fc.f.LocalType(int(li)) == ir.F64 {
					fc.ensureXmm(i, true)
				} else {
					fc.ensureReg(i, true)
				}
			}
		case lPair:
			if place.kind == lReg && (l.base == place.reg || (l.scale != 0 && l.index == place.reg)) {
				fc.materializePair(l)
			}
		}
	}
}

// --- compilation driver ---

func (fc *fnc) compile() (*cpu.Func, error) {
	f := fc.f
	if len(f.Type.Params) > len(cpu.ArgRegs) {
		return nil, fmt.Errorf("more than %d parameters unsupported", len(cpu.ArgRegs))
	}

	// Local placement: the first integer locals go to the local
	// register pool; everything else gets a frame slot.
	fc.localRegs = []x86.Reg{x86.R12, x86.R13, x86.RBX}
	if fc.r15Free() {
		// Segue frees R15 for the allocator — the paper's "frees a
		// GPR" — and the native baseline never reserved it.
		fc.localRegs = append(fc.localRegs, heapReg)
	}
	nextReg := 0
	fc.localPlace = make([]loc, f.NumLocals())
	for i := 0; i < f.NumLocals(); i++ {
		t := f.LocalType(i)
		if t != ir.F64 && nextReg < len(fc.localRegs) {
			fc.localPlace[i] = loc{kind: lReg, typ: t, reg: fc.localRegs[nextReg]}
			nextReg++
		} else {
			fc.localPlace[i] = loc{kind: lSlot, typ: t, slot: fc.newSlot()}
		}
	}
	fc.localRegs = fc.localRegs[:nextReg] // only pin what is used
	fc.numSaved = len(fc.localRegs)

	// Prologue. CET-style schemes land every function entry on an
	// endbranch pad (entries are indirect-call targets via the table).
	if fc.harden().endbrEntry() {
		fc.emit(x86.Inst{Op: x86.ENDBR})
	}
	fc.emit(x86.Inst{Op: x86.PUSH, Dst: x86.R(x86.RBP)})
	fc.emit(x86.Inst{Op: x86.MOV, W: x86.W64, Dst: x86.R(x86.RBP), Src: x86.R(x86.RSP)})
	for _, r := range fc.localRegs {
		fc.emit(x86.Inst{Op: x86.PUSH, Dst: x86.R(r)})
	}
	fc.subIdx = len(fc.insts)
	fc.emit(x86.Inst{Op: x86.SUB, W: x86.W64, Dst: x86.R(x86.RSP), Src: x86.Imm(0)})

	// Move arguments into their local homes and zero the extra locals.
	fpos := 0
	ipos := 0
	for i, p := range f.Type.Params {
		place := fc.localPlace[i]
		if p == ir.F64 {
			src := x86.Xmm(fpos)
			fpos++
			fc.emit(x86.Inst{Op: x86.MOVSD, Dst: x86.M(fc.slotMem(place.slot)), Src: x86.X(src)})
			continue
		}
		src := cpu.ArgRegs[ipos]
		ipos++
		w := widthOf(p)
		if place.kind == lReg {
			fc.emit(x86.Inst{Op: x86.MOV, W: w, Dst: x86.R(place.reg), Src: x86.R(src)})
		} else {
			fc.emit(x86.Inst{Op: x86.MOV, W: w, Dst: x86.M(fc.slotMem(place.slot)), Src: x86.R(src)})
		}
	}
	for i := len(f.Type.Params); i < f.NumLocals(); i++ {
		place := fc.localPlace[i]
		if place.kind == lReg {
			fc.emit(x86.Inst{Op: x86.XOR, W: x86.W64, Dst: x86.R(place.reg), Src: x86.R(place.reg)})
		} else {
			fc.emit(x86.Inst{Op: x86.MOV, W: x86.W64, Dst: x86.M(fc.slotMem(place.slot)), Src: x86.Imm(0)})
		}
	}

	fc.epilogLbl = fc.newLabel()

	// Compile the body.
	for pc := 0; pc < len(f.Body); pc++ {
		in := f.Body[pc]
		if fc.dead {
			switch in.Op {
			case ir.OpBlock, ir.OpLoop, ir.OpIf:
				fc.deadDepth++
			case ir.OpElse:
				if fc.deadDepth == 0 {
					fc.compileElse(true)
				}
			case ir.OpEnd:
				if fc.deadDepth > 0 {
					fc.deadDepth--
				} else {
					fc.compileEnd(true)
				}
			}
			continue
		}
		if err := fc.step(pc, in); err != nil {
			return nil, fmt.Errorf("at %d (%s): %w", pc, in, err)
		}
	}

	// Fallthrough return.
	if !fc.dead {
		fc.moveResultToABI()
	}

	// Epilogue.
	fc.bind(fc.epilogLbl)
	if fc.cfg.Mode.controlFlowSFI() {
		// LFI return instrumentation: mask the return address to 32
		// bits and add the sandbox base (NaCl-style), which is why LFI
		// keeps R15 pinned even under Segue (§4.3).
		fc.emit(x86.Inst{Op: x86.MOV, W: x86.W64, Dst: x86.R(x86.R11), Src: x86.M(x86.Mem{Base: x86.RSP})})
		fc.emit(x86.Inst{Op: x86.MOV, W: x86.W32, Dst: x86.R(x86.R11), Src: x86.R(x86.R11)})
		fc.emit(x86.Inst{Op: x86.ADD, W: x86.W64, Dst: x86.R(x86.R11), Src: x86.R(heapReg)})
	}
	for i := len(fc.localRegs) - 1; i >= 0; i-- {
		fc.emit(x86.Inst{Op: x86.MOV, W: x86.W64, Dst: x86.R(fc.localRegs[i]),
			Src: x86.M(x86.Mem{Base: x86.RBP, Disp: int32(-8 * (i + 1))})})
	}
	fc.emit(x86.Inst{Op: x86.MOV, W: x86.W64, Dst: x86.R(x86.RSP), Src: x86.R(x86.RBP)})
	fc.emit(x86.Inst{Op: x86.POP, Dst: x86.R(x86.RBP)})
	if fc.harden().flushesIndirect() {
		// Swivel-SFI treats the return as an untrusted indirect
		// transfer: flush the indirect predictors before it.
		fc.emit(x86.Inst{Op: x86.BTBFLUSH})
	}
	fc.emit(x86.Inst{Op: x86.RET})

	// Patch the frame size and resolve labels.
	fc.insts[fc.subIdx].Src = x86.Imm(int64(8 * fc.slots))
	for i := range fc.insts {
		in := &fc.insts[i]
		switch in.Op {
		case x86.JMP, x86.JCC:
			in.Dst.Label = fc.labels[in.Dst.Label]
		case x86.JTAB:
			in.Src.Label = fc.labels[in.Src.Label]
			for k, t := range in.Targets {
				in.Targets[k] = fc.labels[t]
			}
		}
	}
	return &cpu.Func{Name: f.Name, Insts: fc.insts}, nil
}

// moveResultToABI moves the function result (if any) to RAX/xmm0.
func (fc *fnc) moveResultToABI() {
	if len(fc.f.Type.Results) == 0 {
		return
	}
	if fc.f.Type.Results[0] == ir.F64 {
		x := fc.popXmm(false)
		if x != 0 {
			fc.emit(x86.Inst{Op: x86.MOVSD, Dst: x86.X(0), Src: x86.X(x)})
		}
		return
	}
	r, t := fc.popReg(false)
	if r != x86.RAX {
		fc.emit(x86.Inst{Op: x86.MOV, W: widthOf(t), Dst: x86.R(x86.RAX), Src: x86.R(r)})
	} else if t == ir.I32 {
		// Ensure the ABI result is zero-extended.
		_ = r
	}
}

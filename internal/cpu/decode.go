package cpu

import "repro/internal/x86"

// This file implements the decoded loop's instruction format. The
// emulator's portable loop (runSlow, the oracle) re-discovers operand
// kinds, register numbers, and segment bases through nested switches on
// every executed instruction. Predecoding resolves all of that once per
// Program into a flat array of dinst values: operand kinds collapse to
// a byte, effective-address recipes are precomputed (base/index
// register numbers, scale, sign-extended displacement, segment
// selector), and per-instruction encoded lengths are inlined so the
// fetch-cost computation needs no second slice lookup. The decoded form
// is immutable and shared by every Machine running the Program; the
// fused overlay (fuse.go) is a clone of it in the same type, so one
// loop (machine_decoded.go) executes either stream.

// Predecoded operand kinds (daccess.kind).
const (
	dNone uint8 = iota
	dReg
	dXmm
	dImm
	dMem
	dLabel
)

// Predecoded segment recipe (daccess.seg). SegImplicit (the native
// baseline's implicit heap base) resolves to the GS base like the
// emulator's slow path does.
const (
	dSegNone uint8 = iota
	dSegGS
	dSegFS
)

// dRegNone marks an absent base/index register.
const dRegNone = 0xFF

// daccess is a predecoded operand: everything the fast path needs to
// read or write it without consulting x86.Operand again.
type daccess struct {
	kind   uint8
	reg    uint8 // GPR or XMM register number
	seg    uint8
	base   uint8 // dRegNone when absent
	index  uint8 // dRegNone when absent (or scale 0)
	scale  uint8
	shape  uint8 // effective-address shape (eaSlow/eaBaseDisp/eaBaseDispGS)
	addr32 bool
	imm    int64  // immediate value, or branch-target label
	disp   uint64 // sign-extended displacement, ready to add
}

// Effective-address shapes (daccess.shape), classified once at decode
// time so eaD's fast cases inline into the dispatch loops.
const (
	eaSlow       uint8 = iota // general recipe: index, addr32, or FS
	eaBaseDisp                // Regs[base] + disp
	eaBaseDispGS              // Regs[base] + disp + GSBase
)

// dinst is one predecoded instruction. In the decoded stream op is
// always an x86 opcode and steps is nil; fuseProgram's clone rewrites
// group heads to opGroup and gives them their constituents.
type dinst struct {
	op       x86.Op
	w        x86.Width
	srcW     x86.Width
	cond     x86.Cond
	ilen     int32
	gxBytes  uint32 // group heads only: constituents' encoded bytes past the head
	dst, src daccess
	targets  []int   // JTAB targets (shared with the x86.Inst; read-only)
	steps    []fstep // group heads only: len>=2 micro-steps
}

// decFunc is one function's instruction stream: the decoded one, or its
// same-indexed fused overlay.
type decFunc struct {
	insts []dinst
}

func decodeAccess(o x86.Operand) daccess {
	switch o.Kind {
	case x86.KindReg:
		return daccess{kind: dReg, reg: uint8(o.Reg)}
	case x86.KindXmm:
		return daccess{kind: dXmm, reg: uint8(o.Xmm)}
	case x86.KindImm:
		return daccess{kind: dImm, imm: o.Imm}
	case x86.KindLabel:
		return daccess{kind: dLabel, imm: int64(o.Label)}
	case x86.KindMem:
		a := daccess{
			kind:   dMem,
			scale:  o.Mem.Scale,
			addr32: o.Mem.Addr32,
			disp:   uint64(int64(o.Mem.Disp)),
			base:   dRegNone,
			index:  dRegNone,
			// Labels ride along for LEA-of-label style operands (none
			// today), and Imm for uniformity with the slow path.
			imm: o.Imm,
		}
		if o.Mem.Base != x86.RegNone {
			a.base = uint8(o.Mem.Base)
		}
		if o.Mem.HasIndex() {
			a.index = uint8(o.Mem.Index)
		}
		switch o.Mem.Seg {
		case x86.SegGS, x86.SegImplicit:
			a.seg = dSegGS
		case x86.SegFS:
			a.seg = dSegFS
		}
		if a.base != dRegNone && a.index == dRegNone && !a.addr32 {
			switch a.seg {
			case dSegNone:
				a.shape = eaBaseDisp
			case dSegGS:
				a.shape = eaBaseDispGS
			}
		}
		return a
	default:
		return daccess{kind: dNone, imm: o.Imm}
	}
}

func decodeInst(in *x86.Inst, ilen int) dinst {
	return dinst{
		op:      in.Op,
		w:       in.W,
		srcW:    in.SrcW,
		cond:    in.Cond,
		ilen:    int32(ilen),
		dst:     decodeAccess(in.Dst),
		src:     decodeAccess(in.Src),
		targets: in.Targets,
	}
}

// decoded returns the predecoded program, building it on first use.
// The result is shared by every Machine bound to this Program; it must
// never be mutated.
func (p *Program) decoded() []decFunc {
	p.decOnce.Do(func() {
		p.dec = make([]decFunc, len(p.Funcs))
		for fi, f := range p.Funcs {
			df := decFunc{insts: make([]dinst, len(f.Insts))}
			for i := range f.Insts {
				// The slow path assumes 4 encoded bytes when the
				// compiler skipped Encode; mirror that.
				ilen := 4
				if i < len(f.InstLens) {
					ilen = f.InstLens[i]
				}
				df.insts[i] = decodeInst(&f.Insts[i], ilen)
			}
			p.dec[fi] = df
		}
	})
	return p.dec
}

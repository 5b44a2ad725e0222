package x86

import (
	"fmt"
	"strings"
)

// Op is an instruction opcode in the modeled subset.
type Op uint16

// Opcodes. The integer/control subset follows hardware semantics closely;
// a few pseudo-ops (CALLFN, CALLHOST, CALLREG, EPOCH, TRAPIF) stand for
// short fixed sequences that real engines emit as glue — each documents
// the byte length and cycle cost it stands for in the encoder/emulator.
const (
	NOP Op = iota

	// Data movement.
	MOV   // mov dst, src (reg/mem/imm); 32-bit form zero-extends
	MOVZX // mov with zero extension from a narrower source width
	MOVSX // mov with sign extension from a narrower source width
	LEA   // load effective address (address arithmetic, no memory access)
	XCHG  // exchange reg, reg
	CMOV  // conditional move (Cond field)
	PUSH  // push reg
	POP   // pop reg

	// Integer ALU.
	ADD
	SUB
	IMUL // two-operand signed multiply
	MULX // unsigned widening multiply helper (dst = low 64 of dst*src)
	AND
	OR
	XOR
	NOT
	NEG
	SHL
	SHR
	SAR
	ROL
	ROR
	CMP
	TEST
	SETCC  // set byte on condition
	CQO    // sign-extend rax into rdx:rax
	IDIV   // signed divide rdx:rax by operand
	DIV    // unsigned divide rdx:rax by operand
	POPCNT // population count
	LZCNT  // leading-zero count
	TZCNT  // trailing-zero count

	// Control flow.
	JMP      // unconditional jump to label
	JCC      // conditional jump to label (Cond field)
	CALLFN   // pseudo: direct call to compiled function (Imm = func index)
	CALLREG  // pseudo: indirect call, callee function index in register
	CALLHOST // pseudo: call into the host runtime (Imm = host func index)
	RET
	UD2    // undefined instruction: deterministic trap
	TRAPIF // pseudo: conditional trap (bounds-check failure path), Cond field
	EPOCH  // pseudo: epoch-interruption check at loop back-edges
	JTAB   // pseudo: bounds-checked jump table; Dst = index register,
	// Src.Label = default target, Targets = per-index targets

	// Segment and protection-key state.
	WRGSBASE // write GS base from register (FSGSBASE extension)
	RDGSBASE // read GS base into register
	WRFSBASE // write FS base from register
	WRPKRU   // write PKRU from eax (ecx=edx=0)
	RDPKRU   // read PKRU into eax

	// Scalar double-precision SSE.
	MOVSD // move f64 between xmm and memory/xmm
	ADDSD
	SUBSD
	MULSD
	DIVSD
	SQRTSD
	MINSD
	MAXSD
	NEGSD     // stands for xorpd with a RIP-relative sign-bit constant
	ABSSD     // stands for andpd with a RIP-relative mask constant
	UCOMISD   // f64 compare, sets flags
	CVTSI2SD  // int64 -> f64
	CVTTSD2SI // f64 -> int64 (truncating)
	MOVQXR    // move raw 64 bits xmm -> gpr
	MOVQRX    // move raw 64 bits gpr -> xmm

	// 128-bit vector moves and ALU (vectorizer output).
	MOVDQU // unaligned 128-bit load/store
	PADDD  // packed 32-bit add
	PXOR   // packed xor

	// Spectre-hardening pseudo-ops (Swivel-style). Architecturally inert:
	// they mutate no machine state, only model the fetch/execute cost of
	// the hardening sequences the sfi compiler would emit on real hardware.
	ENDBR     // CET endbranch landing pad at indirect-transfer targets
	BTBFLUSH  // pseudo: BTB flush before an indirect transfer (Swivel-SFI)
	INTERLOCK // pseudo: register interlock / speculative-load-hardening mask

	opCount
)

// OpCount is the number of defined opcodes, for dense per-op tables.
const OpCount = int(opCount)

var opNames = map[Op]string{
	NOP: "nop", MOV: "mov", MOVZX: "movzx", MOVSX: "movsx", LEA: "lea",
	XCHG: "xchg", CMOV: "cmov", PUSH: "push", POP: "pop",
	ADD: "add", SUB: "sub", IMUL: "imul", MULX: "mulx", AND: "and",
	OR: "or", XOR: "xor", NOT: "not", NEG: "neg", SHL: "shl", SHR: "shr",
	SAR: "sar", ROL: "rol", ROR: "ror", CMP: "cmp", TEST: "test",
	SETCC: "set", CQO: "cqo", IDIV: "idiv", DIV: "div",
	POPCNT: "popcnt", LZCNT: "lzcnt", TZCNT: "tzcnt",
	JMP: "jmp", JCC: "j", CALLFN: "call", CALLREG: "call", CALLHOST: "call.host",
	RET: "ret", UD2: "ud2", TRAPIF: "trapif", EPOCH: "epoch.check",
	WRGSBASE: "wrgsbase", RDGSBASE: "rdgsbase", WRFSBASE: "wrfsbase",
	WRPKRU: "wrpkru", RDPKRU: "rdpkru",
	JTAB:  "jmp.table",
	MOVSD: "movsd", ADDSD: "addsd", SUBSD: "subsd", MULSD: "mulsd",
	DIVSD: "divsd", SQRTSD: "sqrtsd", MINSD: "minsd", MAXSD: "maxsd",
	NEGSD: "negsd", ABSSD: "abssd", UCOMISD: "ucomisd",
	CVTSI2SD: "cvtsi2sd", CVTTSD2SI: "cvttsd2si",
	MOVQXR: "movq", MOVQRX: "movq",
	MOVDQU: "movdqu", PADDD: "paddd", PXOR: "pxor",
	ENDBR: "endbr64", BTBFLUSH: "btb.flush", INTERLOCK: "interlock",
}

// String returns the Intel-syntax mnemonic.
func (o Op) String() string {
	if s, ok := opNames[o]; ok {
		return s
	}
	return fmt.Sprintf("op%d", uint16(o))
}

// Mem is a memory operand: [seg: base + index*scale + disp]. When
// Addr32 is set the effective address is computed with 32-bit wrap-around
// (the 0x67 address-size override prefix), which Segue uses to get free
// truncation of untrusted offsets.
//
// The index register participates only when Scale is non-zero, so the
// zero value of Mem (base RAX, no index, no displacement) is a valid
// plain [rax] operand.
type Mem struct {
	Seg    Seg
	Base   Reg
	Index  Reg
	Scale  uint8 // 0 = no index; otherwise 1, 2, 4, or 8
	Disp   int32
	Addr32 bool
}

// HasIndex reports whether the operand uses an index register.
func (m Mem) HasIndex() bool { return m.Scale != 0 && m.Index != RegNone }

// String renders the operand in Intel syntax.
func (m Mem) String() string {
	var b strings.Builder
	if m.Seg == SegFS || m.Seg == SegGS {
		b.WriteString(m.Seg.String())
		b.WriteByte(':')
	}
	b.WriteByte('[')
	wrote := false
	name := func(r Reg) string {
		if m.Addr32 {
			return r.Name(W32)
		}
		return r.Name(W64)
	}
	if m.Base != RegNone {
		b.WriteString(name(m.Base))
		wrote = true
	}
	if m.HasIndex() {
		if wrote {
			b.WriteString(" + ")
		}
		b.WriteString(name(m.Index))
		if m.Scale > 1 {
			fmt.Fprintf(&b, "*%d", m.Scale)
		}
		wrote = true
	}
	if m.Disp != 0 || !wrote {
		if wrote {
			if m.Disp >= 0 {
				fmt.Fprintf(&b, " + %#x", m.Disp)
			} else {
				fmt.Fprintf(&b, " - %#x", -int64(m.Disp))
			}
		} else {
			fmt.Fprintf(&b, "%#x", m.Disp)
		}
	}
	b.WriteByte(']')
	return b.String()
}

// OperandKind discriminates Operand.
type OperandKind uint8

// Operand kinds.
const (
	KindNone OperandKind = iota
	KindReg
	KindXmm
	KindImm
	KindMem
	KindLabel
)

// Operand is one instruction operand.
type Operand struct {
	Kind  OperandKind
	Reg   Reg
	Xmm   Xmm
	Imm   int64
	Mem   Mem
	Label int // branch target: instruction index within the function
}

// Convenience constructors.

// R returns a GPR operand.
func R(r Reg) Operand { return Operand{Kind: KindReg, Reg: r} }

// X returns an xmm operand.
func X(x Xmm) Operand { return Operand{Kind: KindXmm, Xmm: x} }

// Imm returns an immediate operand.
func Imm(v int64) Operand { return Operand{Kind: KindImm, Imm: v} }

// M returns a memory operand.
func M(m Mem) Operand { return Operand{Kind: KindMem, Mem: m} }

// Label returns a branch-target operand.
func Label(idx int) Operand { return Operand{Kind: KindLabel, Label: idx} }

// String renders the operand in Intel syntax, with w selecting register
// width naming.
func (o Operand) String() string { return o.string(W64) }

func (o Operand) string(w Width) string {
	switch o.Kind {
	case KindReg:
		return o.Reg.Name(w)
	case KindXmm:
		return o.Xmm.String()
	case KindImm:
		if o.Imm >= -1024 && o.Imm <= 1024 {
			return fmt.Sprintf("%d", o.Imm)
		}
		return fmt.Sprintf("%#x", uint64(o.Imm))
	case KindMem:
		return o.Mem.String()
	case KindLabel:
		return fmt.Sprintf("L%d", o.Label)
	default:
		return ""
	}
}

// Inst is one instruction. Dst/Src follow Intel operand order
// (destination first). W is the operation width; for MOVZX/MOVSX,
// SrcW is the narrower source width.
type Inst struct {
	Op   Op
	W    Width
	SrcW Width
	Cond Cond
	Dst  Operand
	Src  Operand

	// Targets holds JTAB per-index branch targets (instruction indices);
	// the default target travels in Dst.Label.
	Targets []int
}

// String renders the instruction in Intel syntax.
func (i Inst) String() string {
	mn := i.Op.String()
	switch i.Op {
	case JCC:
		mn = "j" + i.Cond.String()
	case SETCC:
		mn = "set" + i.Cond.String()
	case CMOV:
		mn = "cmov" + i.Cond.String()
	case TRAPIF:
		mn = "trapif." + i.Cond.String()
	}
	parts := []string{}
	if i.Dst.Kind != KindNone {
		parts = append(parts, i.Dst.string(i.W))
	}
	if i.Src.Kind != KindNone {
		w := i.W
		if i.Op == MOVZX || i.Op == MOVSX {
			w = i.SrcW
		}
		parts = append(parts, i.Src.string(w))
	}
	if len(parts) == 0 {
		return mn
	}
	return mn + " " + strings.Join(parts, ", ")
}

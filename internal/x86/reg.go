// Package x86 models the subset of the x86-64 ISA that the SFI compilers
// emit and the emulator executes. The model is structural — instructions
// are Go values, not bytes — but the encoder computes the exact byte
// length (and a best-effort byte image) of every instruction, including
// the segment-override and address-size-override prefixes that Segue
// relies on, so binary-size and fetch-bandwidth effects are measurable.
package x86

import "fmt"

// Reg names a general-purpose 64-bit register. The numeric values match
// the hardware encoding (RAX=0 … R15=15), which the encoder uses to
// decide when a REX prefix is required.
type Reg uint8

// General-purpose registers in hardware encoding order.
const (
	RAX Reg = iota
	RCX
	RDX
	RBX
	RSP
	RBP
	RSI
	RDI
	R8
	R9
	R10
	R11
	R12
	R13
	R14
	R15

	// RegNone marks an absent base or index register in a memory operand.
	RegNone Reg = 0xFF
)

var regNames = [16]string{
	"rax", "rcx", "rdx", "rbx", "rsp", "rbp", "rsi", "rdi",
	"r8", "r9", "r10", "r11", "r12", "r13", "r14", "r15",
}

var regNames32 = [16]string{
	"eax", "ecx", "edx", "ebx", "esp", "ebp", "esi", "edi",
	"r8d", "r9d", "r10d", "r11d", "r12d", "r13d", "r14d", "r15d",
}

var regNames16 = [16]string{
	"ax", "cx", "dx", "bx", "sp", "bp", "si", "di",
	"r8w", "r9w", "r10w", "r11w", "r12w", "r13w", "r14w", "r15w",
}

var regNames8 = [16]string{
	"al", "cl", "dl", "bl", "spl", "bpl", "sil", "dil",
	"r8b", "r9b", "r10b", "r11b", "r12b", "r13b", "r14b", "r15b",
}

// String returns the 64-bit name of the register.
func (r Reg) String() string {
	if r == RegNone {
		return "<none>"
	}
	if int(r) < len(regNames) {
		return regNames[r]
	}
	return fmt.Sprintf("r?%d", uint8(r))
}

// Name returns the register name at the given operand width in bytes.
func (r Reg) Name(width Width) string {
	if r == RegNone || int(r) >= 16 {
		return r.String()
	}
	switch width {
	case W8:
		return regNames8[r]
	case W16:
		return regNames16[r]
	case W32:
		return regNames32[r]
	default:
		return regNames[r]
	}
}

// Xmm names an SSE vector register (xmm0 … xmm15). The WAMR-style
// vectorizer pass emits 128-bit moves through these.
type Xmm uint8

// String returns the xmm register name.
func (x Xmm) String() string { return fmt.Sprintf("xmm%d", uint8(x)) }

// Seg selects a segment-override prefix for a memory operand. Segue
// stores the sandbox heap base in GS and addresses linear memory as
// gs:[...]; FS is reserved for thread-local storage as on Linux.
type Seg uint8

// Segment override values. SegImplicit is a modeling device for the
// native (non-sandboxed) baseline: the emulator adds the heap base (as
// a real native program's 64-bit pointers would already include it) but
// the encoder charges no prefix bytes and no truncation applies in
// spirit — native pointers need neither. See DESIGN.md.
const (
	SegNone Seg = iota
	SegFS
	SegGS
	SegImplicit
)

// String returns the segment prefix name ("fs"/"gs") or "".
func (s Seg) String() string {
	switch s {
	case SegFS:
		return "fs"
	case SegGS:
		return "gs"
	default:
		return ""
	}
}

// Width is an operand width in bytes.
type Width uint8

// Operand widths.
const (
	W8   Width = 1
	W16  Width = 2
	W32  Width = 4
	W64  Width = 8
	W128 Width = 16
)

// Cond is a condition code for Jcc/SETcc/TRAPIF, named by the signed
// and unsigned comparison it implements.
type Cond uint8

// Condition codes.
const (
	CondNone Cond = iota
	CondE         // equal / zero
	CondNE        // not equal / not zero
	CondL         // signed less
	CondLE        // signed less-or-equal
	CondG         // signed greater
	CondGE        // signed greater-or-equal
	CondB         // unsigned below
	CondBE        // unsigned below-or-equal
	CondA         // unsigned above
	CondAE        // unsigned above-or-equal
	CondS         // sign (negative)
	CondNS        // not sign
)

var condNames = [...]string{
	CondNone: "?", CondE: "e", CondNE: "ne", CondL: "l", CondLE: "le",
	CondG: "g", CondGE: "ge", CondB: "b", CondBE: "be", CondA: "a",
	CondAE: "ae", CondS: "s", CondNS: "ns",
}

// String returns the Intel-syntax condition suffix.
func (c Cond) String() string {
	if int(c) < len(condNames) {
		return condNames[c]
	}
	return "?"
}

// Negate returns the condition testing the opposite outcome.
func (c Cond) Negate() Cond {
	switch c {
	case CondE:
		return CondNE
	case CondNE:
		return CondE
	case CondL:
		return CondGE
	case CondLE:
		return CondG
	case CondG:
		return CondLE
	case CondGE:
		return CondL
	case CondB:
		return CondAE
	case CondBE:
		return CondA
	case CondA:
		return CondBE
	case CondAE:
		return CondB
	case CondS:
		return CondNS
	case CondNS:
		return CondS
	default:
		return CondNone
	}
}

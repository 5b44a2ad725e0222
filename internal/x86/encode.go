package x86

// The encoder computes the machine-code byte length of every instruction,
// honoring the prefix rules that matter to Segue:
//
//   - a segment override (gs:/fs:) adds one 0x65/0x64 prefix byte;
//   - the 32-bit address-size override adds one 0x67 prefix byte;
//   - REX is required for 64-bit operation width or extended registers;
//   - ModRM/SIB/disp sizing follows the hardware rules (no-disp vs disp8
//     vs disp32, SIB forced by an index register or RSP/R12 base).
//
// Branches are laid out with a shrink pass so near jumps use rel8, which
// is what lets Segue's one-byte-longer memory ops still produce smaller
// functions overall (they eliminate whole instructions elsewhere).
//
// The byte image itself is a deterministic best-effort rendering: opcode
// bytes come from a table and immediates/displacements are encoded
// little-endian, but the image is not meant to run on real hardware —
// only its length is load-bearing for the cost model.

// opEnc describes the fixed encoding parts of an opcode.
type opEnc struct {
	opBytes  int  // opcode byte count (1, 2, or 3), excluding prefixes
	mandPfx  byte // mandatory prefix (0x66/0xF2/0xF3) or 0
	modRM    bool // has a ModRM byte in reg/mem forms
	fixedLen int  // when non-zero, total length ignores operands (pseudo/fixed ops)
}

var opEncTable = [opCount]opEnc{
	MOV:   {opBytes: 1, modRM: true},
	MOVZX: {opBytes: 2, modRM: true},
	MOVSX: {opBytes: 2, modRM: true},
	LEA:   {opBytes: 1, modRM: true},
	PUSH:  {opBytes: 1},
	POP:   {opBytes: 1},

	ADD: {opBytes: 1, modRM: true}, SUB: {opBytes: 1, modRM: true},
	IMUL: {opBytes: 2, modRM: true},
	AND:  {opBytes: 1, modRM: true}, OR: {opBytes: 1, modRM: true},
	XOR: {opBytes: 1, modRM: true}, SHL: {opBytes: 1, modRM: true},
	SHR: {opBytes: 1, modRM: true}, SAR: {opBytes: 1, modRM: true},
	ROL: {opBytes: 1, modRM: true},
	CMP: {opBytes: 1, modRM: true}, TEST: {opBytes: 1, modRM: true},
	SETCC: {opBytes: 2, modRM: true},
	CQO:   {fixedLen: 2},
	IDIV:  {opBytes: 1, modRM: true}, DIV: {opBytes: 1, modRM: true},
	POPCNT: {opBytes: 2, mandPfx: 0xF3, modRM: true},

	JMP:      {opBytes: 1},  // rel8: 2 bytes, rel32: 5 bytes
	JCC:      {opBytes: 2},  // rel8: 2 bytes, rel32: 6 bytes
	CALLFN:   {fixedLen: 5}, // call rel32
	CALLREG:  {opBytes: 1, modRM: true},
	CALLHOST: {fixedLen: 6}, // call [rip+disp32] through the vmctx
	RET:      {fixedLen: 1},
	TRAPIF:   {fixedLen: 6},  // jcc rel32 to the function's trap stub
	EPOCH:    {fixedLen: 10}, // cmp [vmctx+epoch], reg ; jae deadline
	JTAB:     {fixedLen: 12}, // cmp+jae default; jmp [table+idx*8]

	ENDBR:     {fixedLen: 4}, // f3 0f 1e fa
	BTBFLUSH:  {fixedLen: 8}, // wrmsr-based indirect-predictor barrier stub
	INTERLOCK: {fixedLen: 4}, // cmov/lfence-style masking of a loaded value

	MOVSD:    {opBytes: 2, mandPfx: 0xF2, modRM: true},
	MINSD:    {opBytes: 2, mandPfx: 0xF2, modRM: true},
	ABSSD:    {fixedLen: 8}, // andpd xmm, [rip+const]
	ADDSD:    {opBytes: 2, mandPfx: 0xF2, modRM: true},
	MULSD:    {opBytes: 2, mandPfx: 0xF2, modRM: true},
	DIVSD:    {opBytes: 2, mandPfx: 0xF2, modRM: true},
	CVTSI2SD: {opBytes: 2, mandPfx: 0xF2, modRM: true},
	MOVQXR:   {opBytes: 2, mandPfx: 0x66, modRM: true},
	MOVQRX:   {opBytes: 2, mandPfx: 0x66, modRM: true},

	MOVDQU: {opBytes: 2, mandPfx: 0xF3, modRM: true},
	PXOR:   {opBytes: 2, mandPfx: 0x66, modRM: true},
}

// memEncoding returns the extra byte counts contributed by a memory
// operand: segment/address-size prefixes, SIB presence, and displacement
// size.
func memEncoding(m Mem) (prefixes, sib, disp int) {
	if m.Seg == SegFS || m.Seg == SegGS {
		prefixes++
	}
	if m.Addr32 && m.Seg != SegImplicit {
		prefixes++
	}
	needSIB := m.HasIndex() || m.Base == RSP || m.Base == R12 || m.Base == RegNone
	if needSIB {
		sib = 1
	}
	switch {
	case m.Base == RegNone:
		disp = 4 // absolute/disp32 form
	case m.Disp == 0 && m.Base != RBP && m.Base != R13:
		disp = 0
	case m.Disp >= -128 && m.Disp <= 127:
		disp = 1
	default:
		disp = 4
	}
	return prefixes, sib, disp
}

// needsREX reports whether the instruction requires a REX prefix.
func needsREX(i Inst) bool {
	if i.W == W64 && i.Op != JMP && i.Op != JCC && i.Op != PUSH && i.Op != POP {
		// Most 64-bit-width ALU/data ops need REX.W. (Push/pop and
		// branches default to 64-bit operation in long mode.)
		switch i.Op {
		case MOVSD, ADDSD, MULSD, DIVSD, MOVDQU, PXOR:
			// SSE ops encode width in the opcode, not REX.W.
		default:
			return true
		}
	}
	ext := func(o Operand) bool {
		switch o.Kind {
		case KindReg:
			return o.Reg >= R8 && o.Reg != RegNone
		case KindXmm:
			return o.Xmm >= 8
		case KindMem:
			return (o.Mem.Base != RegNone && o.Mem.Base >= R8) ||
				(o.Mem.HasIndex() && o.Mem.Index >= R8)
		}
		return false
	}
	if ext(i.Dst) || ext(i.Src) {
		return true
	}
	// 8-bit access to spl/bpl/sil/dil requires REX.
	if i.W == W8 {
		for _, o := range []Operand{i.Dst, i.Src} {
			if o.Kind == KindReg && o.Reg >= RSP && o.Reg <= RDI {
				return true
			}
		}
	}
	return false
}

// immSize returns the immediate byte count for an instruction with an
// immediate source operand.
func immSize(i Inst) int {
	if i.Src.Kind != KindImm {
		return 0
	}
	v := i.Src.Imm
	switch i.Op {
	case SHL, SHR, SAR, ROL:
		return 1
	case PUSH:
		if v >= -128 && v <= 127 {
			return 1
		}
		return 4
	case MOV:
		if i.Dst.Kind == KindReg {
			if i.W == W64 && (v < -1<<31 || v > 1<<31-1) {
				return 8 // movabs
			}
			return 4
		}
		return 4 // mov r/m, imm32
	default:
		// ALU group 1 has a sign-extended imm8 form.
		if v >= -128 && v <= 127 {
			return 1
		}
		return 4
	}
}

// Len returns the encoded byte length of a non-branch instruction.
// Branch lengths depend on layout; use EncodeFunc for functions that
// contain branches (it handles the rel8/rel32 shrink pass).
func Len(i Inst) int {
	if i.Op >= opCount {
		return 1
	}
	enc := opEncTable[i.Op]
	if enc.fixedLen != 0 {
		return enc.fixedLen
	}
	switch i.Op {
	case JMP:
		return 5 // conservative rel32; EncodeFunc may shrink to 2
	case JCC:
		return 6
	}
	n := enc.opBytes
	if enc.mandPfx != 0 {
		n++
	}
	if needsREX(i) {
		n++
	}
	if i.W == W16 && enc.mandPfx == 0 {
		n++ // operand-size override
	}
	if enc.modRM {
		n++
	}
	for _, o := range []Operand{i.Dst, i.Src} {
		if o.Kind == KindMem {
			p, s, d := memEncoding(o.Mem)
			n += p + s + d
		}
	}
	n += immSize(i)
	return n
}

// EncodeFunc lays out a function body, returning the final byte image,
// the byte offset of each instruction, and the total length. Branch
// targets are instruction indices (Operand.Label); a shrink pass
// converts branches whose displacement fits in 8 bits to short form.
func EncodeFunc(insts []Inst) (image []byte, offsets []int, total int) {
	n := len(insts)
	sizes := make([]int, n)
	short := make([]bool, n)
	for k, in := range insts {
		sizes[k] = Len(in)
	}
	offsets = make([]int, n+1)
	layout := func() {
		off := 0
		for k := 0; k < n; k++ {
			offsets[k] = off
			off += sizes[k]
		}
		offsets[n] = off
	}
	layout()
	// Shrink pass: branch displacements only get smaller as other
	// branches shrink, so iterating to a fixpoint is monotone.
	for changed := true; changed; {
		changed = false
		for k, in := range insts {
			if (in.Op != JMP && in.Op != JCC) || short[k] {
				continue
			}
			tgt := in.Dst.Label
			if tgt < 0 || tgt > n {
				continue
			}
			disp := offsets[tgt] - (offsets[k] + 2) // short form is 2 bytes
			if disp >= -128 && disp <= 127 {
				short[k] = true
				sizes[k] = 2
				changed = true
			}
		}
		if changed {
			layout()
		}
	}
	total = offsets[n]
	image = make([]byte, 0, total)
	for k, in := range insts {
		image = appendInst(image, in, sizes[k], short[k], offsets, k)
	}
	return image, offsets, total
}

// appendInst appends a deterministic byte rendering of in, padded or
// trimmed to exactly size bytes.
func appendInst(buf []byte, in Inst, size int, short bool, offsets []int, idx int) []byte {
	start := len(buf)
	switch in.Op {
	case JMP:
		tgt := offsets[in.Dst.Label]
		if short {
			disp := tgt - (offsets[idx] + 2)
			buf = append(buf, 0xEB, byte(disp))
		} else {
			disp := int32(tgt - (offsets[idx] + 5))
			buf = append(buf, 0xE9)
			buf = appendLE32(buf, uint32(disp))
		}
	case JCC:
		tgt := offsets[in.Dst.Label]
		cc := byte(in.Cond)
		if short {
			disp := tgt - (offsets[idx] + 2)
			buf = append(buf, 0x70|cc, byte(disp))
		} else {
			disp := int32(tgt - (offsets[idx] + 6))
			buf = append(buf, 0x0F, 0x80|cc)
			buf = appendLE32(buf, uint32(disp))
		}
	default:
		enc := opEncTable[in.Op]
		for _, o := range []Operand{in.Dst, in.Src} {
			if o.Kind == KindMem {
				if o.Mem.Seg == SegGS {
					buf = append(buf, 0x65)
				} else if o.Mem.Seg == SegFS {
					buf = append(buf, 0x64)
				}
				if o.Mem.Addr32 {
					buf = append(buf, 0x67)
				}
			}
		}
		if enc.mandPfx != 0 {
			buf = append(buf, enc.mandPfx)
		}
		if needsREX(in) {
			buf = append(buf, 0x48)
		}
		buf = append(buf, byte(0x80|uint16(in.Op)&0x7F))
		// Pad the remainder (modrm/sib/disp/imm) deterministically.
		for len(buf)-start < size {
			buf = append(buf, byte(len(buf)-start))
		}
	}
	// Normalize to the declared size (defensive: rendering should match).
	for len(buf)-start < size {
		buf = append(buf, 0x90)
	}
	if len(buf)-start > size {
		buf = buf[:start+size]
	}
	return buf
}

func appendLE32(buf []byte, v uint32) []byte {
	return append(buf, byte(v), byte(v>>8), byte(v>>16), byte(v>>24))
}

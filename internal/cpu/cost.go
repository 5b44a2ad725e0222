package cpu

import "repro/internal/x86"

// CostModel holds the per-instruction-class cycle costs and structural
// penalties the emulator charges. The defaults are calibrated so that a
// modern wide out-of-order core's *relative* behaviour is reproduced:
// ~4-wide issue for simple ops, loads with L1 latency hidden, realistic
// penalties for cache/TLB misses and branch mispredictions, and the
// measured WRPKRU cost from the paper (§6.4.1: a transition grows by
// roughly 44 cycles).
//
// Absolute cycle counts are not meaningful; ratios between compilation
// modes on the same workload are.
type CostModel struct {
	ALU    float64 // simple integer op, mov, lea, setcc
	Mul    float64
	Div    float64
	Load   float64 // includes L1-hit latency as seen by a full pipeline
	Store  float64
	Branch float64 // predicted branch
	Call   float64 // call/ret beyond their stack traffic

	FPAdd float64 // f64 add/mul/min/abs, moves, converts
	FPDiv float64 // f64 div
	Vec   float64 // 128-bit move/ALU

	// WRPKRU and WRGSBASE price a sandbox crossing's PKRU switch and
	// segment-base write; internal/rt charges them per transition.
	WRPKRU   float64 // §6.4.1: ≈44 cycles
	WRGSBASE float64 // FSGSBASE user instruction
	Epoch    float64 // epoch check (cmp+jcc pair)

	// Spectre-hardening pseudo-op costs (Swivel-style). Endbr is the
	// CET landing pad (near-free decode slot), BTBFlush the
	// indirect-predictor barrier Swivel-SFI pays on untrusted indirect
	// transfers, Interlock the register-interlock / SLH mask applied to
	// speculatively loaded values.
	Endbr     float64
	BTBFlush  float64
	Interlock float64

	Mispredict  float64 // branch misprediction penalty
	TLBMiss     float64 // 4-level page-table walk
	L2Hit       float64 // L1 miss, L2 hit
	MemAccess   float64 // miss to memory
	IndirectSeq float64 // the table-bounds + sig-check glue of call_indirect

	// FetchBytesPerCycle models the front-end: every instruction adds
	// len(bytes)/FetchBytesPerCycle cycles, which is how the one-byte
	// gs/addr-size prefixes cost real time in tight loops (the
	// 473_astar outlier).
	FetchBytesPerCycle float64

	// FreqGHz converts cycles to wall-clock time; the paper pins the
	// benchmark core at 2.2 GHz.
	FreqGHz float64
}

// DefaultCostModel returns the calibrated defaults.
func DefaultCostModel() CostModel {
	return CostModel{
		ALU:    0.25,
		Mul:    1.0,
		Div:    18.0,
		Load:   0.5,
		Store:  0.5,
		Branch: 0.5,
		Call:   1.0,

		FPAdd: 0.5,
		FPDiv: 8.0,
		Vec:   0.5,

		WRPKRU:   44.0,
		WRGSBASE: 3.0,
		Epoch:    0.5,

		Endbr:     0.25,
		BTBFlush:  30.0,
		Interlock: 0.75,

		Mispredict:  14.0,
		TLBMiss:     22.0,
		L2Hit:       8.0,
		MemAccess:   60.0,
		IndirectSeq: 2.0,

		FetchBytesPerCycle: 16.0,
		FreqGHz:            2.2,
	}
}

// opCost returns the base execution cost of an instruction, excluding
// fetch, memory-hierarchy, and misprediction penalties.
func (c *CostModel) opCost(op x86.Op) float64 {
	switch op {
	case x86.IMUL:
		return c.Mul
	case x86.IDIV, x86.DIV:
		return c.Div
	case x86.JMP, x86.JCC, x86.TRAPIF:
		return c.Branch
	case x86.CALLFN, x86.CALLREG, x86.CALLHOST, x86.RET:
		return c.Call
	case x86.ADDSD, x86.MULSD, x86.MINSD, x86.ABSSD,
		x86.CVTSI2SD, x86.MOVSD, x86.MOVQXR, x86.MOVQRX:
		return c.FPAdd
	case x86.DIVSD:
		return c.FPDiv
	case x86.MOVDQU, x86.PXOR:
		return c.Vec
	case x86.EPOCH:
		return c.Epoch
	case x86.ENDBR:
		return c.Endbr
	case x86.BTBFLUSH:
		return c.BTBFlush
	case x86.INTERLOCK:
		return c.Interlock
	default:
		return c.ALU
	}
}

// CyclesToNanos converts a cycle count to nanoseconds at the model's
// pinned frequency.
func (c *CostModel) CyclesToNanos(cycles float64) float64 {
	return cycles / c.FreqGHz
}

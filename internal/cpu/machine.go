package cpu

import (
	"errors"
	"fmt"
	"math"
	"sync"

	"repro/internal/cache"
	"repro/internal/mem"
	"repro/internal/telemetry"
	"repro/internal/x86"
)

// Tier selects which execution engine a Machine dispatches through.
// Every tier produces bit-identical architectural state, Stats, and
// traps; they differ only in how much work is resolved ahead of the
// dispatch loop.
type Tier uint8

// Execution tiers. The zero value is the fused tier, so a new or
// recycled Machine runs fused unless its owner sets Tier.
const (
	// TierFused runs the decoded loop (machine_decoded.go) on the
	// fused overlay (fuse.go): a clone of the decoded stream with
	// superinstruction groups, built for the whole Program the first
	// time a fused-tier Machine runs it and shared by every Machine
	// running it.
	TierFused Tier = iota
	// TierFast runs the same loop on the decoded stream (decode.go)
	// only.
	TierFast
	// TierSlow is the original portable interpreter: operand kinds,
	// segment bases, and encoded lengths are re-resolved on every step.
	// It is the differential-testing oracle the other tiers are pinned
	// against.
	TierSlow
)

// String returns the tier's flag spelling.
func (t Tier) String() string {
	switch t {
	case TierSlow:
		return "slow"
	case TierFast:
		return "fast"
	case TierFused:
		return "fused"
	default:
		return fmt.Sprintf("tier%d", uint8(t))
	}
}

// ParseTier parses a -tier flag value.
func ParseTier(s string) (Tier, error) {
	switch s {
	case "slow":
		return TierSlow, nil
	case "fast":
		return TierFast, nil
	case "fused":
		return TierFused, nil
	default:
		return TierFast, fmt.Errorf("cpu: unknown tier %q (want slow, fast, or fused)", s)
	}
}

// ArgRegs is the internal calling convention's integer argument
// registers (SysV order). Float arguments use xmm0..xmm5 by position.
// Integer results return in RAX, float results in xmm0.
var ArgRegs = [6]x86.Reg{x86.RDI, x86.RSI, x86.RDX, x86.RCX, x86.R8, x86.R9}

// Stats accumulates execution counters.
type Stats struct {
	Insts        uint64
	Cycles       float64
	MemReads     uint64
	MemWrites    uint64
	BytesFetched uint64
	Mispredicts  uint64
	Branches     uint64
}

// Nanos returns wall-clock nanoseconds for the accumulated cycles under
// the given cost model.
func (s *Stats) Nanos(c *CostModel) float64 { return c.CyclesToNanos(s.Cycles) }

type frame struct {
	fn, pc int
}

// Machine is a resumable emulator for one hardware thread. The zero
// value is not usable; construct with NewMachine, and hand it back with
// Release when its owner is done with it.
type Machine struct {
	AS   *mem.AS
	Hier *cache.Hierarchy
	Cost CostModel
	Prog *Program

	Regs   [16]uint64
	XmmLo  [16]uint64
	XmmHi  [16]uint64
	FSBase uint64
	GSBase uint64
	PKRU   uint32

	zf, sf, cf, of bool

	Stats Stats

	// EpochDeadline, when EpochEnabled, makes EPOCH instructions trap
	// (resumably) once Stats.Cycles passes it — Wasmtime's
	// epoch_interruption.
	EpochEnabled  bool
	EpochDeadline float64

	// MaxCallDepth bounds the emulated call stack.
	MaxCallDepth int

	// Hosts is the machine's host-import table. NewMachine initializes
	// it to the Program's (unbound) slots; runtimes that bind
	// per-instance host implementations replace it with their own
	// slice so the compiled Program stays immutable and shareable.
	Hosts []HostFunc

	// Tier selects the execution engine (see the Tier constants); the
	// zero value is TierFused. The slow tier is kept as the
	// differential-testing oracle; all tiers produce bit-identical
	// state and Stats.
	Tier Tier

	frames []frame
	bpred  []uint8 // 2-bit bimodal predictor

	// Per-machine opcode cost table, derived from Cost on first use
	// and rebuilt whenever Cost changes (CostModel is comparable).
	costTab    [opCostTabSize]float64
	costTabFor CostModel
	costTabOK  bool

	// Per-instruction base costs (fetch + opcode class) for the
	// predecoded program, precomputed so the decoded loop replaces a
	// float division and two table lookups per step with one slice
	// read. Valid for one (Program, CostModel) pair — dcostProg is nil
	// until the first build — and rebuilt when either changes.
	dcost     [][]float64
	dcostFor  CostModel
	dcostProg *Program

	// mtc is the decoded loop's access-grant cache: per-page protection,
	// pkey, and backing-page pointer, validated against the address
	// space's mapping generation. It lets the fused load/store fast
	// path skip the VMA walk and page-map hash on the hot path.
	mtc    [mtcSize]mtcEntry
	mtcGen uint64
}

// mtcSize is the number of direct-mapped access-grant entries (a
// power of two).
const mtcSize = 256

type mtcEntry struct {
	pnPlus1 uint64 // page number + 1; 0 = invalid
	pg      *[mem.PageSize]byte
	pkru    uint32 // PKRU value readOK/writeOK were evaluated under
	readOK  bool
	writeOK bool
	prot    mem.Prot
	pkey    uint8
}

// refreshPerms re-evaluates the entry's cached access verdicts under
// the given PKRU value.
func (e *mtcEntry) refreshPerms(pkru uint32) {
	e.pkru = pkru
	e.readOK = e.prot&mem.ProtRead != 0 && mem.PkeyAllowed(pkru, e.pkey, false)
	e.writeOK = e.prot&mem.ProtWrite != 0 && mem.PkeyAllowed(pkru, e.pkey, true)
}

// machinePool holds released machines. What makes a machine expensive
// to build — 256 KiB of L2 tags, the predictor table, the per-opcode and
// per-instruction cost tables — is exactly what survives Release, so a
// process that churns instances builds a machine per concurrent
// instance, not one per instantiation. sync.Pool keeps the list
// race-free across the server's worker goroutines and lets the
// collector take idle machines back.
var machinePool sync.Pool

// Machine turnover (cpu.machines.fresh / cpu.machines.reused): how many
// NewMachine calls built a machine and how many recycled a released
// one. Counted per construction, behind telemetry.Enabled.
var (
	ctrMachinesFresh  = telemetry.Default.Counter("cpu.machines.fresh")
	ctrMachinesReused = telemetry.Default.Counter("cpu.machines.reused")
)

// NewMachine returns a machine bound to the given address space and
// program, with the default cost model and memory hierarchy. It may be
// a released machine; Release leaves nothing of the previous owner
// observable, so the two cases are indistinguishable to the caller.
func NewMachine(as *mem.AS, prog *Program) *Machine {
	m, reused := machinePool.Get().(*Machine)
	if !reused {
		m = &Machine{Hier: cache.NewHierarchy(), bpred: make([]uint8, 1<<14)}
	}
	if telemetry.Enabled() {
		if reused {
			ctrMachinesReused.Inc()
		} else {
			ctrMachinesFresh.Inc()
		}
	}
	return m.bind(as, prog)
}

// bind gives a blank machine — just built, or scrubbed — its owner.
func (m *Machine) bind(as *mem.AS, prog *Program) *Machine {
	m.AS = as
	m.Cost = DefaultCostModel()
	m.Prog = prog
	m.Hosts = prog.Hosts
	m.MaxCallDepth = 10000
	return m
}

// Release returns the machine to the free list NewMachine draws from.
// The machine is dead to the caller afterwards: read Stats, registers
// and Hier counters first, and drop every pointer to it.
func (m *Machine) Release() {
	m.scrub()
	machinePool.Put(m)
}

// scrub removes everything an owner could have left behind:
// architectural state, Stats, cache and predictor contents, the
// references to its address space, program and host table, and the
// access-grant cache, whose entries point into that address space's
// pages. The struct is rebuilt from a literal so that a field added
// later is cleared unless listed here. What is listed is the
// storage worth keeping (hierarchy, predictor table, frame stack) and
// state that is a pure function of its key and revalidated on use: the
// opcode cost table (keyed by CostModel) and the per-instruction cost
// table (keyed by Program and CostModel).
func (m *Machine) scrub() {
	m.Hier.Reset()
	clear(m.bpred)
	*m = Machine{
		Hier:   m.Hier,
		bpred:  m.bpred,
		frames: m.frames[:0],

		costTab: m.costTab, costTabFor: m.costTabFor, costTabOK: m.costTabOK,
		dcost: m.dcost, dcostFor: m.dcostFor, dcostProg: m.dcostProg,
	}
}

// opCostTabSize covers every defined opcode.
const opCostTabSize = x86.OpCount

// opCosts returns the per-opcode base-cost table for the machine's
// current cost model, rebuilding it if Cost changed since the last run.
func (m *Machine) opCosts() *[opCostTabSize]float64 {
	if !m.costTabOK || m.costTabFor != m.Cost {
		for op := 0; op < opCostTabSize; op++ {
			m.costTab[op] = m.Cost.opCost(x86.Op(op))
		}
		m.costTabFor = m.Cost
		m.costTabOK = true
	}
	return &m.costTab
}

// instCosts returns per-instruction base costs for the decoded program:
// dcost[fn][pc] = fetch cost + opcode cost, computed with the exact
// expression runSlow evaluates per step, so accumulating the
// precomputed sum is bit-identical to computing it inline.
func (m *Machine) instCosts(dec []decFunc) [][]float64 {
	if m.dcostProg == m.Prog && m.dcostFor == m.Cost {
		return m.dcost
	}
	costs := m.opCosts()
	out := make([][]float64, len(dec))
	for fi := range dec {
		insts := dec[fi].insts
		cs := make([]float64, len(insts))
		for i := range insts {
			cs[i] = float64(insts[i].ilen)/m.Cost.FetchBytesPerCycle + costs[insts[i].op]
		}
		out[fi] = cs
	}
	m.dcost, m.dcostFor, m.dcostProg = out, m.Cost, m.Prog
	return out
}

// Call begins execution of the given function with integer arguments in
// the internal ABI and runs it to completion (or trap). The machine's
// RSP must point at a mapped stack. Use Start+Run for resumable
// execution.
func (m *Machine) Call(fnIdx int, args ...uint64) error {
	m.Start(fnIdx, args...)
	return m.Run()
}

// Start sets up a call without running it. Like a hardware call it
// pushes a (sentinel) return address, so the outermost RET has stack to
// pop; the machine's RSP must already point at a mapped stack.
func (m *Machine) Start(fnIdx int, args ...uint64) {
	if len(args) > len(ArgRegs) {
		panic("cpu: too many call arguments")
	}
	for i, a := range args {
		m.Regs[ArgRegs[i]] = a
	}
	m.Regs[x86.RSP] -= 8
	m.AS.Store(m.Regs[x86.RSP], 8, 0)
	m.frames = m.frames[:0]
	m.frames = append(m.frames, frame{fn: fnIdx, pc: 0})
}

// Result returns the integer return value (RAX).
func (m *Machine) Result() uint64 { return m.Regs[x86.RAX] }

// trap builds a Trap at the current position.
func (m *Machine) trap(kind TrapKind, addr uint64) *Trap {
	fr := frame{fn: -1, pc: -1}
	if len(m.frames) > 0 {
		fr = m.frames[len(m.frames)-1]
	}
	return &Trap{Kind: kind, Addr: addr, Fn: fr.fn, PC: fr.pc}
}

func (m *Machine) faultTrap(err error) error {
	var f *mem.Fault
	if errors.As(err, &f) {
		switch f.Kind {
		case mem.FaultPkey:
			return m.trap(TrapPkey, f.Addr)
		case mem.FaultProt:
			return m.trap(TrapProt, f.Addr)
		default:
			return m.trap(TrapPageFault, f.Addr)
		}
	}
	return err
}

// ea computes the effective address of a memory operand: base + scaled
// index + displacement, truncated to 32 bits under the address-size
// override, then (for real accesses, not LEA) offset by the segment
// base.
func (m *Machine) ea(mm x86.Mem, withSeg bool) uint64 {
	var sum uint64
	if mm.Base != x86.RegNone {
		sum = m.Regs[mm.Base]
	}
	if mm.HasIndex() {
		sum += m.Regs[mm.Index] * uint64(mm.Scale)
	}
	sum += uint64(int64(mm.Disp))
	if mm.Addr32 {
		sum = uint64(uint32(sum))
	}
	if withSeg {
		switch mm.Seg {
		case x86.SegGS, x86.SegImplicit:
			sum += m.GSBase
		case x86.SegFS:
			sum += m.FSBase
		}
	}
	return sum
}

// memCost charges TLB and cache penalties for an access at addr.
func (m *Machine) memCost(addr uint64, write bool) {
	if write {
		m.Stats.MemWrites++
	} else {
		m.Stats.MemReads++
	}
	tlbHit, missLevels := m.Hier.Access(addr)
	if !tlbHit {
		m.Stats.Cycles += m.Cost.TLBMiss
	}
	switch missLevels {
	case 0:
	case 1:
		m.Stats.Cycles += m.Cost.L2Hit
	default:
		m.Stats.Cycles += m.Cost.MemAccess
	}
}

// load performs a checked, costed memory read of size bytes.
func (m *Machine) load(addr uint64, size int) (uint64, error) {
	if err := m.AS.CheckAccess(addr, size, false, m.PKRU); err != nil {
		return 0, m.faultTrap(err)
	}
	m.memCost(addr, false)
	return m.AS.Load(addr, size), nil
}

// store performs a checked, costed memory write of size bytes.
func (m *Machine) store(addr uint64, size int, v uint64) error {
	if err := m.AS.CheckAccess(addr, size, true, m.PKRU); err != nil {
		return m.faultTrap(err)
	}
	m.memCost(addr, true)
	m.AS.Store(addr, size, v)
	return nil
}

func widthBits(w x86.Width) uint { return uint(w) * 8 }

// wmask maps an operand width (in bytes, so indexes 1/2/4/8/16 are
// live) to its value mask; unused indexes keep all bits so maskW stays
// the identity there, like the old switch's default arm. Sized and
// indexed so `wmask[w&31]` needs no bounds check.
var wmask = func() (t [32]uint64) {
	for i := range t {
		t[i] = ^uint64(0)
	}
	t[x86.W8], t[x86.W16], t[x86.W32] = 0xFF, 0xFFFF, 0xFFFFFFFF
	return
}()

func maskW(v uint64, w x86.Width) uint64 { return v & wmask[w&31] }

// sbmask maps a width to its sign-bit mask (zero for the indexes no
// integer op uses, where the old shift form also yielded false).
var sbmask = func() (t [32]uint64) {
	t[x86.W8], t[x86.W16], t[x86.W32], t[x86.W64] = 1<<7, 1<<15, 1<<31, 1<<63
	return
}()

func signBit(v uint64, w x86.Width) bool { return v&sbmask[w&31] != 0 }

func signExtend(v uint64, w x86.Width) uint64 {
	switch w {
	case x86.W8:
		return uint64(int64(int8(v)))
	case x86.W16:
		return uint64(int64(int16(v)))
	case x86.W32:
		return uint64(int64(int32(v)))
	default:
		return v
	}
}

// readOp reads an operand at width w.
func (m *Machine) readOp(o x86.Operand, w x86.Width) (uint64, error) {
	switch o.Kind {
	case x86.KindReg:
		return maskW(m.Regs[o.Reg], w), nil
	case x86.KindImm:
		return maskW(uint64(o.Imm), w), nil
	case x86.KindMem:
		return m.load(m.ea(o.Mem, true), int(w))
	case x86.KindXmm:
		return m.XmmLo[o.Xmm], nil
	default:
		return 0, fmt.Errorf("cpu: unreadable operand kind %d", o.Kind)
	}
}

// writeOp writes an operand at width w, honoring the x86 rule that
// 32-bit register writes zero the upper half while 8/16-bit writes
// merge.
func (m *Machine) writeOp(o x86.Operand, w x86.Width, v uint64) error {
	switch o.Kind {
	case x86.KindReg:
		switch w {
		case x86.W64:
			m.Regs[o.Reg] = v
		case x86.W32:
			m.Regs[o.Reg] = v & 0xFFFFFFFF
		case x86.W16:
			m.Regs[o.Reg] = m.Regs[o.Reg]&^uint64(0xFFFF) | v&0xFFFF
		case x86.W8:
			m.Regs[o.Reg] = m.Regs[o.Reg]&^uint64(0xFF) | v&0xFF
		}
		return nil
	case x86.KindMem:
		return m.store(m.ea(o.Mem, true), int(w), v)
	case x86.KindXmm:
		m.XmmLo[o.Xmm] = v
		return nil
	default:
		return fmt.Errorf("cpu: unwritable operand kind %d", o.Kind)
	}
}

func (m *Machine) setFlagsLogic(res uint64, w x86.Width) {
	res = maskW(res, w)
	m.zf = res == 0
	m.sf = signBit(res, w)
	m.cf = false
	m.of = false
}

// The flag helpers are written against the width tables directly (not
// maskW/signBit) to fit the inliner budget: they run once per ALU
// instruction. The overflow test only reads the sign-bit position,
// which masking the operands cannot change, so b stays unmasked in
// setFlagsAdd.
func (m *Machine) setFlagsAdd(a, b, res uint64, w x86.Width) {
	k := wmask[w&31]
	a, res = a&k, res&k
	m.zf = res == 0
	m.sf = res&sbmask[w&31] != 0
	m.cf = res < a
	m.of = ^(a^b)&(a^res)&sbmask[w&31] != 0
}

func (m *Machine) setFlagsSub(a, b, res uint64, w x86.Width) {
	k := wmask[w&31]
	a, b, res = a&k, b&k, res&k
	m.zf = res == 0
	m.sf = res&sbmask[w&31] != 0
	m.cf = a < b
	m.of = (a^b)&(a^res)&sbmask[w&31] != 0
}

// cond evaluates a condition code against the flags.
func (m *Machine) cond(c x86.Cond) bool {
	switch c {
	case x86.CondE:
		return m.zf
	case x86.CondNE:
		return !m.zf
	case x86.CondL:
		return m.sf != m.of
	case x86.CondLE:
		return m.zf || m.sf != m.of
	case x86.CondG:
		return !m.zf && m.sf == m.of
	case x86.CondGE:
		return m.sf == m.of
	case x86.CondB:
		return m.cf
	case x86.CondBE:
		return m.cf || m.zf
	case x86.CondA:
		return !m.cf && !m.zf
	case x86.CondAE:
		return !m.cf
	case x86.CondS:
		return m.sf
	case x86.CondNS:
		return !m.sf
	default:
		return false
	}
}

// predictBranch consults and updates the bimodal predictor, charging
// the misprediction penalty when wrong.
func (m *Machine) predictBranch(fn, pc int, taken bool) {
	m.Stats.Branches++
	idx := (uint(fn)<<10 ^ uint(pc)) & uint(len(m.bpred)-1)
	ctr := m.bpred[idx]
	predicted := ctr >= 2
	if predicted != taken {
		m.Stats.Mispredicts++
		m.Stats.Cycles += m.Cost.Mispredict
	}
	if taken {
		if ctr < 3 {
			m.bpred[idx] = ctr + 1
		}
	} else if ctr > 0 {
		m.bpred[idx] = ctr - 1
	}
}

// Telemetry counters, published once per Run call — never from inside
// the dispatch loops, whose per-instruction cost must stay free of
// atomics. With telemetry disabled the only added work is one atomic
// load per Run.
var (
	ctrDispatchFast  = telemetry.Default.Counter("cpu.dispatch.fast")
	ctrDispatchSlow  = telemetry.Default.Counter("cpu.dispatch.slow")
	ctrDispatchFused = telemetry.Default.Counter("cpu.dispatch.fused")
	ctrInstsRetired  = telemetry.Default.Counter("cpu.insts_retired")
)

// Run executes until the outermost function returns, a trap occurs, or
// the epoch deadline fires. After a resumable TrapEpoch, calling Run
// again continues execution.
//
// Tier chooses the engine and the stream: TierSlow is the original
// portable loop, the differential-testing oracle; TierFast runs the
// decoded loop on the Program's decoded stream; TierFused (the zero
// value, what NewMachine hands out) runs the same loop on the fused
// overlay, which the first fused-tier Run of a Program builds. All
// tiers produce bit-identical architectural state and Stats.
func (m *Machine) Run() error {
	tele := telemetry.Enabled()
	before := m.Stats.Insts
	var err error
	switch m.Tier {
	case TierSlow:
		if tele {
			ctrDispatchSlow.Inc()
		}
		err = m.runSlow()
	case TierFused:
		if tele {
			ctrDispatchFused.Inc()
		}
		err = m.runDecoded(m.Prog.fusedStream())
	default:
		if tele {
			ctrDispatchFast.Inc()
		}
		err = m.runDecoded(m.Prog.decoded())
	}
	if tele {
		ctrInstsRetired.Add(m.Stats.Insts - before)
	}
	return err
}

// runSlow is the original interpreter loop: operand kinds, segment
// bases, and encoded lengths are re-resolved on every step. It is kept
// as the oracle the decoded loop is differentially tested against.
func (m *Machine) runSlow() error {
	for len(m.frames) > 0 {
		fr := &m.frames[len(m.frames)-1]
		f := m.Prog.Funcs[fr.fn]
		if fr.pc < 0 || fr.pc >= len(f.Insts) {
			return fmt.Errorf("cpu: pc %d out of range in %q", fr.pc, f.Name)
		}
		in := f.Insts[fr.pc]

		m.Stats.Insts++
		ilen := 4
		if fr.pc < len(f.InstLens) {
			ilen = f.InstLens[fr.pc]
		}
		m.Stats.BytesFetched += uint64(ilen)
		m.Stats.Cycles += float64(ilen)/m.Cost.FetchBytesPerCycle + m.Cost.opCost(in.Op)

		next := fr.pc + 1
		switch in.Op {
		case x86.NOP:

		case x86.MOV:
			v, err := m.readOp(in.Src, in.W)
			if err != nil {
				return err
			}
			if err := m.writeOp(in.Dst, in.W, v); err != nil {
				return err
			}
		case x86.MOVZX:
			v, err := m.readOp(in.Src, in.SrcW)
			if err != nil {
				return err
			}
			if err := m.writeOp(in.Dst, in.W, v); err != nil {
				return err
			}
		case x86.MOVSX:
			v, err := m.readOp(in.Src, in.SrcW)
			if err != nil {
				return err
			}
			if err := m.writeOp(in.Dst, in.W, maskW(signExtend(v, in.SrcW), in.W)); err != nil {
				return err
			}
		case x86.LEA:
			// LEA ignores the segment base; the addr-size override
			// still truncates.
			v := m.ea(in.Src.Mem, false)
			if err := m.writeOp(in.Dst, in.W, maskW(v, in.W)); err != nil {
				return err
			}
		case x86.XCHG:
			a, _ := m.readOp(in.Dst, in.W)
			b, _ := m.readOp(in.Src, in.W)
			if err := m.writeOp(in.Dst, in.W, b); err != nil {
				return err
			}
			if err := m.writeOp(in.Src, in.W, a); err != nil {
				return err
			}
		case x86.CMOV:
			v, err := m.readOp(in.Src, in.W)
			if err != nil {
				return err
			}
			if m.cond(in.Cond) {
				if err := m.writeOp(in.Dst, in.W, v); err != nil {
					return err
				}
			}
		case x86.PUSH:
			v, err := m.readOp(in.Dst, x86.W64)
			if err != nil {
				return err
			}
			m.Regs[x86.RSP] -= 8
			if err := m.store(m.Regs[x86.RSP], 8, v); err != nil {
				return err
			}
		case x86.POP:
			v, err := m.load(m.Regs[x86.RSP], 8)
			if err != nil {
				return err
			}
			m.Regs[x86.RSP] += 8
			if err := m.writeOp(in.Dst, x86.W64, v); err != nil {
				return err
			}

		case x86.ADD, x86.SUB, x86.AND, x86.OR, x86.XOR, x86.IMUL, x86.MULX:
			a, err := m.readOp(in.Dst, in.W)
			if err != nil {
				return err
			}
			b, err := m.readOp(in.Src, in.W)
			if err != nil {
				return err
			}
			var res uint64
			switch in.Op {
			case x86.ADD:
				res = a + b
				m.setFlagsAdd(a, b, res, in.W)
			case x86.SUB:
				res = a - b
				m.setFlagsSub(a, b, res, in.W)
			case x86.AND:
				res = a & b
				m.setFlagsLogic(res, in.W)
			case x86.OR:
				res = a | b
				m.setFlagsLogic(res, in.W)
			case x86.XOR:
				res = a ^ b
				m.setFlagsLogic(res, in.W)
			case x86.IMUL, x86.MULX:
				res = a * b
			}
			if err := m.writeOp(in.Dst, in.W, res); err != nil {
				return err
			}
		case x86.NOT:
			a, err := m.readOp(in.Dst, in.W)
			if err != nil {
				return err
			}
			if err := m.writeOp(in.Dst, in.W, ^a); err != nil {
				return err
			}
		case x86.NEG:
			a, err := m.readOp(in.Dst, in.W)
			if err != nil {
				return err
			}
			res := -a
			m.setFlagsSub(0, a, res, in.W)
			if err := m.writeOp(in.Dst, in.W, res); err != nil {
				return err
			}
		case x86.SHL, x86.SHR, x86.SAR, x86.ROL, x86.ROR:
			a, err := m.readOp(in.Dst, in.W)
			if err != nil {
				return err
			}
			cnt, err := m.readOp(in.Src, x86.W8)
			if err != nil {
				return err
			}
			bitsN := widthBits(in.W)
			c := uint(cnt) & (bitsN - 1)
			var res uint64
			switch in.Op {
			case x86.SHL:
				res = a << c
			case x86.SHR:
				res = a >> c
			case x86.SAR:
				res = uint64(int64(signExtend(a, in.W)) >> c)
			case x86.ROL:
				res = a<<c | a>>(bitsN-c)
			case x86.ROR:
				res = a>>c | a<<(bitsN-c)
			}
			res = maskW(res, in.W)
			m.zf = res == 0
			m.sf = signBit(res, in.W)
			if err := m.writeOp(in.Dst, in.W, res); err != nil {
				return err
			}
		case x86.CMP:
			a, err := m.readOp(in.Dst, in.W)
			if err != nil {
				return err
			}
			b, err := m.readOp(in.Src, in.W)
			if err != nil {
				return err
			}
			m.setFlagsSub(a, b, a-b, in.W)
		case x86.TEST:
			a, err := m.readOp(in.Dst, in.W)
			if err != nil {
				return err
			}
			b, err := m.readOp(in.Src, in.W)
			if err != nil {
				return err
			}
			m.setFlagsLogic(a&b, in.W)
		case x86.SETCC:
			v := uint64(0)
			if m.cond(in.Cond) {
				v = 1
			}
			// SETcc writes a byte; our compiler clears the register
			// first, so write the full register for simplicity.
			if err := m.writeOp(in.Dst, x86.W64, v); err != nil {
				return err
			}
		case x86.CQO:
			if in.W == x86.W32 {
				if int32(m.Regs[x86.RAX]) < 0 {
					m.Regs[x86.RDX] = 0xFFFFFFFF
				} else {
					m.Regs[x86.RDX] = 0
				}
			} else {
				if int64(m.Regs[x86.RAX]) < 0 {
					m.Regs[x86.RDX] = ^uint64(0)
				} else {
					m.Regs[x86.RDX] = 0
				}
			}
		case x86.IDIV, x86.DIV:
			d, err := m.readOp(in.Dst, in.W)
			if err != nil {
				return err
			}
			if maskW(d, in.W) == 0 {
				return m.trap(TrapDivZero, 0)
			}
			if in.Op == x86.IDIV {
				if in.W == x86.W32 {
					a := int32(m.Regs[x86.RAX])
					b := int32(d)
					if a == math.MinInt32 && b == -1 {
						return m.trap(TrapOverflow, 0)
					}
					m.Regs[x86.RAX] = uint64(uint32(a / b))
					m.Regs[x86.RDX] = uint64(uint32(a % b))
				} else {
					a := int64(m.Regs[x86.RAX])
					b := int64(d)
					if a == math.MinInt64 && b == -1 {
						return m.trap(TrapOverflow, 0)
					}
					m.Regs[x86.RAX] = uint64(a / b)
					m.Regs[x86.RDX] = uint64(a % b)
				}
			} else {
				// Compiler zeroes RDX before DIV, so the dividend is RAX.
				if in.W == x86.W32 {
					a := uint32(m.Regs[x86.RAX])
					b := uint32(d)
					m.Regs[x86.RAX] = uint64(a / b)
					m.Regs[x86.RDX] = uint64(a % b)
				} else {
					a := m.Regs[x86.RAX]
					m.Regs[x86.RAX] = a / d
					m.Regs[x86.RDX] = a % d
				}
			}
		case x86.POPCNT, x86.LZCNT, x86.TZCNT:
			v, err := m.readOp(in.Src, in.W)
			if err != nil {
				return err
			}
			res := bitCount(in.Op, v, in.W)
			if err := m.writeOp(in.Dst, in.W, res); err != nil {
				return err
			}

		case x86.JMP:
			next = in.Dst.Label
		case x86.JCC:
			taken := m.cond(in.Cond)
			m.predictBranch(fr.fn, fr.pc, taken)
			if taken {
				next = in.Dst.Label
			}
		case x86.CALLFN:
			if len(m.frames) >= m.MaxCallDepth {
				return m.trap(TrapCallDepth, 0)
			}
			m.Regs[x86.RSP] -= 8
			if err := m.store(m.Regs[x86.RSP], 8, uint64(fr.pc+1)); err != nil {
				return err
			}
			fr.pc = next
			m.frames = append(m.frames, frame{fn: int(in.Dst.Imm), pc: 0})
			continue
		case x86.CALLREG:
			m.Stats.Cycles += m.Cost.IndirectSeq
			slot, err := m.readOp(in.Dst, x86.W64)
			if err != nil {
				return err
			}
			if slot >= uint64(len(m.Prog.Table)) {
				return m.trap(TrapTableOOB, 0)
			}
			ent := m.Prog.Table[slot]
			if ent.FuncIdx == NullTableEntry {
				return m.trap(TrapTableNull, 0)
			}
			if ent.SigID != int(in.Src.Imm) {
				return m.trap(TrapTableSig, 0)
			}
			if len(m.frames) >= m.MaxCallDepth {
				return m.trap(TrapCallDepth, 0)
			}
			m.Regs[x86.RSP] -= 8
			if err := m.store(m.Regs[x86.RSP], 8, uint64(fr.pc+1)); err != nil {
				return err
			}
			fr.pc = next
			m.frames = append(m.frames, frame{fn: ent.FuncIdx, pc: 0})
			continue
		case x86.CALLHOST:
			idx := int(in.Dst.Imm)
			if idx < 0 || idx >= len(m.Hosts) {
				return fmt.Errorf("cpu: host index %d out of range", idx)
			}
			fr.pc = next
			if err := m.Hosts[idx](m); err != nil {
				return err
			}
			continue
		case x86.RET:
			if _, err := m.load(m.Regs[x86.RSP], 8); err != nil {
				return err
			}
			m.Regs[x86.RSP] += 8
			m.frames = m.frames[:len(m.frames)-1]
			continue

		case x86.UD2:
			return m.trap(TrapUD, 0)
		case x86.TRAPIF:
			if m.cond(in.Cond) {
				return m.trap(TrapBounds, 0)
			}
		case x86.EPOCH:
			if m.EpochEnabled && m.Stats.Cycles >= m.EpochDeadline {
				fr.pc = next
				return m.trap(TrapEpoch, 0)
			}

		case x86.ENDBR, x86.BTBFLUSH, x86.INTERLOCK:
			// Hardening pseudo-ops: architecturally inert, cost only.

		case x86.WRGSBASE:
			m.GSBase = m.Regs[in.Dst.Reg]
		case x86.RDGSBASE:
			m.Regs[in.Dst.Reg] = m.GSBase
		case x86.WRFSBASE:
			m.FSBase = m.Regs[in.Dst.Reg]
		case x86.WRPKRU:
			m.PKRU = uint32(m.Regs[x86.RAX])
		case x86.RDPKRU:
			m.Regs[x86.RAX] = uint64(m.PKRU)

		case x86.MOVSD:
			if err := m.execMOVSD(in); err != nil {
				return err
			}
		case x86.ADDSD, x86.SUBSD, x86.MULSD, x86.DIVSD, x86.MINSD, x86.MAXSD:
			if err := m.execFBin(in); err != nil {
				return err
			}
		case x86.NEGSD:
			m.XmmLo[in.Dst.Xmm] ^= 1 << 63
		case x86.ABSSD:
			m.XmmLo[in.Dst.Xmm] &^= 1 << 63
		case x86.JTAB:
			idx, err := m.readOp(in.Dst, x86.W64)
			if err != nil {
				return err
			}
			// Jump-table dispatch: one load from the table plus an
			// indirect branch.
			m.Stats.Cycles += m.Cost.Load + m.Cost.Branch
			m.Stats.Branches++
			if idx < uint64(len(in.Targets)) {
				next = in.Targets[idx]
			} else {
				next = in.Src.Label
			}
		case x86.SQRTSD:
			v, err := m.readF(in.Src)
			if err != nil {
				return err
			}
			m.XmmLo[in.Dst.Xmm] = math.Float64bits(math.Sqrt(v))
		case x86.UCOMISD:
			a, err := m.readF(in.Dst)
			if err != nil {
				return err
			}
			b, err := m.readF(in.Src)
			if err != nil {
				return err
			}
			switch {
			case math.IsNaN(a) || math.IsNaN(b):
				m.zf, m.cf = true, true
			case a == b:
				m.zf, m.cf = true, false
			case a < b:
				m.zf, m.cf = false, true
			default:
				m.zf, m.cf = false, false
			}
			m.sf, m.of = false, false
		case x86.CVTSI2SD:
			v, err := m.readOp(in.Src, in.W)
			if err != nil {
				return err
			}
			var fv float64
			if in.W == x86.W32 {
				fv = float64(int32(v))
			} else {
				fv = float64(int64(v))
			}
			m.XmmLo[in.Dst.Xmm] = math.Float64bits(fv)
		case x86.CVTTSD2SI:
			v, err := m.readF(in.Src)
			if err != nil {
				return err
			}
			// Stands for the engine's convert-with-checks sequence:
			// NaN and out-of-range convert to a deterministic trap.
			if math.IsNaN(v) {
				return m.trap(TrapOverflow, 0)
			}
			t := math.Trunc(v)
			if in.W == x86.W32 {
				if t < math.MinInt32 || t > math.MaxInt32 {
					return m.trap(TrapOverflow, 0)
				}
				m.Regs[in.Dst.Reg] = uint64(uint32(int32(t)))
			} else {
				if t < -9.223372036854776e18 || t >= 9.223372036854776e18 {
					return m.trap(TrapOverflow, 0)
				}
				m.Regs[in.Dst.Reg] = uint64(int64(t))
			}
		case x86.MOVQXR:
			m.Regs[in.Dst.Reg] = m.XmmLo[in.Src.Xmm]
		case x86.MOVQRX:
			m.XmmLo[in.Dst.Xmm] = m.Regs[in.Src.Reg]

		case x86.MOVDQU:
			if err := m.execMOVDQU(in); err != nil {
				return err
			}
		case x86.PADDD:
			dl, dh := m.XmmLo[in.Dst.Xmm], m.XmmHi[in.Dst.Xmm]
			sl, sh := m.XmmLo[in.Src.Xmm], m.XmmHi[in.Src.Xmm]
			m.XmmLo[in.Dst.Xmm] = paddd64(dl, sl)
			m.XmmHi[in.Dst.Xmm] = paddd64(dh, sh)
		case x86.PXOR:
			m.XmmLo[in.Dst.Xmm] ^= m.XmmLo[in.Src.Xmm]
			m.XmmHi[in.Dst.Xmm] ^= m.XmmHi[in.Src.Xmm]

		default:
			return fmt.Errorf("cpu: unimplemented op %v", in.Op)
		}
		fr.pc = next
	}
	return nil
}

// readF reads an f64 operand (xmm register or memory).
func (m *Machine) readF(o x86.Operand) (float64, error) {
	switch o.Kind {
	case x86.KindXmm:
		return math.Float64frombits(m.XmmLo[o.Xmm]), nil
	case x86.KindMem:
		v, err := m.load(m.ea(o.Mem, true), 8)
		return math.Float64frombits(v), err
	default:
		return 0, fmt.Errorf("cpu: bad f64 operand kind %d", o.Kind)
	}
}

func (m *Machine) execMOVSD(in x86.Inst) error {
	// xmm <- mem/xmm, or mem <- xmm.
	if in.Dst.Kind == x86.KindMem {
		return m.store(m.ea(in.Dst.Mem, true), 8, m.XmmLo[in.Src.Xmm])
	}
	switch in.Src.Kind {
	case x86.KindXmm:
		m.XmmLo[in.Dst.Xmm] = m.XmmLo[in.Src.Xmm]
		return nil
	case x86.KindMem:
		v, err := m.load(m.ea(in.Src.Mem, true), 8)
		if err != nil {
			return err
		}
		m.XmmLo[in.Dst.Xmm] = v
		return nil
	default:
		return fmt.Errorf("cpu: bad movsd operands")
	}
}

func (m *Machine) execFBin(in x86.Inst) error {
	a := math.Float64frombits(m.XmmLo[in.Dst.Xmm])
	b, err := m.readF(in.Src)
	if err != nil {
		return err
	}
	var r float64
	switch in.Op {
	case x86.ADDSD:
		r = a + b
	case x86.SUBSD:
		r = a - b
	case x86.MULSD:
		r = a * b
	case x86.DIVSD:
		r = a / b
	case x86.MINSD:
		r = math.Min(a, b)
	case x86.MAXSD:
		r = math.Max(a, b)
	}
	m.XmmLo[in.Dst.Xmm] = math.Float64bits(r)
	return nil
}

func (m *Machine) execMOVDQU(in x86.Inst) error {
	if in.Dst.Kind == x86.KindMem {
		addr := m.ea(in.Dst.Mem, true)
		if err := m.store(addr, 8, m.XmmLo[in.Src.Xmm]); err != nil {
			return err
		}
		return m.store(addr+8, 8, m.XmmHi[in.Src.Xmm])
	}
	if in.Src.Kind == x86.KindMem {
		addr := m.ea(in.Src.Mem, true)
		lo, err := m.load(addr, 8)
		if err != nil {
			return err
		}
		hi, err := m.load(addr+8, 8)
		if err != nil {
			return err
		}
		m.XmmLo[in.Dst.Xmm] = lo
		m.XmmHi[in.Dst.Xmm] = hi
		return nil
	}
	m.XmmLo[in.Dst.Xmm] = m.XmmLo[in.Src.Xmm]
	m.XmmHi[in.Dst.Xmm] = m.XmmHi[in.Src.Xmm]
	return nil
}

func paddd64(a, b uint64) uint64 {
	lo := uint32(a) + uint32(b)
	hi := uint32(a>>32) + uint32(b>>32)
	return uint64(hi)<<32 | uint64(lo)
}

func bitCount(op x86.Op, v uint64, w x86.Width) uint64 {
	n := widthBits(w)
	v = maskW(v, w)
	switch op {
	case x86.POPCNT:
		cnt := 0
		for i := uint(0); i < n; i++ {
			if v>>i&1 != 0 {
				cnt++
			}
		}
		return uint64(cnt)
	case x86.LZCNT:
		for i := int(n) - 1; i >= 0; i-- {
			if v>>uint(i)&1 != 0 {
				return uint64(int(n) - 1 - i)
			}
		}
		return uint64(n)
	default: // TZCNT
		for i := uint(0); i < n; i++ {
			if v>>i&1 != 0 {
				return uint64(i)
			}
		}
		return uint64(n)
	}
}

package cpu

import (
	"fmt"
	"slices"
	"strings"
	"time"

	"repro/internal/telemetry"
	"repro/internal/x86"
)

// This file is the tier-2 superinstruction compiler. Profiling (see
// profile.go) marks hot instructions; the former scans each function
// and fuses adjacent runs of classifiable instructions — the sequences
// the SFI compilers emit around every sandboxed access (truncate+access,
// lea+cmp+trapif bounds checks, compare+branch, load+mask+ALU) — into a
// single group entry whose operand recipes are fully resolved
// micro-steps. Micro-step kinds are split down to the operation (fsAddRR,
// not "ALU"), so the group executor runs each constituent with one dense
// dispatch and no second-level operand or opcode switches.
//
// The fused stream is an overlay: a clone of the decoded dinst array,
// same-indexed with it, in which a group rewrites only its head entry
// and interior entries remain valid singletons. Branches into the
// middle of a group, return addresses (always original indices), epoch
// resume, and trap attribution therefore need no pc mapping at all. Groups
// additionally never span a branch target (a "leader"), so the back
// edge of a loop always lands on a group head, not an interior
// singleton — that is what makes fusion effective on loop bodies.
//
// Cycle accounting is the reason groups carry no "combined cost":
// Stats.Cycles is a float64 and float addition is not associative, so
// each constituent's precomputed cost is charged sequentially in
// original program order (cs[pc], cs[pc+1], ...) interleaved with
// memory penalties exactly as singleton execution charges them. That is
// what keeps fused runs bit-identical to the slow-path oracle.

// opGroup is the fused-group opcode. It sits just past the defined
// x86 opcodes, so runDecoded's dispatch switch stays a dense jump table.
// Per-instruction base costs are always computed from the original
// decoded stream, so opGroup never needs a cost-table entry.
const opGroup = x86.Op(x86.OpCount)

// maxGroup is the maximum number of constituents in one group.
const maxGroup = 16

// Micro-step kinds (fstep.kind). Each mirrors exactly one operand shape
// of one operation of one runDecoded case; classifyStep only produces a
// step when the instruction matches that shape, so the step executors
// are straight-line code behind a single dense switch.
const (
	fsMovRR uint8 = iota // MOV reg<-reg, w>=32
	fsMovRI              // MOV reg<-imm, w>=32
	fsExt                // MOVZX/MOVSX reg<-reg, w>=32
	fsLea                // LEA reg, [recipe], w>=32

	fsAddRR // ADD reg, reg, w>=32
	fsAddRI // ADD reg, imm, w>=32
	fsSubRR // SUB reg, reg, w>=32
	fsSubRI // SUB reg, imm, w>=32
	fsAndRR // AND reg, reg, w>=32
	fsAndRI // AND reg, imm, w>=32
	fsOrRR  // OR reg, reg, w>=32
	fsOrRI  // OR reg, imm, w>=32
	fsXorRR // XOR reg, reg, w>=32
	fsXorRI // XOR reg, imm, w>=32
	fsMulRR // IMUL/MULX reg, reg, w>=32
	fsMulRI // IMUL/MULX reg, imm, w>=32

	fsShlRI // SHL reg, imm, w>=32
	fsShrRI // SHR reg, imm, w>=32
	fsSarRI // SAR reg, imm, w>=32
	fsShift // ROL/ROR, or any shift with a register count, w>=32

	fsCmp   // CMP reg, reg
	fsCmpI  // CMP reg, imm
	fsCmpM  // CMP reg, [recipe]
	fsTest  // TEST reg, reg
	fsTestI // TEST reg, imm

	fsSetcc // SETcc reg
	fsCmov  // CMOVcc reg<-reg, w>=32

	fsLoad   // MOV reg<-[recipe], w>=32
	fsLoadZX // MOVZX reg<-[recipe], w>=32
	fsLoadSX // MOVSX reg<-[recipe], w>=32
	fsStoreR // MOV [recipe]<-reg
	fsStoreI // MOV [recipe]<-imm

	fsFMovXX // MOVSD xmm<-xmm
	fsFLoad  // MOVSD xmm<-[recipe]
	fsFStore // MOVSD [recipe]<-xmm
	fsFAdd   // ADDSD xmm, xmm
	fsFSub   // SUBSD xmm, xmm
	fsFMul   // MULSD xmm, xmm
	fsFDiv   // DIVSD xmm, xmm
	fsFMin   // MINSD xmm, xmm
	fsFMax   // MAXSD xmm, xmm

	fsVMovXX // MOVDQU xmm<-xmm
	fsVLoad  // MOVDQU xmm<-[recipe]
	fsVStore // MOVDQU [recipe]<-xmm

	fsTrapif // TRAPIF (any position; falls through when not taken)
	fsJcc    // JCC (final position only)
	fsJmp    // JMP (final position only)
)

// fstep is one fully resolved constituent of a fused group.
type fstep struct {
	kind   uint8
	dst    uint8 // destination GPR/XMM number
	src    uint8 // source GPR/XMM number
	op     x86.Op
	w      x86.Width
	srcW   x86.Width
	cond   x86.Cond
	target int32    // fsJcc/fsJmp taken target (original instruction index)
	imm    int64    // immediate source / shift count
	mem    *daccess // memory recipe, pointing into the shared decoded form
}

// fusedProg is a Program's fused overlay: a clone of the decoded
// stream, same-indexed with it, whose group heads are rewritten.
type fusedProg struct {
	funcs  []decFunc
	blocks int // number of fused groups, for telemetry and tests
}

var (
	ctrFuseBlocks    = telemetry.Default.Counter("cpu.fuse.blocks")
	ctrFuseCompileNs = telemetry.Default.Counter("cpu.fuse.compile_ns")
)

// buildFusedLocked compiles and publishes the fused stream. Callers
// hold p.fuseMu and have checked fusedP is still nil.
func (p *Program) buildFusedLocked(eager bool) {
	start := time.Now()
	dec := p.decoded()
	// Hotness is per function, like a tiered JIT promoting whole hot
	// functions: a function whose profiled execution count crosses the
	// threshold is fused in full, so phases of it the warmup window
	// never reached still execute fused. Functions the profile never
	// (meaningfully) saw stay as singleton streams.
	hotFn := make([]bool, len(dec))
	for fn := range dec {
		if eager {
			hotFn[fn] = true
			continue
		}
		var sum uint64
		for _, c := range p.profAgg[fn] {
			sum += uint64(c)
		}
		hotFn[fn] = sum >= uint64(fuseHotCount)
	}
	hot := func(fn, pc int) bool { return hotFn[fn] }
	fp := fuseProgram(dec, hot)
	p.fuseBuilds.Add(1)
	p.profAgg = nil // profiling is over; free the counts
	if telemetry.Enabled() {
		ctrFuseBlocks.Add(uint64(fp.blocks))
		ctrFuseCompileNs.Add(uint64(time.Since(start).Nanoseconds()))
	}
	p.fusedP.Store(fp)
}

// leaders returns the set of branch-entry points of one decoded
// function: targets of jumps, conditional branches, and jump tables,
// plus the resume points after calls and epoch checks. Groups never
// span a leader, so control flow always re-enters the fused stream at
// a group head rather than a group's unfused interior.
func leaders(insts []dinst) []bool {
	ld := make([]bool, len(insts))
	mark := func(t int) {
		if t >= 0 && t < len(ld) {
			ld[t] = true
		}
	}
	for pc := range insts {
		in := &insts[pc]
		switch in.op {
		case x86.JMP, x86.JCC:
			mark(int(in.dst.imm))
		case x86.JTAB:
			for _, t := range in.targets {
				mark(t)
			}
			mark(int(in.src.imm))
		case x86.CALLFN, x86.CALLREG, x86.CALLHOST, x86.EPOCH:
			mark(pc + 1)
		}
	}
	return ld
}

// fuseProgram copies the decoded program into a fused stream, forming
// superinstruction groups at hot heads. Formation is greedy and
// non-overlapping: at each hot pc it takes the longest classifiable run
// (up to maxGroup) that does not cross a leader, requires at least two
// constituents, and allows a branch only as the final constituent.
func fuseProgram(dec []decFunc, hot func(fn, pc int) bool) *fusedProg {
	fp := &fusedProg{funcs: make([]decFunc, len(dec))}
	for fn := range dec {
		insts := dec[fn].insts
		ld := leaders(insts)
		// A clone, never an alias: the decoded stream is what the fast
		// tier and every profile pass execute, so it must stay group-free.
		out := slices.Clone(insts)
		// All of a function's steps go into one contiguous arena, laid
		// out in execution order, so the group executor walks a dense
		// array instead of chasing a fresh allocation per group. Group
		// subslices are assigned only after the arena is complete —
		// append may reallocate while groups are still being formed.
		var arena []fstep
		type groupRef struct{ pc, off, n int }
		var groups []groupRef
		for pc := 0; pc < len(insts); {
			if !hot(fn, pc) {
				pc++
				continue
			}
			start := len(arena)
			var xBytes uint32
			for i := pc; i < len(insts) && len(arena)-start < maxGroup; i++ {
				if i > pc && ld[i] {
					break // never span a branch target
				}
				st, ok := classifyStep(&insts[i])
				if !ok {
					break
				}
				arena = append(arena, st)
				if i > pc {
					xBytes += uint32(insts[i].ilen)
				}
				if st.kind == fsJcc || st.kind == fsJmp {
					break // a branch ends the group
				}
			}
			n := len(arena) - start
			if n < 2 {
				arena = arena[:start]
				pc++
				continue
			}
			groups = append(groups, groupRef{pc, start, n})
			out[pc].op = opGroup
			out[pc].gxBytes = xBytes
			fp.blocks++
			pc += n
		}
		for _, g := range groups {
			out[g.pc].steps = arena[g.off : g.off+g.n : g.off+g.n]
		}
		fp.funcs[fn] = decFunc{insts: out}
	}
	return fp
}

// aluKinds maps ALU opcodes to their (reg-source, imm-source) step
// kinds; shiftImmKinds likewise for the immediate-count shifts, and
// fKinds for the scalar-double arithmetic ops.
var aluKinds = map[x86.Op][2]uint8{
	x86.ADD:  {fsAddRR, fsAddRI},
	x86.SUB:  {fsSubRR, fsSubRI},
	x86.AND:  {fsAndRR, fsAndRI},
	x86.OR:   {fsOrRR, fsOrRI},
	x86.XOR:  {fsXorRR, fsXorRI},
	x86.IMUL: {fsMulRR, fsMulRI},
	x86.MULX: {fsMulRR, fsMulRI},
}

var shiftImmKinds = map[x86.Op]uint8{
	x86.SHL: fsShlRI,
	x86.SHR: fsShrRI,
	x86.SAR: fsSarRI,
}

var fKinds = map[x86.Op]uint8{
	x86.ADDSD: fsFAdd,
	x86.SUBSD: fsFSub,
	x86.MULSD: fsFMul,
	x86.DIVSD: fsFDiv,
	x86.MINSD: fsFMin,
	x86.MAXSD: fsFMax,
}

// classifyStep maps a predecoded instruction onto a micro-step, or
// reports that it cannot be a group constituent. Register-writing
// steps are restricted to w>=32 so executors use the zero-extending
// write without the 8/16-bit merge path; anything else stays a
// singleton and runs through the loop's full dispatch.
func classifyStep(in *dinst) (fstep, bool) {
	st := fstep{op: in.op, w: in.w, srcW: in.srcW, cond: in.cond}
	wide := in.w >= x86.W32
	regDst := in.dst.kind == dReg
	regSrc := in.src.kind == dReg
	immSrc := in.src.kind == dImm
	memSrc := in.src.kind == dMem
	switch in.op {
	case x86.MOV:
		switch {
		case regDst && wide && regSrc:
			st.kind, st.dst, st.src = fsMovRR, in.dst.reg, in.src.reg
		case regDst && wide && immSrc:
			st.kind, st.dst, st.imm = fsMovRI, in.dst.reg, in.src.imm
		case regDst && wide && memSrc:
			st.kind, st.dst, st.mem = fsLoad, in.dst.reg, &in.src
		case in.dst.kind == dMem && regSrc:
			st.kind, st.src, st.mem = fsStoreR, in.src.reg, &in.dst
		case in.dst.kind == dMem && immSrc:
			st.kind, st.imm, st.mem = fsStoreI, in.src.imm, &in.dst
		default:
			return st, false
		}
	case x86.MOVZX, x86.MOVSX:
		switch {
		case regDst && wide && regSrc:
			st.kind, st.dst, st.src = fsExt, in.dst.reg, in.src.reg
		case regDst && wide && memSrc && in.op == x86.MOVZX:
			st.kind, st.dst, st.mem = fsLoadZX, in.dst.reg, &in.src
		case regDst && wide && memSrc:
			st.kind, st.dst, st.mem = fsLoadSX, in.dst.reg, &in.src
		default:
			return st, false
		}
	case x86.LEA:
		if !(regDst && wide && memSrc) {
			return st, false
		}
		st.kind, st.dst, st.mem = fsLea, in.dst.reg, &in.src
	case x86.ADD, x86.SUB, x86.AND, x86.OR, x86.XOR, x86.IMUL, x86.MULX:
		k := aluKinds[in.op]
		switch {
		case regDst && wide && regSrc:
			st.kind, st.dst, st.src = k[0], in.dst.reg, in.src.reg
		case regDst && wide && immSrc:
			st.kind, st.dst, st.imm = k[1], in.dst.reg, in.src.imm
		default:
			return st, false
		}
	case x86.SHL, x86.SHR, x86.SAR, x86.ROL, x86.ROR:
		switch {
		case regDst && wide && immSrc:
			if k, ok := shiftImmKinds[in.op]; ok {
				st.kind, st.dst, st.imm = k, in.dst.reg, in.src.imm
			} else {
				// ROL/ROR with an immediate count: generic shift step
				// with the count carried in imm and no count register.
				st.kind, st.dst, st.src, st.imm = fsShift, in.dst.reg, dRegNone, in.src.imm
			}
		case regDst && wide && regSrc:
			st.kind, st.dst, st.src = fsShift, in.dst.reg, in.src.reg
		default:
			return st, false
		}
	case x86.CMP:
		switch {
		case regDst && regSrc:
			st.kind, st.dst, st.src = fsCmp, in.dst.reg, in.src.reg
		case regDst && immSrc:
			st.kind, st.dst, st.imm = fsCmpI, in.dst.reg, in.src.imm
		case regDst && memSrc:
			st.kind, st.dst, st.mem = fsCmpM, in.dst.reg, &in.src
		default:
			return st, false
		}
	case x86.TEST:
		switch {
		case regDst && regSrc:
			st.kind, st.dst, st.src = fsTest, in.dst.reg, in.src.reg
		case regDst && immSrc:
			st.kind, st.dst, st.imm = fsTestI, in.dst.reg, in.src.imm
		default:
			return st, false
		}
	case x86.SETCC:
		if !regDst {
			return st, false
		}
		st.kind, st.dst = fsSetcc, in.dst.reg
	case x86.CMOV:
		if !(regDst && wide && regSrc) {
			return st, false
		}
		st.kind, st.dst, st.src = fsCmov, in.dst.reg, in.src.reg
	case x86.MOVSD:
		switch {
		case in.dst.kind == dXmm && in.src.kind == dXmm:
			st.kind, st.dst, st.src = fsFMovXX, in.dst.reg, in.src.reg
		case in.dst.kind == dXmm && memSrc:
			st.kind, st.dst, st.mem = fsFLoad, in.dst.reg, &in.src
		case in.dst.kind == dMem && in.src.kind == dXmm:
			st.kind, st.src, st.mem = fsFStore, in.src.reg, &in.dst
		default:
			return st, false
		}
	case x86.MOVDQU:
		switch {
		case in.dst.kind == dXmm && in.src.kind == dXmm:
			st.kind, st.dst, st.src = fsVMovXX, in.dst.reg, in.src.reg
		case in.dst.kind == dXmm && memSrc:
			st.kind, st.dst, st.mem = fsVLoad, in.dst.reg, &in.src
		case in.dst.kind == dMem && in.src.kind == dXmm:
			st.kind, st.src, st.mem = fsVStore, in.src.reg, &in.dst
		default:
			return st, false
		}
	case x86.ADDSD, x86.SUBSD, x86.MULSD, x86.DIVSD, x86.MINSD, x86.MAXSD:
		if in.src.kind != dXmm {
			return st, false
		}
		st.kind, st.dst, st.src = fKinds[in.op], in.dst.reg, in.src.reg
	case x86.TRAPIF:
		st.kind = fsTrapif
	case x86.JCC:
		st.kind, st.target = fsJcc, int32(in.dst.imm)
	case x86.JMP:
		st.kind, st.target = fsJmp, int32(in.dst.imm)
	default:
		return st, false
	}
	return st, true
}

// FuseDebugDump summarizes static fusion coverage, for tests and
// debugging.
func FuseDebugDump(p *Program) string {
	fp := p.fusedP.Load()
	if fp == nil {
		return "no fused stream"
	}
	var b strings.Builder
	totIn, totGrp, totCons := 0, 0, 0
	for fn := range fp.funcs {
		insts := fp.funcs[fn].insts
		for pc := range insts {
			if insts[pc].op == opGroup {
				totGrp++
				totCons += len(insts[pc].steps)
			}
		}
		totIn += len(insts)
	}
	fmt.Fprintf(&b, "insts=%d groups=%d constituents=%d (%.0f%%)\n",
		totIn, totGrp, totCons, 100*float64(totCons)/float64(totIn))
	return b.String()
}

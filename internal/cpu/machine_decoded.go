package cpu

import (
	"fmt"
	"math"
	"math/bits"

	"repro/internal/x86"
)

// This file is the decoded engine: one dispatch loop over a []decFunc
// stream. It mirrors runSlow in machine.go, but operand dispatch happens
// on a predecoded byte, effective addresses come from a precomputed
// recipe, and base costs come from a per-instruction table; instructions
// are accessed by pointer, so the ~130-byte x86.Inst copy the slow path
// pays per step disappears. The stream is either the Program's decoded
// stream (every entry a singleton) or its fused overlay, built once per
// Program on its first fused-tier run (fuse.go), in which a group head
// dispatches once for up to maxGroup constituents whose operand recipes
// were fully resolved at fuse time.
//
// The invariants that keep groups bit-identical to the oracle:
//   - each constituent charges its own precomputed base cost cs[pc+i]
//     in original program order (float accumulation order is part of
//     the architecture here), with memory penalties interleaved exactly
//     where singleton execution charges them;
//   - Insts/BytesFetched are integer accumulators, so a group batches
//     them, and takes back the share of the constituents after one that
//     traps;
//   - fr.pc is set to the constituent's original index before any step
//     that can trap, so Trap{Fn,PC} and fault resume points match;
//   - the overlay is same-indexed with the decoded stream, so branch
//     targets, return addresses, and epoch resume need no translation,
//     and branching into the middle of a group lands on a plain
//     singleton copy of that instruction.

// runDecoded executes the given stream of m.Prog: the decoded stream
// (the fast tier) or its fused overlay (the fused tier). Semantics, trap
// behaviour, and Stats accounting are bit-identical to runSlow.
func (m *Machine) runDecoded(stream []decFunc) error {
	dcost := m.instCosts(m.Prog.decoded())
	// Insts and BytesFetched are pure accumulators — nothing reads them
	// until the run completes — so they live in locals and flush once on
	// exit instead of paying two read-modify-writes per instruction.
	// Cycles stays canonical in m.Stats: memCost, traps, and host calls
	// read and update it mid-run.
	var nInsts, nBytes uint64
	defer func() {
		m.Stats.Insts += nInsts
		m.Stats.BytesFetched += nBytes
	}()
frames:
	for len(m.frames) > 0 {
		// Hoist the per-frame state: the instruction and cost slices only
		// change when the frame stack does (call/ret/host), so the inner
		// loop dispatches straight off two locals instead of re-indexing
		// stream and dcost through fr.fn on every instruction.
		fr := &m.frames[len(m.frames)-1]
		insts := stream[fr.fn].insts
		cs := dcost[fr.fn][:len(insts)] // same length, so cs[pc] shares insts' bounds check
		for {
			pc := fr.pc
			if uint(pc) >= uint(len(insts)) {
				return fmt.Errorf("cpu: pc %d out of range in %q", pc, m.Prog.Funcs[fr.fn].Name)
			}
			in := &insts[pc]

			nInsts++
			nBytes += uint64(in.ilen)
			m.Stats.Cycles += cs[pc]

			next := pc + 1
			switch in.op {
			case opGroup:
				steps := in.steps
				n := len(steps)
				nInsts += uint64(n - 1)
				nBytes += uint64(in.gxBytes)
				next = pc + n
				var gerr error
				for i := 0; i < n; i++ {
					st := &steps[i]
					if i != 0 {
						m.Stats.Cycles += cs[pc+i]
					}
					// Memory and trap steps set fr.pc = pc+i themselves, so
					// faults attribute to the constituent's original index;
					// pure register steps skip that store.
					switch st.kind {
					case fsMovRR:
						m.Regs[st.dst&15] = m.Regs[st.src&15] & wmask[st.w&31]
					case fsMovRI:
						m.Regs[st.dst&15] = uint64(st.imm) & wmask[st.w&31]
					case fsLea:
						m.Regs[st.dst&15] = m.eaDRest(st.mem, false) & wmask[st.w&31]

					case fsAddRR:
						a := m.Regs[st.dst&15] & wmask[st.w&31]
						b := m.Regs[st.src&15] & wmask[st.w&31]
						res := a + b
						m.setFlagsAdd(a, b, res, st.w)
						m.Regs[st.dst&15] = res & wmask[st.w&31]
					case fsAddRI:
						a := m.Regs[st.dst&15] & wmask[st.w&31]
						b := uint64(st.imm) & wmask[st.w&31]
						res := a + b
						m.setFlagsAdd(a, b, res, st.w)
						m.Regs[st.dst&15] = res & wmask[st.w&31]
					case fsSubRR:
						a := m.Regs[st.dst&15] & wmask[st.w&31]
						b := m.Regs[st.src&15] & wmask[st.w&31]
						res := a - b
						m.setFlagsSub(a, b, res, st.w)
						m.Regs[st.dst&15] = res & wmask[st.w&31]
					case fsSubRI:
						a := m.Regs[st.dst&15] & wmask[st.w&31]
						b := uint64(st.imm) & wmask[st.w&31]
						res := a - b
						m.setFlagsSub(a, b, res, st.w)
						m.Regs[st.dst&15] = res & wmask[st.w&31]
					case fsAndRR:
						res := (m.Regs[st.dst&15] & wmask[st.w&31]) & (m.Regs[st.src&15] & wmask[st.w&31])
						m.setFlagsLogic(res, st.w)
						m.Regs[st.dst&15] = res & wmask[st.w&31]
					case fsAndRI:
						res := (m.Regs[st.dst&15] & wmask[st.w&31]) & (uint64(st.imm) & wmask[st.w&31])
						m.setFlagsLogic(res, st.w)
						m.Regs[st.dst&15] = res & wmask[st.w&31]
					case fsOrRR:
						res := (m.Regs[st.dst&15] & wmask[st.w&31]) | (m.Regs[st.src&15] & wmask[st.w&31])
						m.setFlagsLogic(res, st.w)
						m.Regs[st.dst&15] = res & wmask[st.w&31]
					case fsOrRI:
						res := (m.Regs[st.dst&15] & wmask[st.w&31]) | (uint64(st.imm) & wmask[st.w&31])
						m.setFlagsLogic(res, st.w)
						m.Regs[st.dst&15] = res & wmask[st.w&31]
					case fsXorRR:
						res := (m.Regs[st.dst&15] & wmask[st.w&31]) ^ (m.Regs[st.src&15] & wmask[st.w&31])
						m.setFlagsLogic(res, st.w)
						m.Regs[st.dst&15] = res & wmask[st.w&31]
					case fsXorRI:
						res := (m.Regs[st.dst&15] & wmask[st.w&31]) ^ (uint64(st.imm) & wmask[st.w&31])
						m.setFlagsLogic(res, st.w)
						m.Regs[st.dst&15] = res & wmask[st.w&31]
					case fsMulRR:
						res := (m.Regs[st.dst&15] & wmask[st.w&31]) * (m.Regs[st.src&15] & wmask[st.w&31])
						m.Regs[st.dst&15] = res & wmask[st.w&31]
					case fsMulRI:
						res := (m.Regs[st.dst&15] & wmask[st.w&31]) * (uint64(st.imm) & wmask[st.w&31])
						m.Regs[st.dst&15] = res & wmask[st.w&31]

					case fsShlRI:
						a := m.Regs[st.dst&15] & wmask[st.w&31]
						c := uint(uint64(st.imm)&0xFF) & (widthBits(st.w) - 1)
						res := maskW(a<<c, st.w)
						m.zf = res == 0
						m.sf = signBit(res, st.w)
						m.Regs[st.dst&15] = res & wmask[st.w&31]
					case fsShrRI:
						a := m.Regs[st.dst&15] & wmask[st.w&31]
						c := uint(uint64(st.imm)&0xFF) & (widthBits(st.w) - 1)
						res := maskW(a>>c, st.w)
						m.zf = res == 0
						m.sf = signBit(res, st.w)
						m.Regs[st.dst&15] = res & wmask[st.w&31]
					case fsSarRI:
						a := m.Regs[st.dst&15] & wmask[st.w&31]
						c := uint(uint64(st.imm)&0xFF) & (widthBits(st.w) - 1)
						res := maskW(uint64(int64(signExtend(a, st.w))>>c), st.w)
						m.zf = res == 0
						m.sf = signBit(res, st.w)
						m.Regs[st.dst&15] = res & wmask[st.w&31]
					case fsShift:
						a := m.Regs[st.dst&15] & wmask[st.w&31]
						var cnt uint64
						if st.src != dRegNone {
							cnt = m.Regs[st.src&15] & 0xFF
						} else {
							cnt = uint64(st.imm) & 0xFF
						}
						bitsN := widthBits(st.w)
						c := uint(cnt) & (bitsN - 1)
						var res uint64
						switch st.op {
						case x86.SHL:
							res = a << c
						case x86.SHR:
							res = a >> c
						case x86.SAR:
							res = uint64(int64(signExtend(a, st.w)) >> c)
						default: // ROL
							res = a<<c | a>>(bitsN-c)
						}
						res = maskW(res, st.w)
						m.zf = res == 0
						m.sf = signBit(res, st.w)
						m.Regs[st.dst&15] = res & wmask[st.w&31]

					case fsCmp:
						a := m.Regs[st.dst&15] & wmask[st.w&31]
						b := m.Regs[st.src&15] & wmask[st.w&31]
						m.setFlagsSub(a, b, a-b, st.w)
					case fsCmpI:
						a := m.Regs[st.dst&15] & wmask[st.w&31]
						b := uint64(st.imm) & wmask[st.w&31]
						m.setFlagsSub(a, b, a-b, st.w)
					case fsCmpM:
						fr.pc = pc + i
						a := m.Regs[st.dst&15] & wmask[st.w&31]
						b, err := m.loadFast(m.eaD(st.mem), int(st.w))
						if err != nil {
							gerr = err
							goto trapped
						}
						m.setFlagsSub(a, b, a-b, st.w)
					case fsTest:
						a := m.Regs[st.dst&15] & wmask[st.w&31]
						b := m.Regs[st.src&15] & wmask[st.w&31]
						m.setFlagsLogic(a&b, st.w)

					case fsSetcc:
						v := uint64(0)
						if m.cond(st.cond) {
							v = 1
						}
						m.Regs[st.dst&15] = v

					case fsLoad:
						fr.pc = pc + i
						v, err := m.loadFast(m.eaD(st.mem), int(st.w))
						if err != nil {
							gerr = err
							goto trapped
						}
						m.Regs[st.dst&15] = v & wmask[st.w&31]
					case fsLoadZX:
						fr.pc = pc + i
						v, err := m.loadFast(m.eaD(st.mem), int(st.srcW))
						if err != nil {
							gerr = err
							goto trapped
						}
						m.Regs[st.dst&15] = v & wmask[st.w&31]
					case fsStoreR:
						fr.pc = pc + i
						v := m.Regs[st.src&15] & wmask[st.w&31]
						if err := m.storeFast(m.eaD(st.mem), int(st.w), v); err != nil {
							gerr = err
							goto trapped
						}
					case fsStoreI:
						fr.pc = pc + i
						v := uint64(st.imm) & wmask[st.w&31]
						if err := m.storeFast(m.eaD(st.mem), int(st.w), v); err != nil {
							gerr = err
							goto trapped
						}

					case fsFLoad:
						fr.pc = pc + i
						v, err := m.loadFast(m.eaD(st.mem), 8)
						if err != nil {
							gerr = err
							goto trapped
						}
						m.XmmLo[st.dst] = v
					case fsFStore:
						fr.pc = pc + i
						if err := m.storeFast(m.eaD(st.mem), 8, m.XmmLo[st.src]); err != nil {
							gerr = err
							goto trapped
						}
					case fsFAdd:
						a := math.Float64frombits(m.XmmLo[st.dst])
						b := math.Float64frombits(m.XmmLo[st.src])
						m.XmmLo[st.dst] = math.Float64bits(a + b)
					case fsFMul:
						a := math.Float64frombits(m.XmmLo[st.dst])
						b := math.Float64frombits(m.XmmLo[st.src])
						m.XmmLo[st.dst] = math.Float64bits(a * b)
					case fsFDiv:
						a := math.Float64frombits(m.XmmLo[st.dst])
						b := math.Float64frombits(m.XmmLo[st.src])
						m.XmmLo[st.dst] = math.Float64bits(a / b)
					case fsFMin:
						a := math.Float64frombits(m.XmmLo[st.dst])
						b := math.Float64frombits(m.XmmLo[st.src])
						m.XmmLo[st.dst] = math.Float64bits(math.Min(a, b))

					case fsVLoad:
						fr.pc = pc + i
						addr := m.eaD(st.mem)
						lo, err := m.loadFast(addr, 8)
						if err != nil {
							gerr = err
							goto trapped
						}
						hi, err := m.loadFast(addr+8, 8)
						if err != nil {
							gerr = err
							goto trapped
						}
						m.XmmLo[st.dst] = lo
						m.XmmHi[st.dst] = hi
					case fsVStore:
						fr.pc = pc + i
						addr := m.eaD(st.mem)
						if err := m.storeFast(addr, 8, m.XmmLo[st.src]); err != nil {
							gerr = err
							goto trapped
						}
						if err := m.storeFast(addr+8, 8, m.XmmHi[st.src]); err != nil {
							gerr = err
							goto trapped
						}

					case fsTrapif:
						if m.cond(st.cond) {
							fr.pc = pc + i
							gerr = m.trap(TrapBounds, 0)
							goto trapped
						}
					case fsJcc:
						taken := m.cond(st.cond)
						m.predictBranch(fr.fn, pc+i, taken)
						if taken {
							next = int(st.target)
						}
					case fsJmp:
						next = int(st.target)
					}
				}
				break
			trapped:
				// fr.pc names the constituent that trapped: take back what
				// the group charged up front for the ones after it.
				for j := fr.pc + 1; j < pc+n; j++ {
					nInsts--
					nBytes -= uint64(insts[j].ilen)
				}
				return gerr

			case x86.MOV:
				// Register operands are open-coded in the hot integer cases:
				// readOpD/writeOpD are one call too large for the inliner, and
				// this dispatch path is where the emulator spends its time.
				// The &15/&31 index masks are no-ops for valid operands and
				// let the compiler drop the bounds checks.
				var v uint64
				if in.src.kind == dReg {
					v = m.Regs[in.src.reg&15] & wmask[in.w&31]
				} else {
					var err error
					if v, err = m.readOpDRest(&in.src, in.w); err != nil {
						return err
					}
				}
				if in.dst.kind == dReg && in.w >= x86.W32 {
					m.Regs[in.dst.reg&15] = v & wmask[in.w&31]
				} else if err := m.writeOpDRest(&in.dst, in.w, v); err != nil {
					return err
				}
			case x86.MOVZX:
				v, err := m.readOpD(&in.src, in.srcW)
				if err != nil {
					return err
				}
				if in.dst.kind == dReg && in.w >= x86.W32 {
					m.Regs[in.dst.reg&15] = v & wmask[in.w&31]
				} else if err := m.writeOpDRest(&in.dst, in.w, v); err != nil {
					return err
				}
			case x86.MOVSX:
				v, err := m.readOpD(&in.src, in.srcW)
				if err != nil {
					return err
				}
				v = signExtend(v, in.srcW) & wmask[in.w&31]
				if in.dst.kind == dReg && in.w >= x86.W32 {
					m.Regs[in.dst.reg&15] = v
				} else if err := m.writeOpDRest(&in.dst, in.w, v); err != nil {
					return err
				}
			case x86.LEA:
				v := m.eaDRest(&in.src, false)
				if err := m.writeOpD(&in.dst, in.w, maskW(v, in.w)); err != nil {
					return err
				}
			case x86.PUSH:
				var v uint64
				if in.dst.kind == dReg {
					v = m.Regs[in.dst.reg&15]
				} else {
					var err error
					if v, err = m.readOpDRest(&in.dst, x86.W64); err != nil {
						return err
					}
				}
				m.Regs[x86.RSP] -= 8
				if err := m.storeFast(m.Regs[x86.RSP], 8, v); err != nil {
					return err
				}
			case x86.POP:
				v, err := m.loadFast(m.Regs[x86.RSP], 8)
				if err != nil {
					return err
				}
				m.Regs[x86.RSP] += 8
				if in.dst.kind == dReg {
					m.Regs[in.dst.reg&15] = v
				} else if err := m.writeOpDRest(&in.dst, x86.W64, v); err != nil {
					return err
				}

			case x86.ADD, x86.SUB, x86.AND, x86.OR, x86.XOR, x86.IMUL:
				var a, b uint64
				if in.dst.kind == dReg {
					a = m.Regs[in.dst.reg&15] & wmask[in.w&31]
				} else {
					var err error
					if a, err = m.readOpDRest(&in.dst, in.w); err != nil {
						return err
					}
				}
				if in.src.kind == dReg {
					b = m.Regs[in.src.reg&15] & wmask[in.w&31]
				} else {
					var err error
					if b, err = m.readOpDRest(&in.src, in.w); err != nil {
						return err
					}
				}
				var res uint64
				switch in.op {
				case x86.ADD:
					res = a + b
					m.setFlagsAdd(a, b, res, in.w)
				case x86.SUB:
					res = a - b
					m.setFlagsSub(a, b, res, in.w)
				case x86.AND:
					res = a & b
					m.setFlagsLogic(res, in.w)
				case x86.OR:
					res = a | b
					m.setFlagsLogic(res, in.w)
				case x86.XOR:
					res = a ^ b
					m.setFlagsLogic(res, in.w)
				case x86.IMUL:
					res = a * b
				}
				if in.dst.kind == dReg && in.w >= x86.W32 {
					m.Regs[in.dst.reg&15] = res & wmask[in.w&31]
				} else if err := m.writeOpDRest(&in.dst, in.w, res); err != nil {
					return err
				}
			case x86.SHL, x86.SHR, x86.SAR, x86.ROL:
				var a, cnt uint64
				if in.dst.kind == dReg {
					a = m.Regs[in.dst.reg&15] & wmask[in.w&31]
				} else {
					var err error
					if a, err = m.readOpDRest(&in.dst, in.w); err != nil {
						return err
					}
				}
				switch in.src.kind {
				case dReg:
					cnt = m.Regs[in.src.reg&15] & 0xFF
				case dImm:
					cnt = uint64(in.src.imm) & 0xFF
				default:
					var err error
					if cnt, err = m.readOpDRest(&in.src, x86.W8); err != nil {
						return err
					}
				}
				bitsN := widthBits(in.w)
				c := uint(cnt) & (bitsN - 1)
				var res uint64
				switch in.op {
				case x86.SHL:
					res = a << c
				case x86.SHR:
					res = a >> c
				case x86.SAR:
					res = uint64(int64(signExtend(a, in.w)) >> c)
				case x86.ROL:
					res = a<<c | a>>(bitsN-c)
				}
				res = maskW(res, in.w)
				m.zf = res == 0
				m.sf = signBit(res, in.w)
				if in.dst.kind == dReg && in.w >= x86.W32 {
					m.Regs[in.dst.reg&15] = res & wmask[in.w&31]
				} else if err := m.writeOpDRest(&in.dst, in.w, res); err != nil {
					return err
				}
			case x86.CMP:
				var a, b uint64
				if in.dst.kind == dReg {
					a = m.Regs[in.dst.reg&15] & wmask[in.w&31]
				} else {
					var err error
					if a, err = m.readOpDRest(&in.dst, in.w); err != nil {
						return err
					}
				}
				if in.src.kind == dReg {
					b = m.Regs[in.src.reg&15] & wmask[in.w&31]
				} else {
					var err error
					if b, err = m.readOpDRest(&in.src, in.w); err != nil {
						return err
					}
				}
				m.setFlagsSub(a, b, a-b, in.w)
			case x86.TEST:
				var a, b uint64
				if in.dst.kind == dReg {
					a = m.Regs[in.dst.reg&15] & wmask[in.w&31]
				} else {
					var err error
					if a, err = m.readOpDRest(&in.dst, in.w); err != nil {
						return err
					}
				}
				if in.src.kind == dReg {
					b = m.Regs[in.src.reg&15] & wmask[in.w&31]
				} else {
					var err error
					if b, err = m.readOpDRest(&in.src, in.w); err != nil {
						return err
					}
				}
				m.setFlagsLogic(a&b, in.w)
			case x86.SETCC:
				v := uint64(0)
				if m.cond(in.cond) {
					v = 1
				}
				if err := m.writeOpD(&in.dst, x86.W64, v); err != nil {
					return err
				}
			case x86.CQO:
				if in.w == x86.W32 {
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
				d, err := m.readOpD(&in.dst, in.w)
				if err != nil {
					return err
				}
				if maskW(d, in.w) == 0 {
					return m.trap(TrapDivZero, 0)
				}
				if in.op == x86.IDIV {
					if in.w == x86.W32 {
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
					if in.w == x86.W32 {
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
			case x86.POPCNT:
				v, err := m.readOpD(&in.src, in.w)
				if err != nil {
					return err
				}
				res := uint64(bits.OnesCount64(maskW(v, in.w)))
				if err := m.writeOpD(&in.dst, in.w, res); err != nil {
					return err
				}

			case x86.JMP:
				next = int(in.dst.imm)
			case x86.JCC:
				taken := m.cond(in.cond)
				m.predictBranch(fr.fn, pc, taken)
				if taken {
					next = int(in.dst.imm)
				}
			case x86.CALLFN:
				if len(m.frames) >= m.MaxCallDepth {
					return m.trap(TrapCallDepth, 0)
				}
				m.Regs[x86.RSP] -= 8
				if err := m.storeFast(m.Regs[x86.RSP], 8, uint64(pc+1)); err != nil {
					return err
				}
				fr.pc = next
				m.frames = append(m.frames, frame{fn: int(in.dst.imm), pc: 0})
				continue frames
			case x86.CALLREG:
				m.Stats.Cycles += m.Cost.IndirectSeq
				slot, err := m.readOpD(&in.dst, x86.W64)
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
				if ent.SigID != int(in.src.imm) {
					return m.trap(TrapTableSig, 0)
				}
				if len(m.frames) >= m.MaxCallDepth {
					return m.trap(TrapCallDepth, 0)
				}
				m.Regs[x86.RSP] -= 8
				if err := m.storeFast(m.Regs[x86.RSP], 8, uint64(pc+1)); err != nil {
					return err
				}
				fr.pc = next
				m.frames = append(m.frames, frame{fn: ent.FuncIdx, pc: 0})
				continue frames
			case x86.CALLHOST:
				idx := int(in.dst.imm)
				if idx < 0 || idx >= len(m.Hosts) {
					return fmt.Errorf("cpu: host index %d out of range", idx)
				}
				fr.pc = next
				if err := m.Hosts[idx](m); err != nil {
					return err
				}
				continue frames
			case x86.RET:
				if _, err := m.loadFast(m.Regs[x86.RSP], 8); err != nil {
					return err
				}
				m.Regs[x86.RSP] += 8
				m.frames = m.frames[:len(m.frames)-1]
				continue frames

			case x86.TRAPIF:
				if m.cond(in.cond) {
					return m.trap(TrapBounds, 0)
				}
			case x86.EPOCH:
				if m.EpochEnabled && m.Stats.Cycles >= m.EpochDeadline {
					fr.pc = next
					return m.trap(TrapEpoch, 0)
				}

			case x86.ENDBR, x86.BTBFLUSH, x86.INTERLOCK:
				// Hardening pseudo-ops: architecturally inert, cost only.

			case x86.MOVSD:
				if err := m.execMOVSDD(in); err != nil {
					return err
				}
			case x86.ADDSD, x86.MULSD, x86.DIVSD, x86.MINSD:
				if err := m.execFBinD(in); err != nil {
					return err
				}
			case x86.ABSSD:
				m.XmmLo[in.dst.reg] &^= 1 << 63
			case x86.JTAB:
				idx, err := m.readOpD(&in.dst, x86.W64)
				if err != nil {
					return err
				}
				m.Stats.Cycles += m.Cost.Load + m.Cost.Branch
				m.Stats.Branches++
				if idx < uint64(len(in.targets)) {
					next = in.targets[idx]
				} else {
					next = int(in.src.imm)
				}
			case x86.CVTSI2SD:
				v, err := m.readOpD(&in.src, in.w)
				if err != nil {
					return err
				}
				var fv float64
				if in.w == x86.W32 {
					fv = float64(int32(v))
				} else {
					fv = float64(int64(v))
				}
				m.XmmLo[in.dst.reg] = math.Float64bits(fv)
			case x86.MOVQXR:
				m.Regs[in.dst.reg] = m.XmmLo[in.src.reg]
			case x86.MOVQRX:
				m.XmmLo[in.dst.reg] = m.Regs[in.src.reg]

			case x86.MOVDQU:
				if err := m.execMOVDQUD(in); err != nil {
					return err
				}
			case x86.PXOR:
				m.XmmLo[in.dst.reg] ^= m.XmmLo[in.src.reg]
				m.XmmHi[in.dst.reg] ^= m.XmmHi[in.src.reg]

			default:
				return fmt.Errorf("cpu: unimplemented op %v", in.op)
			}
			fr.pc = next
		}
	}
	return nil
}

package cpu

import (
	"encoding/binary"
	"fmt"
	"math"

	"repro/internal/mem"
	"repro/internal/x86"
)

// This file is the decoded loop's memory and operand path: loads and
// stores through the access-grant cache, effective addresses from a
// precomputed recipe (no x86.Mem interpretation, no segment switch),
// and operand reads/writes dispatched on a predecoded byte. The loop
// that uses them is runDecoded in machine_decoded.go; the differential
// tests in machine_fast_test.go, fuse_test.go and internal/rt assert
// bit-identical registers, memory, and Stats against runSlow.

// grantForRest fills the access-grant cache entry for addr's page
// from the VMA list, after the open-coded valid-entry check in
// loadFast/storeFast missed. A nil return means the page is unmapped
// (or the entry can't be established); callers fall back to the
// layered path for exact fault semantics. Entries are validated
// against the address space's mapping generation, so mprotect/munmap/
// madvise from host calls invalidate the cache.
func (m *Machine) grantForRest(addr, pn uint64) *mtcEntry {
	if g := m.AS.Gen(); g != m.mtcGen {
		m.mtc = [mtcSize]mtcEntry{}
		m.mtcGen = g
	}
	e := &m.mtc[pn&(mtcSize-1)]
	if e.pnPlus1 != pn+1 {
		v, ok := m.AS.VMAAt(addr)
		if !ok {
			return nil
		}
		*e = mtcEntry{pnPlus1: pn + 1, pg: m.AS.PageFor(addr, false), prot: v.Prot, pkey: v.Pkey}
		e.refreshPerms(m.PKRU)
	} else if e.pkru != m.PKRU {
		e.refreshPerms(m.PKRU)
	}
	return e
}

// loadFast is m.load fused with the grant cache: a hit skips the VMA
// walk and the page-map hash and reads page bytes directly. The cost
// accounting (MemReads, TLB, L1/L2) is the exact memCost sequence.
// Page-straddling accesses, unmapped pages, and permission denials
// fall back to m.load, which reproduces the exact fault.
func (m *Machine) loadFast(addr uint64, size int) (uint64, error) {
	off := addr & (mem.PageSize - 1)
	if off+uint64(size) > mem.PageSize {
		return m.load(addr, size)
	}
	// Open-coded grant-cache hit check (see grantForRest).
	pn := addr / mem.PageSize
	e := &m.mtc[pn&(mtcSize-1)]
	if e.pnPlus1 != pn+1 || m.mtcGen != m.AS.Gen() || e.pkru != m.PKRU {
		e = m.grantForRest(addr, pn)
	}
	if e == nil || !e.readOK {
		return m.load(addr, size)
	}
	// The exact memCost sequence, open-coded to drop a call level from
	// the hottest path in the emulator. A same-line repeat (MemoHit,
	// inlined) is a guaranteed dTLB+L1 hit: no penalty cycles.
	m.Stats.MemReads++
	if !m.Hier.MemoHit(addr) {
		tlbHit, missLevels := m.Hier.AccessFull(addr)
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
	pg := e.pg
	if pg == nil {
		// The page may have been allocated since the entry was filled.
		if pg = m.AS.PageFor(addr, false); pg == nil {
			return 0, nil
		}
		e.pg = pg
	}
	switch size {
	case 8:
		return binary.LittleEndian.Uint64(pg[off : off+8]), nil
	case 4:
		return uint64(binary.LittleEndian.Uint32(pg[off : off+4])), nil
	case 2:
		return uint64(binary.LittleEndian.Uint16(pg[off : off+2])), nil
	case 1:
		return uint64(pg[off]), nil
	}
	return m.AS.Load(addr, size), nil
}

// storeFast is m.store fused with the grant cache; see loadFast.
func (m *Machine) storeFast(addr uint64, size int, v uint64) error {
	off := addr & (mem.PageSize - 1)
	if off+uint64(size) > mem.PageSize {
		return m.store(addr, size, v)
	}
	// Open-coded grant-cache hit check (see grantForRest).
	pn := addr / mem.PageSize
	e := &m.mtc[pn&(mtcSize-1)]
	if e.pnPlus1 != pn+1 || m.mtcGen != m.AS.Gen() || e.pkru != m.PKRU {
		e = m.grantForRest(addr, pn)
	}
	if e == nil || !e.writeOK {
		return m.store(addr, size, v)
	}
	m.Stats.MemWrites++
	if !m.Hier.MemoHit(addr) {
		tlbHit, missLevels := m.Hier.AccessFull(addr)
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
	pg := e.pg
	if pg == nil {
		pg = m.AS.PageFor(addr, true)
		e.pg = pg
	}
	switch size {
	case 8:
		binary.LittleEndian.PutUint64(pg[off:off+8], v)
	case 4:
		binary.LittleEndian.PutUint32(pg[off:off+4], uint32(v))
	case 2:
		binary.LittleEndian.PutUint16(pg[off:off+2], uint16(v))
	case 1:
		pg[off] = byte(v)
	default:
		m.AS.Store(addr, size, v)
	}
	return nil
}

// eaD computes the effective address from a predecoded recipe,
// matching Machine.ea: base + scaled index + displacement, truncated
// under the address-size override, then segment-based (unless LEA).
// The two shapes that dominate SFI code — base+disp and
// base+disp+GS — are classified at decode time (daccess.shape) and
// handled here so the whole computation inlines into the dispatch
// loops; everything else goes through eaDRest. eaD always applies the
// segment base; the only no-segment caller is LEA, which uses eaDRest
// directly.
func (m *Machine) eaD(a *daccess) uint64 {
	if a.shape == eaBaseDisp {
		return m.Regs[a.base&15] + a.disp
	}
	return m.eaDSeg(a)
}

func (m *Machine) eaDSeg(a *daccess) uint64 {
	if a.shape == eaBaseDispGS {
		return m.Regs[a.base&15] + a.disp + m.GSBase
	}
	return m.eaDRest(a, true)
}

func (m *Machine) eaDRest(a *daccess, withSeg bool) uint64 {
	sum := a.disp
	if a.base != dRegNone {
		sum += m.Regs[a.base]
	}
	if a.index != dRegNone {
		sum += m.Regs[a.index] * uint64(a.scale)
	}
	if a.addr32 {
		sum = uint64(uint32(sum))
	}
	if withSeg {
		switch a.seg {
		case dSegGS:
			sum += m.GSBase
		case dSegFS:
			sum += m.FSBase
		}
	}
	return sum
}

// readOpD reads a predecoded operand at width w. The register case is
// kept small enough to inline into runDecoded's dispatch cases; everything
// else goes through readOpDRest.
func (m *Machine) readOpD(a *daccess, w x86.Width) (uint64, error) {
	if a.kind == dReg {
		return m.Regs[a.reg&15] & wmask[w&31], nil
	}
	return m.readOpDRest(a, w)
}

func (m *Machine) readOpDRest(a *daccess, w x86.Width) (uint64, error) {
	switch a.kind {
	case dReg:
		return maskW(m.Regs[a.reg], w), nil
	case dImm:
		return maskW(uint64(a.imm), w), nil
	case dMem:
		return m.loadFast(m.eaD(a), int(w))
	case dXmm:
		return m.XmmLo[a.reg], nil
	default:
		return 0, fmt.Errorf("cpu: unreadable operand kind %d", a.kind)
	}
}

// writeOpD writes a predecoded operand at width w with the same
// merge/zero-extend rules as writeOp. The full-width and 32-bit
// register cases inline; merges and memory go through writeOpDRest.
func (m *Machine) writeOpD(a *daccess, w x86.Width, v uint64) error {
	if a.kind == dReg && w >= x86.W32 {
		m.Regs[a.reg&15] = v & wmask[w&31]
		return nil
	}
	return m.writeOpDRest(a, w, v)
}

func (m *Machine) writeOpDRest(a *daccess, w x86.Width, v uint64) error {
	switch a.kind {
	case dReg:
		switch w {
		case x86.W64:
			m.Regs[a.reg] = v
		case x86.W32:
			m.Regs[a.reg] = v & 0xFFFFFFFF
		case x86.W16:
			m.Regs[a.reg] = m.Regs[a.reg]&^uint64(0xFFFF) | v&0xFFFF
		case x86.W8:
			m.Regs[a.reg] = m.Regs[a.reg]&^uint64(0xFF) | v&0xFF
		}
		return nil
	case dMem:
		return m.storeFast(m.eaD(a), int(w), v)
	case dXmm:
		m.XmmLo[a.reg] = v
		return nil
	default:
		return fmt.Errorf("cpu: unwritable operand kind %d", a.kind)
	}
}

// readFD reads a predecoded f64 operand.
func (m *Machine) readFD(a *daccess) (float64, error) {
	switch a.kind {
	case dXmm:
		return math.Float64frombits(m.XmmLo[a.reg]), nil
	case dMem:
		v, err := m.loadFast(m.eaD(a), 8)
		return math.Float64frombits(v), err
	default:
		return 0, fmt.Errorf("cpu: bad f64 operand kind %d", a.kind)
	}
}

func (m *Machine) execMOVSDD(in *dinst) error {
	if in.dst.kind == dMem {
		return m.storeFast(m.eaD(&in.dst), 8, m.XmmLo[in.src.reg])
	}
	switch in.src.kind {
	case dXmm:
		m.XmmLo[in.dst.reg] = m.XmmLo[in.src.reg]
		return nil
	case dMem:
		v, err := m.loadFast(m.eaD(&in.src), 8)
		if err != nil {
			return err
		}
		m.XmmLo[in.dst.reg] = v
		return nil
	default:
		return fmt.Errorf("cpu: bad movsd operands")
	}
}

func (m *Machine) execFBinD(in *dinst) error {
	a := math.Float64frombits(m.XmmLo[in.dst.reg])
	b, err := m.readFD(&in.src)
	if err != nil {
		return err
	}
	var r float64
	switch in.op {
	case x86.ADDSD:
		r = a + b
	case x86.MULSD:
		r = a * b
	case x86.DIVSD:
		r = a / b
	case x86.MINSD:
		r = math.Min(a, b)
	}
	m.XmmLo[in.dst.reg] = math.Float64bits(r)
	return nil
}

func (m *Machine) execMOVDQUD(in *dinst) error {
	if in.dst.kind == dMem {
		addr := m.eaD(&in.dst)
		if err := m.storeFast(addr, 8, m.XmmLo[in.src.reg]); err != nil {
			return err
		}
		return m.storeFast(addr+8, 8, m.XmmHi[in.src.reg])
	}
	if in.src.kind == dMem {
		addr := m.eaD(&in.src)
		lo, err := m.loadFast(addr, 8)
		if err != nil {
			return err
		}
		hi, err := m.loadFast(addr+8, 8)
		if err != nil {
			return err
		}
		m.XmmLo[in.dst.reg] = lo
		m.XmmHi[in.dst.reg] = hi
		return nil
	}
	m.XmmLo[in.dst.reg] = m.XmmLo[in.src.reg]
	m.XmmHi[in.dst.reg] = m.XmmHi[in.src.reg]
	return nil
}

// Package mem implements the simulated virtual address space that
// ColorGuard's scaling story is built on: a 47-bit user address space
// managed as a sorted list of VMAs (virtual memory areas) with
// page-granular protections and 4-bit MPK protection keys, plus the
// Linux-like operations the Wasm runtimes use — mmap of large PROT_NONE
// reservations, mprotect, pkey_mprotect, madvise(MADV_DONTNEED), and a
// vm.max_map_count limit on the number of VMAs.
//
// Page backing is allocated lazily, so reserving terabytes of address
// space (as pooling allocators do) costs almost nothing until pages are
// touched — exactly the property the paper's guard regions rely on.
// Releasing is as lazy: munmap and madvise walk the smaller of the
// range and the resident set, and the buffers they drop are handed out
// again — zeroed at hand-out, so one tenant's bytes never reach the
// next — which keeps an address space whose instances churn from
// allocating page buffers at all.
package mem

import (
	"encoding/binary"
	"errors"
	"fmt"
	"sort"
)

// PageSize is the OS page size (4 KiB).
const PageSize = 4096

// NumPkeys is the number of MPK protection keys the hardware offers.
const NumPkeys = 16

// Prot is a page protection bitmask.
type Prot uint8

// Protection bits. ProtNone (no bits) is an unreadable, unwritable
// reservation — a guard region.
const (
	ProtNone Prot = 0
	ProtRead Prot = 1 << iota
	ProtWrite
	ProtExec
)

// String renders the protection like "rw-".
func (p Prot) String() string {
	b := []byte("---")
	if p&ProtRead != 0 {
		b[0] = 'r'
	}
	if p&ProtWrite != 0 {
		b[1] = 'w'
	}
	if p&ProtExec != 0 {
		b[2] = 'x'
	}
	return string(b)
}

// Errors returned by address-space operations.
var (
	ErrNoMem      = errors.New("mem: out of address space")
	ErrMapCount   = errors.New("mem: vm.max_map_count exceeded")
	ErrUnmapped   = errors.New("mem: address range not mapped")
	ErrUnaligned  = errors.New("mem: unaligned address or length")
	ErrBadPkey    = errors.New("mem: invalid protection key")
	ErrOverlap    = errors.New("mem: fixed mapping overlaps existing VMA")
	ErrOutOfRange = errors.New("mem: address beyond user address space")
)

// FaultKind classifies an access fault.
type FaultKind uint8

// Fault kinds.
const (
	FaultUnmapped FaultKind = iota // no VMA or PROT_NONE: SIGSEGV (guard hit)
	FaultProt                      // mapped but wrong permission
	FaultPkey                      // MPK key disallows the access (SEGV_PKUERR)
)

// Fault is the error for a denied memory access.
type Fault struct {
	Kind  FaultKind
	Addr  uint64
	Write bool
}

// Error implements error.
func (f *Fault) Error() string {
	kind := [...]string{"unmapped", "protection", "pkey"}[f.Kind]
	op := "read"
	if f.Write {
		op = "write"
	}
	return fmt.Sprintf("mem: %s fault on %s at %#x", kind, op, f.Addr)
}

// VMA is one virtual memory area: [Start, End) with uniform protection
// and protection key.
type VMA struct {
	Start, End uint64
	Prot       Prot
	Pkey       uint8
}

// AS is a simulated address space. The zero value is not usable;
// construct with NewAS.
type AS struct {
	limit uint64 // first address beyond user space

	vmas  []VMA
	pages map[uint64]*[PageSize]byte

	// MaxMapCount is the vm.max_map_count analogue: operations that
	// would push the VMA count beyond it fail with ErrMapCount.
	// Zero means unlimited.
	MaxMapCount int

	// lastVMA caches the index of the most recently hit VMA, since
	// emulated access streams have high locality.
	lastVMA int

	// lastPage caches the most recently touched backing page, skipping
	// the page-map lookup (and its hash) for the common case of
	// consecutive accesses to one page. Invalidated whenever backing
	// pages are released.
	lastPN   uint64
	lastPage *[PageSize]byte

	// freePages holds the buffers of dropped pages (at most
	// maxFreePages) for newPage to hand out again, so an address space
	// whose instances come and go allocates no page buffers in steady
	// state. A buffer here still holds its previous owner's bytes.
	freePages []*[PageSize]byte

	// gen counts mapping mutations (mmap, munmap, mprotect, madvise).
	// External caches of per-page permissions or backing pages — the
	// emulator's access-grant cache — revalidate against it.
	gen uint64
}

// NewAS returns an address space with the given number of virtual
// address bits available to user space (the paper's x86-64 machines
// have 47).
func NewAS(bits uint8) *AS {
	if bits < 16 || bits > 57 {
		panic("mem: unreasonable address-space size")
	}
	return &AS{
		limit: uint64(1) << bits,
		pages: make(map[uint64]*[PageSize]byte),
	}
}

// Gen returns the mapping generation: it changes whenever a mutation
// could invalidate externally cached per-page permissions or backing
// pages. Caches holding a page pointer or a (prot, pkey) grant must
// drop their entries when the generation moves.
func (a *AS) Gen() uint64 { return a.gen }

// PageFor returns the backing page containing addr, allocating it when
// alloc is set. A nil return (without alloc) means the page is
// untouched and reads as zero. Callers must have validated the access;
// this is the emulator fast path's direct line to page memory.
func (a *AS) PageFor(addr uint64, alloc bool) *[PageSize]byte {
	return a.page(addr, alloc)
}

// VMACount returns the current number of VMAs.
func (a *AS) VMACount() int { return len(a.vmas) }

// ResidentPages returns the number of lazily allocated backing pages
// (an RSS analogue).
func (a *AS) ResidentPages() int { return len(a.pages) }

func aligned(addr, length uint64) bool {
	return addr%PageSize == 0 && length%PageSize == 0
}

// findVMA returns the index of the VMA containing addr, or -1.
func (a *AS) findVMA(addr uint64) int {
	// Fast path: repeat hit on the cached VMA.
	if a.lastVMA < len(a.vmas) {
		v := a.vmas[a.lastVMA]
		if addr >= v.Start && addr < v.End {
			return a.lastVMA
		}
	}
	i := sort.Search(len(a.vmas), func(i int) bool { return a.vmas[i].End > addr })
	if i < len(a.vmas) && addr >= a.vmas[i].Start {
		a.lastVMA = i
		return i
	}
	return -1
}

// Mmap reserves [addr, addr+length) with the given protection (fixed
// placement, like mmap(MAP_FIXED|MAP_NORESERVE)). The range must be
// page-aligned, inside user space, and not overlap an existing VMA.
func (a *AS) Mmap(addr, length uint64, prot Prot) error {
	if !aligned(addr, length) {
		return ErrUnaligned
	}
	if length == 0 || addr+length < addr || addr+length > a.limit {
		return ErrOutOfRange
	}
	// Find insert position and check overlap.
	i := sort.Search(len(a.vmas), func(i int) bool { return a.vmas[i].End > addr })
	if i < len(a.vmas) && a.vmas[i].Start < addr+length {
		return ErrOverlap
	}
	if a.MaxMapCount > 0 && len(a.vmas)+1 > a.MaxMapCount {
		return ErrMapCount
	}
	a.vmas = append(a.vmas, VMA{})
	copy(a.vmas[i+1:], a.vmas[i:])
	a.vmas[i] = VMA{Start: addr, End: addr + length, Prot: prot}
	a.coalesceAround(i)
	a.gen++
	return nil
}

// MmapAnywhere finds a free page-aligned range of the given length,
// maps it with prot, and returns its start address. Placement is a
// simple first-fit above a small reserved low region.
func (a *AS) MmapAnywhere(length uint64, prot Prot) (uint64, error) {
	if length == 0 || length%PageSize != 0 {
		return 0, ErrUnaligned
	}
	const lowReserve = 1 << 20 // keep the null page and friends unmapped
	cand := uint64(lowReserve)
	for _, v := range a.vmas {
		if v.Start >= cand+length {
			break
		}
		if v.End > cand {
			cand = v.End
		}
	}
	if cand+length > a.limit || cand+length < cand {
		return 0, ErrNoMem
	}
	if err := a.Mmap(cand, length, prot); err != nil {
		return 0, err
	}
	return cand, nil
}

// Munmap removes mappings in [addr, addr+length), releasing backing
// pages. Unmapped holes inside the range are permitted, as with munmap.
func (a *AS) Munmap(addr, length uint64) error {
	if !aligned(addr, length) {
		return ErrUnaligned
	}
	end := addr + length
	if err := a.split(addr); err != nil {
		return err
	}
	if err := a.split(end); err != nil {
		return err
	}
	out := a.vmas[:0]
	for _, v := range a.vmas {
		if v.Start >= addr && v.End <= end {
			a.dropPages(v.Start, v.End)
			continue
		}
		out = append(out, v)
	}
	a.vmas = out
	a.lastVMA = 0
	a.gen++
	return nil
}

// Mprotect changes the protection of [addr, addr+length), which must be
// fully mapped. Splitting may increase the VMA count; the map-count
// limit applies.
func (a *AS) Mprotect(addr, length uint64, prot Prot) error {
	return a.protect(addr, length, prot, nil)
}

// PkeyMprotect is Mprotect plus assignment of the MPK protection key,
// mirroring the pkey_mprotect(2) system call.
func (a *AS) PkeyMprotect(addr, length uint64, prot Prot, pkey uint8) error {
	if pkey >= NumPkeys {
		return ErrBadPkey
	}
	return a.protect(addr, length, prot, &pkey)
}

func (a *AS) protect(addr, length uint64, prot Prot, pkey *uint8) error {
	if !aligned(addr, length) {
		return ErrUnaligned
	}
	end := addr + length
	if end < addr || end > a.limit {
		return ErrOutOfRange
	}
	// The whole range must be mapped.
	cover := addr
	for cover < end {
		i := a.findVMA(cover)
		if i < 0 {
			return ErrUnmapped
		}
		cover = a.vmas[i].End
	}
	if err := a.split(addr); err != nil {
		return err
	}
	if err := a.split(end); err != nil {
		return err
	}
	first := -1
	for i := range a.vmas {
		v := &a.vmas[i]
		if v.Start >= addr && v.End <= end {
			v.Prot = prot
			if pkey != nil {
				v.Pkey = *pkey
			}
			if first == -1 {
				first = i
			}
		}
	}
	if first >= 0 {
		a.coalesceAround(first)
	}
	a.gen++
	return nil
}

// split ensures a VMA boundary exists at addr (no-op when addr is not
// inside a VMA or already a boundary).
func (a *AS) split(addr uint64) error {
	i := a.findVMA(addr)
	if i < 0 || a.vmas[i].Start == addr {
		return nil
	}
	if a.MaxMapCount > 0 && len(a.vmas)+1 > a.MaxMapCount {
		return ErrMapCount
	}
	v := a.vmas[i]
	left := VMA{Start: v.Start, End: addr, Prot: v.Prot, Pkey: v.Pkey}
	right := VMA{Start: addr, End: v.End, Prot: v.Prot, Pkey: v.Pkey}
	a.vmas = append(a.vmas, VMA{})
	copy(a.vmas[i+1:], a.vmas[i:])
	a.vmas[i] = left
	a.vmas[i+1] = right
	return nil
}

// coalesceAround merges VMAs adjacent to index i that have identical
// attributes, keeping the VMA list minimal as the kernel does.
func (a *AS) coalesceAround(i int) {
	// Walk left to the first mergeable neighbor.
	for i > 0 && mergeable(a.vmas[i-1], a.vmas[i]) {
		i--
	}
	j := i
	for j+1 < len(a.vmas) && mergeable(a.vmas[j], a.vmas[j+1]) {
		a.vmas[j].End = a.vmas[j+1].End
		a.vmas = append(a.vmas[:j+1], a.vmas[j+2:]...)
	}
	a.lastVMA = 0
}

func mergeable(l, r VMA) bool {
	return l.End == r.Start && l.Prot == r.Prot && l.Pkey == r.Pkey
}

// maxFreePages bounds AS.freePages: 64 buffers (256 KiB) cover the
// pages a FaaS-sized instance touches between two recycles.
const maxFreePages = 64

// dropPages releases backing pages in [start, end), walking whichever
// is smaller: the page numbers of the range or the resident pages. A
// terabyte reservation with three pages touched costs three deletes.
func (a *AS) dropPages(start, end uint64) {
	first, last := start/PageSize, (end+PageSize-1)/PageSize
	if last-first > uint64(len(a.pages)) {
		for pn, pg := range a.pages {
			if pn >= first && pn < last {
				a.dropPage(pn, pg)
			}
		}
	} else {
		for pn := first; pn < last; pn++ {
			if pg := a.pages[pn]; pg != nil {
				a.dropPage(pn, pg)
			}
		}
	}
	a.lastPage = nil
}

func (a *AS) dropPage(pn uint64, pg *[PageSize]byte) {
	delete(a.pages, pn)
	if len(a.freePages) < maxFreePages {
		a.freePages = append(a.freePages, pg)
	}
}

// newPage returns a zeroed page buffer, a dropped one when there is
// one. Zeroing happens here, at hand-out, and nowhere else: whatever a
// previous owner wrote is gone before the buffer is reachable again.
func (a *AS) newPage() *[PageSize]byte {
	n := len(a.freePages)
	if n == 0 {
		return new([PageSize]byte)
	}
	pg := a.freePages[n-1]
	a.freePages = a.freePages[:n-1]
	*pg = [PageSize]byte{}
	return pg
}

// MadviseDontneed zeroes [addr, addr+length) by discarding backing
// pages, keeping the mapping (and, like MPK but unlike MTE, keeping any
// protection keys). This is how the pooling allocator recycles slots.
func (a *AS) MadviseDontneed(addr, length uint64) error {
	if !aligned(addr, length) {
		return ErrUnaligned
	}
	if a.findVMA(addr) < 0 {
		return ErrUnmapped
	}
	a.dropPages(addr, addr+length)
	a.gen++
	return nil
}

// VMAAt returns the VMA containing addr.
func (a *AS) VMAAt(addr uint64) (VMA, bool) {
	i := a.findVMA(addr)
	if i < 0 {
		return VMA{}, false
	}
	return a.vmas[i], true
}

// PkeyAllowed reports whether the PKRU register value permits the given
// access to a page with the given key. PKRU holds two bits per key:
// bit 2k = access-disable, bit 2k+1 = write-disable.
func PkeyAllowed(pkru uint32, pkey uint8, write bool) bool {
	ad := pkru>>(2*pkey)&1 != 0
	wd := pkru>>(2*pkey+1)&1 != 0
	if ad {
		return false
	}
	if write && wd {
		return false
	}
	return true
}

// PkruAllowOnly returns a PKRU value that permits full access to key 0
// and the listed keys, and denies all others. Key 0 is always allowed
// because runtime data structures live there.
func PkruAllowOnly(keys ...uint8) uint32 {
	var pkru uint32 = 0xFFFFFFFF
	allow := func(k uint8) { pkru &^= 3 << (2 * k) }
	allow(0)
	for _, k := range keys {
		allow(k)
	}
	return pkru
}

// PkruAllowAll permits access to every key.
const PkruAllowAll uint32 = 0

// CheckAccess validates an access of size bytes at addr under the given
// PKRU value, returning a Fault on denial. Accesses may straddle page
// and VMA boundaries; each page is checked.
func (a *AS) CheckAccess(addr uint64, size int, write bool, pkru uint32) error {
	if size <= 0 {
		return nil
	}
	end := addr + uint64(size)
	if end < addr || end > a.limit {
		return &Fault{Kind: FaultUnmapped, Addr: addr, Write: write}
	}
	p := addr
	for {
		i := a.findVMA(p)
		if i < 0 {
			return &Fault{Kind: FaultUnmapped, Addr: p, Write: write}
		}
		v := a.vmas[i]
		need := ProtRead
		if write {
			need = ProtWrite
		}
		if v.Prot&need == 0 {
			if v.Prot == ProtNone {
				return &Fault{Kind: FaultUnmapped, Addr: p, Write: write}
			}
			return &Fault{Kind: FaultProt, Addr: p, Write: write}
		}
		if !PkeyAllowed(pkru, v.Pkey, write) {
			return &Fault{Kind: FaultPkey, Addr: p, Write: write}
		}
		if v.End >= end {
			return nil
		}
		p = v.End
	}
}

// page returns the backing page for the page containing addr,
// allocating when alloc is set. A nil return means an untouched
// (all-zero) page. The body is only the repeat-page check, so it
// inlines into Load, Store and PageFor; the page-map lookup and the
// allocation live in pageRest.
func (a *AS) page(addr uint64, alloc bool) *[PageSize]byte {
	if a.lastPage != nil && a.lastPN == addr/PageSize {
		return a.lastPage
	}
	return a.pageRest(addr, alloc)
}

// pageRest is page's slow half. Inlined, it would take page over the
// inliner's budget and put a call on every Load and Store.
//
//go:noinline
func (a *AS) pageRest(addr uint64, alloc bool) *[PageSize]byte {
	pn := addr / PageSize
	pg := a.pages[pn]
	if pg == nil && alloc {
		pg = a.newPage()
		a.pages[pn] = pg
	}
	if pg != nil {
		a.lastPN, a.lastPage = pn, pg
	}
	return pg
}

// ReadBytes copies size bytes at addr into dst without permission
// checks (a host-side read; the emulator performs CheckAccess first).
func (a *AS) ReadBytes(addr uint64, dst []byte) {
	for len(dst) > 0 {
		off := addr % PageSize
		n := PageSize - off
		if n > uint64(len(dst)) {
			n = uint64(len(dst))
		}
		if pg := a.page(addr, false); pg != nil {
			copy(dst[:n], pg[off:off+n])
		} else {
			for i := uint64(0); i < n; i++ {
				dst[i] = 0
			}
		}
		dst = dst[n:]
		addr += n
	}
}

// WriteBytes copies src into memory at addr without permission checks.
func (a *AS) WriteBytes(addr uint64, src []byte) {
	for len(src) > 0 {
		off := addr % PageSize
		n := PageSize - off
		if n > uint64(len(src)) {
			n = uint64(len(src))
		}
		pg := a.page(addr, true)
		copy(pg[off:off+n], src[:n])
		src = src[n:]
		addr += n
	}
}

// Load reads a little-endian value of size 1, 2, 4, or 8 bytes.
func (a *AS) Load(addr uint64, size int) uint64 {
	off := addr % PageSize
	if off+uint64(size) <= PageSize {
		pg := a.page(addr, false)
		if pg == nil {
			return 0
		}
		switch size {
		case 8:
			return binary.LittleEndian.Uint64(pg[off : off+8])
		case 4:
			return uint64(binary.LittleEndian.Uint32(pg[off : off+4]))
		case 2:
			return uint64(binary.LittleEndian.Uint16(pg[off : off+2]))
		case 1:
			return uint64(pg[off])
		}
		var v uint64
		for i := size - 1; i >= 0; i-- {
			v = v<<8 | uint64(pg[off+uint64(i)])
		}
		return v
	}
	var buf [8]byte
	a.ReadBytes(addr, buf[:size])
	var v uint64
	for i := size - 1; i >= 0; i-- {
		v = v<<8 | uint64(buf[i])
	}
	return v
}

// Store writes a little-endian value of size 1, 2, 4, or 8 bytes.
func (a *AS) Store(addr uint64, size int, val uint64) {
	off := addr % PageSize
	if off+uint64(size) <= PageSize {
		pg := a.page(addr, true)
		switch size {
		case 8:
			binary.LittleEndian.PutUint64(pg[off:off+8], val)
		case 4:
			binary.LittleEndian.PutUint32(pg[off:off+4], uint32(val))
		case 2:
			binary.LittleEndian.PutUint16(pg[off:off+2], uint16(val))
		case 1:
			pg[off] = byte(val)
		default:
			for i := 0; i < size; i++ {
				pg[off+uint64(i)] = byte(val >> (8 * i))
			}
		}
		return
	}
	var buf [8]byte
	for i := 0; i < size; i++ {
		buf[i] = byte(val >> (8 * i))
	}
	a.WriteBytes(addr, buf[:size])
}

// Package cache simulates the memory-hierarchy structures whose behaviour
// the paper's evaluation depends on: a set-associative data TLB (Figure 7b
// counts dTLB misses under multi-process vs ColorGuard scaling) and a
// two-level set-associative data cache (the pointer-compression effect
// that makes 429_mcf run faster under Wasm than natively is a cache
// effect of 4-byte vs 8-byte pointers).
//
// The structures are true LRU and deterministic; costs (cycles per miss)
// are applied by the CPU emulator, not here.
//
// Counters live in plain single-owner fields — each TLB/Cache belongs
// to one machine or one simulation, and the per-access increment is the
// hottest line in the emulator, so it must not pay an atomic. The
// telemetry registry is the export surface instead: accessors expose
// the counts as read-only views, and PublishTo folds them into
// registry counters at run boundaries.
//
// A Hierarchy is reusable: Reset returns it to the state NewHierarchy
// builds, in time proportional to the sets the previous owner wrote
// rather than to the 256 KiB of L2 tags. Each Cache keeps a dirty list
// of the sets that hold a line; it is appended to only on the miss path
// (accessRest, when the set's front way is still empty — the first
// insertion since the set was last clean), so the front-way hit checks
// that dominate the emulator's memory path never see it.
package cache

import "repro/internal/telemetry"

// lruAccess looks tag up in one set's ways, kept in recency order
// (most recent first), and maintains that order: a hit rotates the way
// to the front; a miss evicts the last way (the least recent — or an
// empty slot while the set is filling, since empties sink to the back)
// and inserts the tag at the front. This is exactly true LRU — the
// recency ordering carries the same information as per-way timestamps —
// but a hit near the front costs one or two comparisons instead of a
// full scan over stamps, which is what the emulator pays per simulated
// memory access.
func lruAccess(w []uint64, tag uint64) bool {
	if w[0] == tag {
		return true
	}
	for i := 1; i < len(w); i++ {
		if w[i] == tag {
			copy(w[1:i+1], w[:i])
			w[0] = tag
			return true
		}
	}
	copy(w[1:], w[:len(w)-1])
	w[0] = tag
	return false
}

// TLB is a set-associative translation lookaside buffer over 4 KiB
// pages. The zero value is not usable; construct with NewTLB.
type TLB struct {
	sets     uint64
	ways     int
	tags     []uint64 // sets*ways entries in recency order; 0 = invalid (vpn+1 stored)
	pageBits uint

	hits    uint64
	misses  uint64
	flushes uint64
}

// NewTLB returns a TLB with the given total entry count and
// associativity. Entries must be a multiple of ways and sets a power of
// two (e.g. 64 entries, 4 ways — a typical L1 dTLB).
func NewTLB(entries, ways int) *TLB {
	if entries <= 0 || ways <= 0 || entries%ways != 0 {
		panic("cache: bad TLB geometry")
	}
	sets := entries / ways
	if sets&(sets-1) != 0 {
		panic("cache: TLB set count must be a power of two")
	}
	return &TLB{sets: uint64(sets), ways: ways, tags: make([]uint64, entries), pageBits: 12}
}

// Access looks up the page containing vaddr, updating hit/miss counters
// and LRU state. It returns true on a hit. The body checks only the
// most-recent way so the function inlines into the emulator's memory
// path; the full set scan lives in accessRest.
func (t *TLB) Access(vaddr uint64) bool {
	vpn := vaddr >> t.pageBits
	base := int(vpn&(t.sets-1)) * t.ways
	if t.tags[base] == vpn+1 {
		t.hits++
		return true
	}
	return t.accessRest(base, vpn+1)
}

func (t *TLB) accessRest(base int, tag uint64) bool {
	if lruAccess(t.tags[base:base+t.ways], tag) {
		t.hits++
		return true
	}
	t.misses++
	return false
}

// Flush invalidates all entries, as a process context switch (address
// space change without PCID reuse) does.
func (t *TLB) Flush() {
	for i := range t.tags {
		t.tags[i] = 0
	}
	t.flushes++
}

// ResetStats zeroes the counters without touching entries.
func (t *TLB) ResetStats() { t.hits, t.misses, t.flushes = 0, 0, 0 }

// Hits returns the hit count since construction or ResetStats.
func (t *TLB) Hits() uint64 { return t.hits }

// Misses returns the miss count.
func (t *TLB) Misses() uint64 { return t.misses }

// Flushes returns the flush count.
func (t *TLB) Flushes() uint64 { return t.flushes }

// PublishTo adds the TLB's counters into registry counters named
// <prefix>.hits/.misses/.flushes. Call once per TLB at a run boundary
// (repeated calls double-count).
func (t *TLB) PublishTo(r *telemetry.Registry, prefix string) {
	r.Counter(prefix + ".hits").Add(t.hits)
	r.Counter(prefix + ".misses").Add(t.misses)
	r.Counter(prefix + ".flushes").Add(t.flushes)
}

// Cache is one level of a set-associative data cache with true-LRU
// replacement. Levels chain through Next; Access recurses on miss.
type Cache struct {
	Name     string
	lineBits uint
	sets     uint64
	ways     int
	tags     []uint64 // sets*ways entries in recency order; 0 = invalid (line+1 stored)

	// dirty lists the base index of every set that holds a line. Valid
	// lines form a prefix of their set (empties sink to the back), so a
	// set is non-empty exactly when its front way is, and Flush need
	// zero only these.
	dirty []int32

	hits   uint64
	misses uint64

	// Next is the level below (nil = memory).
	Next *Cache
}

// NewCache returns a cache of the given total size in bytes, line size,
// and associativity.
func NewCache(name string, sizeBytes, lineBytes, ways int) *Cache {
	if lineBytes <= 0 || lineBytes&(lineBytes-1) != 0 {
		panic("cache: line size must be a power of two")
	}
	lines := sizeBytes / lineBytes
	if lines <= 0 || lines%ways != 0 {
		panic("cache: bad cache geometry")
	}
	sets := lines / ways
	if sets&(sets-1) != 0 {
		panic("cache: set count must be a power of two")
	}
	lb := uint(0)
	for 1<<lb != lineBytes {
		lb++
	}
	return &Cache{Name: name, lineBits: lb, sets: uint64(sets), ways: ways,
		tags: make([]uint64, lines)}
}

// Access looks up the line containing addr. It returns the number of
// levels that missed (0 = L1 hit, 1 = L1 miss/L2 hit, 2 = missed both).
// Like TLB.Access, the body checks only the most-recent way so it
// inlines; the set scan and the recursion into Next live in accessRest.
func (c *Cache) Access(addr uint64) int {
	ln := addr >> c.lineBits
	base := int(ln&(c.sets-1)) * c.ways
	if c.tags[base] == ln+1 {
		c.hits++
		return 0
	}
	return c.accessRest(base, ln+1, addr)
}

func (c *Cache) accessRest(base int, tag, addr uint64) int {
	if c.tags[base] == 0 {
		// An empty front way means an empty set: this miss is its first
		// insertion since it was last clean.
		c.dirty = append(c.dirty, int32(base))
	}
	if lruAccess(c.tags[base:base+c.ways], tag) {
		c.hits++
		return 0
	}
	c.misses++
	if c.Next != nil {
		return 1 + c.Next.Access(addr)
	}
	return 1
}

// Flush invalidates every line at this level and below, in time
// proportional to the number of sets that hold one.
func (c *Cache) Flush() {
	for _, base := range c.dirty {
		clear(c.tags[int(base) : int(base)+c.ways])
	}
	c.dirty = c.dirty[:0]
	if c.Next != nil {
		c.Next.Flush()
	}
}

// ResetStats zeroes counters at this level and below.
func (c *Cache) ResetStats() {
	c.hits, c.misses = 0, 0
	if c.Next != nil {
		c.Next.ResetStats()
	}
}

// Hits returns this level's hit count.
func (c *Cache) Hits() uint64 { return c.hits }

// Misses returns this level's miss count.
func (c *Cache) Misses() uint64 { return c.misses }

// PublishTo adds this level's (and lower levels') counters into
// registry counters named <prefix>.<level-name>.hits/.misses, with the
// level name lowercased from Name. Call once per cache at a run
// boundary.
func (c *Cache) PublishTo(r *telemetry.Registry, prefix string) {
	name := prefix + "." + lowerName(c.Name)
	r.Counter(name + ".hits").Add(c.hits)
	r.Counter(name + ".misses").Add(c.misses)
	if c.Next != nil {
		c.Next.PublishTo(r, prefix)
	}
}

// lowerName lowercases ASCII letters (avoiding a strings import on this
// otherwise dependency-free hot package).
func lowerName(s string) string {
	b := []byte(s)
	for i, ch := range b {
		if ch >= 'A' && ch <= 'Z' {
			b[i] = ch + 'a' - 'A'
		}
	}
	return string(b)
}

// Hierarchy bundles the default memory-hierarchy configuration used by
// the CPU emulator: a 64-entry 4-way dTLB, a 48 KiB 12-way L1D, and a
// 2 MiB 16-way L2 — roughly the Raptor Lake shapes from the paper's
// test machine.
type Hierarchy struct {
	DTLB *TLB
	L1D  *Cache

	// lastLine memoizes the most recent Access: the line number (plus
	// one, shifted by memoShift; 0 = invalid). A repeat access to the
	// same line is necessarily a dTLB front-way hit and an L1 front-way
	// hit with no LRU state change (the line is already most recent in
	// both sets), so Access can short-circuit to two counter increments.
	// Any other mutation of the structures — Flush, AccessL1 — must
	// clear the memo. memoShift is the L1 line shift when built by
	// NewHierarchy; for a hand-assembled Hierarchy it is zero, which
	// degrades the memo to exact-address repeats (still correct, since
	// the same address is a fortiori the same line and page).
	//
	// prevLine extends the memo to the second-most-recent line, for the
	// stack/heap alternation the sandboxed code does constantly. It is
	// usable only while prevOK: the two lines must index different dTLB
	// sets and different L1 sets, so the older line is provably still
	// the front way of both its sets (the newer access cannot have
	// rotated them) and a repeat hit again changes no LRU state. The
	// set-disjointness is computed once, when AccessFull rotates the
	// memo, not per lookup.
	lastLine  uint64
	prevLine  uint64
	prevOK    bool
	memoShift uint
}

// NewHierarchy returns the default hierarchy.
func NewHierarchy() *Hierarchy {
	l2 := NewCache("L2", 2<<20, 64, 16)
	l1 := NewCache("L1D", 48<<10, 64, 12)
	l1.Next = l2
	return &Hierarchy{DTLB: NewTLB(64, 4), L1D: l1, memoShift: l1.lineBits}
}

// Flush models a full address-space switch: TLB and caches lose their
// useful contents. (Caches are physically tagged in reality, but a
// process switch replaces the working set, which this approximates.)
func (h *Hierarchy) Flush() {
	h.lastLine, h.prevLine, h.prevOK = 0, 0, false
	h.DTLB.Flush()
	h.L1D.Flush()
}

// Reset returns the hierarchy to the state NewHierarchy builds — empty
// structures, zero counters, no memo — so a recycled machine's cache
// behaviour is indistinguishable from a fresh one's. The cost is the
// dTLB's 512 bytes plus the cache sets the previous run wrote.
func (h *Hierarchy) Reset() {
	h.Flush()
	h.DTLB.ResetStats()
	h.L1D.ResetStats()
}

// AccessL1 charges one access against the cache hierarchy only (no
// dTLB), as host-call helpers touching guest memory do. It goes
// through the Hierarchy rather than L1D directly so the same-line
// memo is invalidated: the access may rotate or evict lines that the
// memo assumed were most recent.
func (h *Hierarchy) AccessL1(addr uint64) int {
	h.lastLine, h.prevLine, h.prevOK = 0, 0, false
	return h.L1D.Access(addr)
}

// Access charges one data access at addr through the whole hierarchy
// in a single call — the emulator pays this per simulated memory
// access, so the dTLB and L1 most-recent-way checks are open-coded
// here rather than going through TLB.Access and Cache.Access. It
// returns the dTLB outcome and the number of cache levels missed,
// with identical counter updates to calling the two lookups directly.
// PublishTo adds the whole hierarchy's counters into the registry
// under <prefix>.dtlb and <prefix>.<cache-level> names.
func (h *Hierarchy) PublishTo(r *telemetry.Registry, prefix string) {
	h.DTLB.PublishTo(r, prefix+".dtlb")
	h.L1D.PublishTo(r, prefix)
}

func (h *Hierarchy) Access(addr uint64) (tlbHit bool, missLevels int) {
	if h.MemoHit(addr) {
		return true, 0
	}
	return h.AccessFull(addr)
}

// MemoHit reports whether addr repeats the line of the immediately
// preceding access, charging the guaranteed dTLB+L1 hit if so. It is
// small enough to inline into the emulator's load/store fast path, so
// the dominant same-line-repeat case pays no function call at all;
// callers fall back to Access (or accessFull via Access) when it
// returns false.
func (h *Hierarchy) MemoHit(addr uint64) bool {
	ln := addr>>h.memoShift + 1
	if ln == h.lastLine {
		h.DTLB.hits++
		h.L1D.hits++
		return true
	}
	if ln == h.prevLine && h.prevOK {
		h.prevLine = h.lastLine
		h.lastLine = ln
		h.DTLB.hits++
		h.L1D.hits++
		return true
	}
	return false
}

// AccessFull is the general path: full dTLB and cache lookups, then
// the memo records the line just accessed (now most recent in both
// structures whatever the outcome — misses insert at the front too).
// The displaced line stays usable as the second memo entry when it
// can be proven undisturbed: its L1 set must differ from the new
// line's (distinct lines in one set rotate the LRU order), and its
// page must either be the same page (still the front TLB way) or
// index a different TLB set.
func (h *Hierarchy) AccessFull(addr uint64) (tlbHit bool, missLevels int) {
	t := h.DTLB
	vpn := addr >> t.pageBits
	tb := int(vpn&(t.sets-1)) * t.ways
	if t.tags[tb] == vpn+1 {
		t.hits++
		tlbHit = true
	} else {
		tlbHit = t.accessRest(tb, vpn+1)
	}
	c := h.L1D
	ln := addr >> c.lineBits
	cb := int(ln&(c.sets-1)) * c.ways
	if c.tags[cb] == ln+1 {
		c.hits++
	} else {
		missLevels = c.accessRest(cb, ln+1, addr)
	}
	m := addr>>h.memoShift + 1
	if m != h.lastLine {
		if prev := h.lastLine; prev != 0 {
			pa := (prev - 1) << h.memoShift
			pvpn := pa >> t.pageBits
			h.prevOK = (pa>>c.lineBits)&(c.sets-1) != ln&(c.sets-1) &&
				(pvpn == vpn || pvpn&(t.sets-1) != vpn&(t.sets-1))
			h.prevLine = prev
		}
		h.lastLine = m
	}
	return
}

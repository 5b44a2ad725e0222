// Package mte models ColorGuard-MTE (§7): ARM's memory tagging
// extension colors 16-byte granules instead of pages, with tags checked
// against bits 63:60 of every pointer. The package reproduces the two
// performance observations the paper makes on real MTE hardware
// (a Pixel 8 Pro):
//
//	Observation 1 — user-level tagging moves at most two granules
//	(32 bytes) per instruction, so striping a linear memory is slow:
//	initializing a 64 KiB memory goes from 79 µs to 2,182 µs.
//
//	Observation 2 — madvise(MADV_DONTNEED) discards tags, so recycling
//	a slot (which is free under MPK, whose colors live in PTEs) costs
//	extra on teardown (29 µs → 377 µs) and forces a full re-tag on the
//	next allocation.
//
// The cost constants are the paper's measured values, expressed per
// byte; the proposed fix (a tag-preserving madvise flag) is modeled so
// its benefit can be quantified.
//
// Those simulated charges are per byte; the host cost of keeping the
// tags is not. TagStore is sparse by chunk — 256 granules, the tags of
// one 4 KiB page — and dense inside one, so tagging or clearing a slot
// fills a few dozen chunks instead of hashing thousands of granules,
// and emptied chunks are zeroed and reused.
package mte

import "fmt"

// GranuleSize is the MTE tagging granule (16 bytes).
const GranuleSize = 16

// Measured cost constants (ns), derived from §7's numbers for 64 KiB
// linear memories.
const (
	InitBaseNs     = 79_000.0 // mmap + zeroing, no MTE
	TeardownBaseNs = 29_000.0 // madvise(MADV_DONTNEED), no MTE
	// Tagging measured: 2,182 µs total - 79 µs base over 64 KiB.
	TagNsPerByte = (2_182_000.0 - InitBaseNs) / 65536
	// Teardown with tag discarding: 377 µs total - 29 µs base.
	TagClearNsPerByte = (377_000.0 - TeardownBaseNs) / 65536
)

// chunkGranules is the number of granules one tag chunk covers: 256
// granules are 4 KiB of memory, so a chunk is the tags of one page.
const chunkGranules = 256

// maxFreeChunks bounds the emptied chunks a store keeps for reuse
// (256 chunks tag 1 MiB — several slots' worth of churn).
const maxFreeChunks = 256

// chunk is the tags of chunkGranules consecutive granules, dense.
type chunk struct {
	tags [chunkGranules]uint8
	set  int // granules holding a non-zero tag; a chunk at 0 is dropped
}

// TagStore holds granule tags for a region of memory: sparse by
// page-sized chunk, dense inside one. A granule that was never tagged,
// was tagged 0, or was cleared reads 0 — the three are
// indistinguishable, so a chunk whose last non-zero tag goes is
// dropped and an absent chunk means 256 zero tags.
type TagStore struct {
	chunks map[uint64]*chunk // chunk index (granule / chunkGranules) -> tags
	free   []*chunk          // dropped chunks, already zeroed
}

// NewTagStore returns an empty tag store.
func NewTagStore() *TagStore {
	return &TagStore{chunks: make(map[uint64]*chunk)}
}

// granules returns the granule range [first, end) that [base,
// base+size) rounds out to.
func granules(base, size uint64) (first, end uint64) {
	return base / GranuleSize, (base + size + GranuleSize - 1) / GranuleSize
}

// chunkFor returns the chunk with index ci, adding a zeroed one when
// the store has none.
func (ts *TagStore) chunkFor(ci uint64) *chunk {
	c := ts.chunks[ci]
	if c == nil {
		if n := len(ts.free); n > 0 {
			c, ts.free = ts.free[n-1], ts.free[:n-1]
		} else {
			c = new(chunk)
		}
		ts.chunks[ci] = c
	}
	return c
}

// drop removes chunk ci from the store. Zeroing happens here, on the
// way out, so chunkFor hands back a chunk that needs no preparation.
func (ts *TagStore) drop(ci uint64, c *chunk) {
	delete(ts.chunks, ci)
	if len(ts.free) < maxFreeChunks {
		*c = chunk{}
		ts.free = append(ts.free, c)
	}
}

// Set tags the granule containing addr.
func (ts *TagStore) Set(addr uint64, tag uint8) {
	g := addr / GranuleSize
	ts.fill(g, g+1, tag&0xF)
}

// Get returns the tag of the granule containing addr (0 if never set).
func (ts *TagStore) Get(addr uint64) uint8 {
	g := addr / GranuleSize
	if c := ts.chunks[g/chunkGranules]; c != nil {
		return c.tags[g%chunkGranules]
	}
	return 0
}

// ClearRange drops tags in [base, base+size) — what
// madvise(MADV_DONTNEED) does on MTE memory (Observation 2). It visits
// whichever is fewer, the chunks of the range or the chunks the store
// holds, so clearing a slot's whole reservation costs what was tagged.
func (ts *TagStore) ClearRange(base, size uint64) {
	first, end := granules(base, size)
	ts.clear(first, end)
}

// clear zeroes granules [first, end).
func (ts *TagStore) clear(first, end uint64) {
	if first >= end {
		return
	}
	firstC, lastC := first/chunkGranules, (end-1)/chunkGranules
	if lastC-firstC >= uint64(len(ts.chunks)) {
		for ci, c := range ts.chunks {
			if ci >= firstC && ci <= lastC {
				ts.clearChunk(ci, c, first, end)
			}
		}
		return
	}
	for ci := firstC; ci <= lastC; ci++ {
		if c := ts.chunks[ci]; c != nil {
			ts.clearChunk(ci, c, first, end)
		}
	}
}

// clearChunk zeroes the part of chunk ci inside granules [first, end).
func (ts *TagStore) clearChunk(ci uint64, c *chunk, first, end uint64) {
	lo, hi := chunkSpan(ci, first, end)
	if hi-lo < chunkGranules {
		for i := lo; i < hi; i++ {
			if c.tags[i] != 0 {
				c.tags[i] = 0
				c.set--
			}
		}
		if c.set > 0 {
			return
		}
	}
	ts.drop(ci, c)
}

// chunkSpan clips granules [first, end) to chunk ci, as offsets into it.
func chunkSpan(ci, first, end uint64) (lo, hi uint64) {
	start := ci * chunkGranules
	lo, hi = 0, chunkGranules
	if first > start {
		lo = first - start
	}
	if end < start+chunkGranules {
		hi = end - start
	}
	return lo, hi
}

// TagRange tags every granule in [base, base+size).
func (ts *TagStore) TagRange(base, size uint64, tag uint8) {
	first, end := granules(base, size)
	ts.fill(first, end, tag&0xF)
}

// fill sets granules [first, end) to tag, one chunk at a time.
func (ts *TagStore) fill(first, end uint64, tag uint8) {
	if tag == 0 {
		ts.clear(first, end)
		return
	}
	for first < end {
		ci := first / chunkGranules
		lo, hi := chunkSpan(ci, first, end)
		c := ts.chunkFor(ci)
		if hi-lo == chunkGranules {
			for i := range c.tags {
				c.tags[i] = tag
			}
			c.set = chunkGranules
		} else {
			for i := lo; i < hi; i++ {
				if c.tags[i] == 0 {
					c.set++
				}
				c.tags[i] = tag
			}
		}
		first = (ci + 1) * chunkGranules
	}
}

// PointerTag extracts bits 63:60 — where MTE keeps the expected tag.
func PointerTag(ptr uint64) uint8 { return uint8(ptr >> 60) }

// WithTag returns ptr with its tag bits set.
func WithTag(ptr uint64, tag uint8) uint64 {
	return ptr&^(uint64(0xF)<<60) | uint64(tag&0xF)<<60
}

// TagFault reports a tag-check failure.
type TagFault struct {
	Addr     uint64
	Expected uint8 // pointer tag
	Actual   uint8 // memory tag
}

// Error implements error.
func (f *TagFault) Error() string {
	return fmt.Sprintf("mte: tag mismatch at %#x: pointer %x, memory %x", f.Addr, f.Expected, f.Actual)
}

// Check validates an access through a tagged pointer: the pointer's tag
// must equal the granule tag of every granule touched.
func (ts *TagStore) Check(ptr uint64, size uint64) error {
	tag := PointerTag(ptr)
	addr := ptr &^ (uint64(0xF) << 60)
	for a := addr; a < addr+size; a += GranuleSize {
		if got := ts.Get(a); got != tag {
			return &TagFault{Addr: a, Expected: tag, Actual: got}
		}
	}
	// The final byte may fall in a later granule.
	if size > 0 {
		last := addr + size - 1
		if got := ts.Get(last); got != tag {
			return &TagFault{Addr: last, Expected: tag, Actual: got}
		}
	}
	return nil
}

// Allocator models the Wasm slot allocator on MTE hardware, accounting
// wall-clock costs per the measured constants.
type Allocator struct {
	// MTE enables tagging (ColorGuard-MTE); disabled, the allocator
	// behaves like the plain baseline.
	MTE bool

	// PreserveTagsOnMadvise models the paper's proposed fix: an
	// madvise flag that leaves tags invariant, making recycling as
	// cheap as under MPK.
	PreserveTagsOnMadvise bool

	Tags *TagStore

	// Accumulated costs in nanoseconds.
	InitNs     float64
	TeardownNs float64

	// retagNeeded tracks slots whose tags were discarded.
	retagNeeded map[uint64]bool
}

// NewAllocator returns an allocator with an empty tag store.
func NewAllocator(mte bool) *Allocator {
	return &Allocator{MTE: mte, Tags: NewTagStore(), retagNeeded: make(map[uint64]bool)}
}

// InitInstance prepares a linear memory of size bytes at base with the
// given color, charging the measured costs. Re-initializing a recycled
// slot whose tags survived costs only the base.
func (a *Allocator) InitInstance(base, size uint64, tag uint8) {
	cost := InitBaseNs * float64(size) / 65536
	if a.MTE && (a.retagNeeded[base] || a.Tags.Get(base) != tag) {
		cost += TagNsPerByte * float64(size)
		a.Tags.TagRange(base, size, tag)
		delete(a.retagNeeded, base)
	}
	a.InitNs += cost
}

// TeardownInstance recycles the slot with madvise, charging the tag
// discarding penalty unless the preserving flag is set.
func (a *Allocator) TeardownInstance(base, size uint64) {
	cost := TeardownBaseNs * float64(size) / 65536
	if a.MTE && !a.PreserveTagsOnMadvise {
		cost += TagClearNsPerByte * float64(size)
		a.Tags.ClearRange(base, size)
		a.retagNeeded[base] = true
	}
	a.TeardownNs += cost
}

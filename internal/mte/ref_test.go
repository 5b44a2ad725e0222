package mte

import (
	"math/rand"
	"testing"
)

// refStore is the per-granule map TagStore used to be: one hash entry
// a granule, no chunking, nothing to get wrong. It survives here as the
// reference model the chunked store is checked against.
type refStore struct {
	tags map[uint64]uint8
}

func newRefStore() *refStore { return &refStore{tags: make(map[uint64]uint8)} }

func (r *refStore) Set(addr uint64, tag uint8) { r.tags[addr/GranuleSize] = tag & 0xF }

func (r *refStore) Get(addr uint64) uint8 { return r.tags[addr/GranuleSize] }

func (r *refStore) ClearRange(base, size uint64) {
	for g := base / GranuleSize; g < (base+size+GranuleSize-1)/GranuleSize; g++ {
		delete(r.tags, g)
	}
}

func (r *refStore) TagRange(base, size uint64, tag uint8) {
	for g := base / GranuleSize; g < (base+size+GranuleSize-1)/GranuleSize; g++ {
		r.tags[g] = tag & 0xF
	}
}

// Check is TagStore.Check's loop over the reference's Get.
func (r *refStore) Check(ptr, size uint64) *TagFault {
	tag := PointerTag(ptr)
	addr := ptr &^ (uint64(0xF) << 60)
	for a := addr; a < addr+size; a += GranuleSize {
		if got := r.Get(a); got != tag {
			return &TagFault{Addr: a, Expected: tag, Actual: got}
		}
	}
	if size > 0 {
		last := addr + size - 1
		if got := r.Get(last); got != tag {
			return &TagFault{Addr: last, Expected: tag, Actual: got}
		}
	}
	return nil
}

const chunkBytes = chunkGranules * GranuleSize

// TestTagStoreAgainstReference drives the chunked store and the
// per-granule reference with the same seeded operations — unaligned
// ranges that straddle chunk boundaries, whole-chunk fills, partial
// clears that empty a chunk, tag-0 writes — and requires every Get and
// Check to agree, then sweeps the whole arena granule by granule.
func TestTagStoreAgainstReference(t *testing.T) {
	const (
		arena = 24 * chunkBytes      // where ranges start
		limit = arena + 6*chunkBytes // past the longest range's end
	)
	for seed := int64(1); seed <= 8; seed++ {
		rng := rand.New(rand.NewSource(seed))
		ts, ref := NewTagStore(), newRefStore()
		// Ranges start anywhere, and their sizes cluster around the
		// interesting lengths: inside one chunk, exactly a chunk, a few.
		span := func() (base, size uint64) {
			base = uint64(rng.Intn(arena))
			switch rng.Intn(4) {
			case 0:
				size = uint64(rng.Intn(3 * GranuleSize))
			case 1:
				size = uint64(rng.Intn(chunkBytes))
			case 2:
				base = base / chunkBytes * chunkBytes
				size = chunkBytes * uint64(1+rng.Intn(3))
			default:
				size = uint64(rng.Intn(5 * chunkBytes))
			}
			return base, size
		}
		for op := 0; op < 4000; op++ {
			switch rng.Intn(6) {
			case 0:
				addr, tag := uint64(rng.Intn(arena)), uint8(rng.Intn(32)) // tags above 15 get masked
				ts.Set(addr, tag)
				ref.Set(addr, tag)
			case 1:
				base, size := span()
				tag := uint8(rng.Intn(17)) // 0 and 16 both write tag 0
				ts.TagRange(base, size, tag)
				ref.TagRange(base, size, tag)
			case 2:
				base, size := span()
				ts.ClearRange(base, size)
				ref.ClearRange(base, size)
			case 3:
				addr := uint64(rng.Intn(limit))
				if got, want := ts.Get(addr), ref.Get(addr); got != want {
					t.Fatalf("seed %d op %d: Get(%#x) = %d, reference %d", seed, op, addr, got, want)
				}
			default:
				base, size := span()
				ptr := WithTag(base, ref.Get(base))
				err := ts.Check(ptr, size)
				want := ref.Check(ptr, size)
				switch {
				case (err == nil) != (want == nil):
					t.Fatalf("seed %d op %d: Check(%#x, %d) = %v, reference %v", seed, op, ptr, size, err, want)
				case want != nil && *err.(*TagFault) != *want:
					t.Fatalf("seed %d op %d: Check(%#x, %d) = %v, reference %v", seed, op, ptr, size, err, want)
				}
			}
		}
		for addr := uint64(0); addr < limit; addr += GranuleSize {
			if got, want := ts.Get(addr), ref.Get(addr); got != want {
				t.Fatalf("seed %d sweep: Get(%#x) = %d, reference %d", seed, addr, got, want)
			}
		}
		// The store's own accounting: a chunk's count is its non-zero
		// tags, and a chunk with none is gone.
		for ci, c := range ts.chunks {
			n := 0
			for _, tag := range c.tags {
				if tag != 0 {
					n++
				}
			}
			if n != c.set || n == 0 {
				t.Fatalf("seed %d: chunk %d holds %d tags, counts %d", seed, ci, n, c.set)
			}
		}
		ts.ClearRange(0, limit)
		if len(ts.chunks) != 0 {
			t.Fatalf("seed %d: %d chunks survive a clear of everything", seed, len(ts.chunks))
		}
		for _, c := range ts.free {
			if *c != (chunk{}) {
				t.Fatalf("seed %d: a freed chunk is not zero", seed)
			}
		}
	}
}

// TestClearRangeSparse clears a range far larger than what is tagged —
// a slot recycled at its 4 GiB maximum with 64 KiB in use — and must
// visit the chunks held, not the million the range spans.
func TestClearRangeSparse(t *testing.T) {
	ts := NewTagStore()
	ts.TagRange(1<<32, 64<<10, 7)
	ts.Set(1<<40, 3) // outside the range: must survive
	ts.ClearRange(1<<32, 4<<30)
	if len(ts.chunks) != 1 || ts.Get(1<<40) != 3 || ts.Get(1<<32) != 0 {
		t.Fatalf("after clear: %d chunks, Get = %d / %d", len(ts.chunks), ts.Get(1<<40), ts.Get(1<<32))
	}
}

// BenchmarkTagRangeClear is one MTE slot turnover: tag a 64 KiB linear
// memory, then discard the tags of the slot's 128 KiB reservation.
func BenchmarkTagRangeClear(b *testing.B) {
	ts := NewTagStore()
	const base = 1 << 32
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		ts.TagRange(base, 64<<10, 5)
		ts.ClearRange(base, 128<<10)
	}
}

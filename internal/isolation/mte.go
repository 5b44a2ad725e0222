package isolation

import (
	"repro/internal/mte"
)

// mteBackend is ColorGuard-MTE (§7): slots are colored by tagging every
// 16-byte granule rather than by PTE keys. Tagging is user-level and
// moves at most two granules per instruction, so applying a color is
// paid per byte (observation 1); madvise(MADV_DONTNEED) discards tags,
// so recycling either pays a per-byte teardown and forces a re-tag on
// reuse, or — with the proposed tag-preserving madvise
// (Config.PreserveTagsOnMadvise) — behaves like MPK (observation 2).
type mteBackend struct {
	slab
	tags *mte.TagStore

	// tagged and retag track which slots currently hold their color:
	// never-tagged and discarded slots must be (re)tagged on Allocate.
	tagged map[int]bool
	retag  map[int]bool
}

func newMTE() *mteBackend {
	b := &mteBackend{
		tags:   mte.NewTagStore(),
		tagged: make(map[int]bool),
		retag:  make(map[int]bool),
	}
	b.slab.kind = MTE
	return b
}

// TagForSlot returns the MTE tag of slot i: colors cycle through the 15
// non-zero tags, mirroring the MPK striping pattern in tag space.
func TagForSlot(i int) uint8 { return uint8(1 + i%15) }

// Tags exposes the granule tag store (for tests and trap checking).
func (b *mteBackend) Tags() *mte.TagStore { return b.tags }

func (b *mteBackend) Allocate(initialBytes uint64) (Slot, error) {
	if b.p == nil {
		return Slot{}, ErrNotReserved
	}
	// Peek whether the slot we are about to take needs (re)tagging; the
	// pool hands out slots LIFO, but the coloring state is per-index,
	// so decide after the pool picks.
	ps, err := b.p.Allocate(initialBytes)
	if err != nil {
		return Slot{}, err
	}
	sl := Slot{Index: ps.Index, Addr: ps.Addr, MaxBytes: ps.MaxBytes, Tag: TagForSlot(ps.Index)}
	recolor := !b.tagged[sl.Index] || b.retag[sl.Index]
	if recolor && initialBytes > 0 {
		b.tags.TagRange(sl.Addr, initialBytes, sl.Tag)
	}
	if recolor {
		b.tagged[sl.Index] = true
		delete(b.retag, sl.Index)
	}
	b.initNs += b.life.InitNs(initialBytes, recolor)
	b.ctrAlloc.Inc()
	if recolor {
		b.ctrColor.Inc()
	}
	return sl, nil
}

// Grow opens more of the slot and maintains the coloring invariant:
// every open granule carries the slot's tag (tagging is idempotent, so
// re-tagging the prefix is harmless and no extra cost is charged for
// already-tagged granules — the bookkeeping charges the tagged prefix
// once, in Allocate).
func (b *mteBackend) Grow(s Slot, upTo uint64) error {
	if err := b.slab.Grow(s, upTo); err != nil {
		return err
	}
	if upTo > 0 {
		b.tags.TagRange(s.Addr, upTo, s.Tag)
	}
	return nil
}

func (b *mteBackend) Recycle(s Slot) error {
	if b.p == nil {
		return ErrNotReserved
	}
	if err := b.p.Free(poolSlot(s)); err != nil {
		return err
	}
	b.teardownNs += b.life.TeardownNs(s.MaxBytes)
	b.ctrRecycle.Inc()
	if b.life.RecolorOnReuse {
		// madvise discarded the tags with the pages.
		b.tags.ClearRange(s.Addr, s.MaxBytes)
		b.retag[s.Index] = true
	}
	return nil
}

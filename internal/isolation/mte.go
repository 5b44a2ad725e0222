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
}

func newMTE() *mteBackend {
	return &mteBackend{slab: slab{kind: MTE}, tags: mte.NewTagStore()}
}

// TagForSlot returns the MTE tag of slot i: colors cycle through the 15
// non-zero tags, mirroring the MPK striping pattern in tag space.
func TagForSlot(i int) uint8 { return uint8(1 + i%15) }

// Tags exposes the granule tag store (for tests and trap checking).
func (b *mteBackend) Tags() *mte.TagStore { return b.tags }

// Allocate tags the opened prefix when the slab charged a (re)coloring:
// on a slot's first use, and on reuse after a discarding recycle.
func (b *mteBackend) Allocate(initialBytes uint64) (Slot, error) {
	sl, recolor, err := b.allocate(initialBytes)
	if err == nil && recolor && initialBytes > 0 {
		b.tags.TagRange(sl.Addr, initialBytes, sl.Tag)
	}
	return sl, err
}

// Grow opens more of the slot and maintains the coloring invariant:
// every open granule carries the slot's tag (tagging is idempotent, so
// re-tagging the prefix is harmless and no extra cost is charged for
// already-tagged granules — the bookkeeping charges the tagged prefix
// once, in Allocate).
func (b *mteBackend) Grow(s Slot, upTo uint64) error {
	sl, err := b.grow(s.Index, upTo)
	if err == nil && upTo > 0 {
		b.tags.TagRange(sl.Addr, upTo, sl.Tag)
	}
	return err
}

// Recycle drops the slot's tags with its pages unless madvise preserves
// them.
func (b *mteBackend) Recycle(s Slot) error {
	sl, err := b.recycle(s.Index)
	if err == nil && b.life.RecolorOnReuse {
		b.tags.ClearRange(sl.Addr, sl.MaxBytes)
	}
	return err
}

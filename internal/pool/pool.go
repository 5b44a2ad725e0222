package pool

import (
	"fmt"

	"repro/internal/mem"
)

// Slot describes an allocated pool slot: where the instance's linear
// memory lives and which MPK color protects it.
type Slot struct {
	Index    int
	Addr     uint64
	Pkey     uint8
	MaxBytes uint64
}

// Pool is the live allocator: a slab reservation inside an address
// space, a free list of slots, and the striping pattern.
type Pool struct {
	AS     *mem.AS
	Layout Layout
	Base   uint64

	free  []int
	inUse map[int]bool
}

// New reserves the slab for cfg inside as and prepares the free list.
// The whole slab is PROT_NONE until slots are allocated; striping
// colors are applied lazily per slot (matching how pkey_mprotect is
// used together with madvise-based recycling: colors persist across
// instance reuse, §7).
func New(as *mem.AS, cfg Config) (*Pool, error) {
	l, err := ComputeLayout(cfg)
	if err != nil {
		return nil, err
	}
	base, err := as.MmapAnywhere(l.TotalSlabBytes, mem.ProtNone)
	if err != nil {
		return nil, fmt.Errorf("pool: reserving slab: %w", err)
	}
	p := &Pool{AS: as, Layout: l, Base: base, inUse: make(map[int]bool)}
	for i := l.NumSlots - 1; i >= 0; i-- {
		p.free = append(p.free, i)
	}
	return p, nil
}

// Capacity returns the total slot count.
func (p *Pool) Capacity() int { return p.Layout.NumSlots }

// Available returns the number of free slots.
func (p *Pool) Available() int { return len(p.free) }

// SlotAddr returns the base address of slot i.
func (p *Pool) SlotAddr(i int) uint64 {
	return p.Base + p.Layout.PreSlabGuardBytes + uint64(i)*p.Layout.SlotBytes
}

// KeyForSlot returns the MPK color of slot i under the pool's striping.
func (p *Pool) KeyForSlot(i int) uint8 {
	return keyForSlot(i, p.Layout.NumStripes)
}

// ErrExhausted is returned when no slots are free.
var ErrExhausted = fmt.Errorf("pool: no free slots")

// ErrDoubleFree is returned by Free for a slot that is not allocated:
// pushing it onto the free list again would hand the same slot to two
// instances and corrupt the striping safety argument.
var ErrDoubleFree = fmt.Errorf("pool: slot is not allocated (double free)")

// Allocate takes a free slot, opens initialBytes of it read-write with
// the slot's stripe color, and returns its descriptor.
func (p *Pool) Allocate(initialBytes uint64) (Slot, error) {
	if len(p.free) == 0 {
		return Slot{}, ErrExhausted
	}
	i := p.free[len(p.free)-1]
	p.free = p.free[:len(p.free)-1]
	p.inUse[i] = true

	s := Slot{
		Index:    i,
		Addr:     p.SlotAddr(i),
		Pkey:     p.KeyForSlot(i),
		MaxBytes: p.Layout.MaxMemoryBytes,
	}
	if initialBytes > 0 {
		n := alignUp(initialBytes, OSPageSize)
		if n > p.Layout.MaxMemoryBytes {
			_ = p.Free(s)
			return Slot{}, fmt.Errorf("pool: initial size %d exceeds slot maximum %d", initialBytes, p.Layout.MaxMemoryBytes)
		}
		var err error
		if s.Pkey != 0 {
			err = p.AS.PkeyMprotect(s.Addr, n, mem.ProtRead|mem.ProtWrite, s.Pkey)
		} else {
			err = p.AS.Mprotect(s.Addr, n, mem.ProtRead|mem.ProtWrite)
		}
		if err != nil {
			_ = p.Free(s)
			return Slot{}, fmt.Errorf("pool: opening slot %d: %w", i, err)
		}
	}
	return s, nil
}

// Grow opens more of an allocated slot, up to its maximum.
func (p *Pool) Grow(s Slot, upTo uint64) error {
	if upTo > s.MaxBytes {
		return fmt.Errorf("pool: grow beyond slot maximum")
	}
	n := alignUp(upTo, OSPageSize)
	if s.Pkey != 0 {
		return p.AS.PkeyMprotect(s.Addr, n, mem.ProtRead|mem.ProtWrite, s.Pkey)
	}
	return p.AS.Mprotect(s.Addr, n, mem.ProtRead|mem.ProtWrite)
}

// Free recycles a slot: its contents are discarded with
// madvise(MADV_DONTNEED) — keeping both the mapping and the MPK color,
// so reuse needs no re-striping (the MPK advantage over MTE, §7).
// Freeing a slot that is not allocated returns ErrDoubleFree and leaves
// the free list untouched.
func (p *Pool) Free(s Slot) error {
	if s.Index < 0 || s.Index >= p.Layout.NumSlots || !p.inUse[s.Index] {
		return fmt.Errorf("%w: slot %d", ErrDoubleFree, s.Index)
	}
	delete(p.inUse, s.Index)
	// Discard any touched pages.
	_ = p.AS.MadviseDontneed(s.Addr, alignUp(s.MaxBytes, OSPageSize))
	p.free = append(p.free, s.Index)
	return nil
}

// CheckIsolation validates the striping safety property: same-colored
// slots are at least the guard requirement apart, and the final slot is
// protected by the post-slab guard. Small pools are checked
// exhaustively; large pools use the analytic form (slots are uniformly
// spaced, so the nearest same-color pair determines the bound).
func (p *Pool) CheckIsolation() error {
	l := p.Layout
	if l.NumSlots <= 4096 {
		addrs := make([]uint64, l.NumSlots)
		for i := range addrs {
			addrs[i] = p.SlotAddr(i)
		}
		if err := checkStriping(addrs, l.MaxMemoryBytes, l.GuardBytes, p.KeyForSlot); err != nil {
			return err
		}
	} else if l.NumStripes > 1 {
		gap := uint64(l.NumStripes)*l.SlotBytes - l.MaxMemoryBytes
		if gap < l.GuardBytes {
			return fmt.Errorf("pool: same-color gap %d below guard requirement %d", gap, l.GuardBytes)
		}
	}
	if l.PostSlabGuardBytes < l.GuardBytes {
		return fmt.Errorf("pool: post-slab guard %d below requirement %d", l.PostSlabGuardBytes, l.GuardBytes)
	}
	return nil
}

package isolation

import (
	"errors"
	"fmt"

	"repro/internal/mem"
	"repro/internal/pool"
	"repro/internal/telemetry"
)

// Backend state and slot-table errors.
var (
	ErrNotReserved = errors.New("isolation: backend has no reservation (call Reserve first)")
	ErrReserved    = errors.New("isolation: backend already reserved")

	// ErrExhausted is returned by Allocate when no slot is free.
	ErrExhausted = errors.New("isolation: no free slots")

	// ErrDoubleFree is returned by Recycle and Grow for a slot index
	// that is out of range or not allocated: recycling it again would
	// hand the same slot to two instances and break the striping safety
	// argument.
	ErrDoubleFree = errors.New("isolation: slot is not allocated (double free)")
)

// Slot state bits, one byte per slot in slab.state.
const (
	slotInUse uint8 = 1 << iota
	// slotColored: the slot still holds the color an allocation applied.
	// A recycle that discards colors (LifecycleCost.RecolorOnReuse)
	// clears it, so the next allocation pays the coloring again.
	slotColored
)

// slab is the shared pooled implementation behind every backend: the
// slab reservation of a pool.Layout, the one slot table, the kind's
// lifecycle cost model and the accumulated lifecycle accounting. Every
// kind is a bare slab: what tells them apart is computed from a slot's
// index and priced by LifecycleFor.
//
// The table is the only slot state. Slots below next have been
// allocated at least once and have a state byte; slots from next on
// were never used. Allocate pops the most recently recycled slot, and
// otherwise takes next, so slots go out in index order first and LIFO
// after — and Reserve costs the same host memory whatever the slot
// count. Everything else about a slot (address, stripe key, process)
// is computed from its index, and Grow and Recycle trust only the index
// of the Slot they are handed.
type slab struct {
	kind  Kind
	as    *mem.AS
	life  LifecycleCost
	procs int // slots are dealt across procs processes (MultiProc), else 1

	layout   pool.Layout // zero until Reserve and after Release
	base     uint64
	next     int
	recycled []int
	state    []uint8

	initNs     float64
	teardownNs float64

	// Lifecycle telemetry (isolation.<kind>.allocates/.recycles/.grows,
	// and .colors for the two kinds that color slots), bound by Reserve;
	// .colors counts allocations that applied a color (an MPK key, or
	// MTE tags the slot did not still hold). Lifecycle events are
	// per-instance, not per-instruction, so the single atomic add per
	// event is paid unconditionally.
	ctrAlloc   *telemetry.Counter
	ctrRecycle *telemetry.Counter
	ctrGrow    *telemetry.Counter
	ctrColor   *telemetry.Counter
}

func (s *slab) Kind() Kind { return s.kind }

// reserved reports whether the slab holds a reservation; every
// computed layout has at least one slot.
func (s *slab) reserved() bool { return s.layout.NumSlots > 0 }

func (s *slab) Reserve(as *mem.AS, cfg Config) error {
	if s.reserved() {
		return ErrReserved
	}
	l, err := PlanLayout(s.kind, cfg)
	if err != nil {
		return fmt.Errorf("isolation: %s: %w", s.kind, err)
	}
	base, err := as.MmapAnywhere(l.TotalSlabBytes, mem.ProtNone)
	if err != nil {
		return fmt.Errorf("isolation: %s: reserving slab: %w", s.kind, err)
	}
	s.as, s.layout, s.base = as, l, base
	s.procs = 1
	if s.kind == MultiProc && cfg.Processes > 0 {
		s.procs = cfg.Processes
	}
	s.life = LifecycleFor(s.kind, cfg.PreserveTagsOnMadvise)
	pfx := "isolation." + string(s.kind)
	s.ctrAlloc = telemetry.Default.Counter(pfx + ".allocates")
	s.ctrRecycle = telemetry.Default.Counter(pfx + ".recycles")
	s.ctrGrow = telemetry.Default.Counter(pfx + ".grows")
	if s.kind == ColorGuard || s.kind == MTE {
		s.ctrColor = telemetry.Default.Counter(pfx + ".colors")
	}
	return nil
}

// slot returns the descriptor of slot i, computed from its index.
func (s *slab) slot(i int) Slot {
	return Slot{
		Index:    i,
		Addr:     s.base + s.layout.SlotOffset(i),
		Pkey:     s.layout.KeyForSlot(i),
		Proc:     i % s.procs,
		MaxBytes: s.layout.MaxMemoryBytes,
	}
}

// lookup returns the descriptor of allocated slot i, or ErrDoubleFree
// when i is out of range or not in use.
func (s *slab) lookup(i int) (Slot, error) {
	if !s.reserved() {
		return Slot{}, ErrNotReserved
	}
	if i < 0 || i >= s.next || s.state[i]&slotInUse == 0 {
		return Slot{}, fmt.Errorf("%w: slot %d", ErrDoubleFree, i)
	}
	return s.slot(i), nil
}

// open makes the first bytes of sl read-write under its stripe color.
func (s *slab) open(sl Slot, bytes uint64) error {
	if bytes > sl.MaxBytes {
		return fmt.Errorf("isolation: %d bytes exceed slot maximum %d", bytes, sl.MaxBytes)
	}
	n := (bytes + pool.OSPageSize - 1) &^ (pool.OSPageSize - 1)
	var err error
	if sl.Pkey != 0 {
		err = s.as.PkeyMprotect(sl.Addr, n, mem.ProtRead|mem.ProtWrite, sl.Pkey)
	} else {
		err = s.as.Mprotect(sl.Addr, n, mem.ProtRead|mem.ProtWrite)
	}
	if err != nil {
		return fmt.Errorf("isolation: opening slot %d: %w", sl.Index, err)
	}
	return nil
}

// Allocate takes the next free slot, opens initialBytes of it and
// charges the lifecycle init cost, with the coloring term when the kind
// stores colors in memory and the slot does not hold its color. On
// error the table is unchanged.
func (s *slab) Allocate(initialBytes uint64) (Slot, error) {
	if !s.reserved() {
		return Slot{}, ErrNotReserved
	}
	i, fresh := s.next, true
	if n := len(s.recycled); n > 0 {
		i, fresh = s.recycled[n-1], false
	} else if i == s.layout.NumSlots {
		return Slot{}, ErrExhausted
	}
	sl := s.slot(i)
	if initialBytes > 0 {
		if err := s.open(sl, initialBytes); err != nil {
			return Slot{}, err
		}
	}
	if fresh {
		s.next++
		s.state = append(s.state, 0)
	} else {
		s.recycled = s.recycled[:len(s.recycled)-1]
	}
	recolor := s.state[i]&slotColored == 0 && s.life.ColorNsPerByte > 0
	s.state[i] = slotInUse | slotColored
	s.initNs += s.life.InitNs(initialBytes, recolor)
	s.ctrAlloc.Inc()
	if s.ctrColor != nil && (recolor || sl.Pkey != 0) {
		s.ctrColor.Inc()
	}
	return sl, nil
}

// Grow opens the first upTo bytes of allocated slot sl.Index.
func (s *slab) Grow(sl Slot, upTo uint64) error {
	sl, err := s.lookup(sl.Index)
	if err != nil {
		return err
	}
	if err := s.open(sl, upTo); err != nil {
		return err
	}
	s.ctrGrow.Inc()
	return nil
}

// Recycle discards the contents of allocated slot sl.Index with madvise
// — keeping the mapping and any MPK color — pushes it on the recycled
// stack and charges the lifecycle teardown cost.
func (s *slab) Recycle(sl Slot) error {
	i := sl.Index
	sl, err := s.lookup(i)
	if err != nil {
		return err
	}
	// The slot is page-aligned and inside the slab mapping, so madvise
	// cannot fail.
	_ = s.as.MadviseDontneed(sl.Addr, sl.MaxBytes)
	s.state[i] &^= slotInUse
	if s.life.RecolorOnReuse {
		s.state[i] &^= slotColored
	}
	s.recycled = append(s.recycled, i)
	s.teardownNs += s.life.TeardownNs(sl.MaxBytes)
	s.ctrRecycle.Inc()
	return nil
}

func (s *slab) Release() error {
	if !s.reserved() {
		return ErrNotReserved
	}
	err := s.as.Munmap(s.base, s.layout.TotalSlabBytes)
	s.layout, s.next, s.recycled, s.state = pool.Layout{}, 0, nil, nil
	return err
}

func (s *slab) AS() *mem.AS { return s.as }

func (s *slab) Layout() pool.Layout { return s.layout }

func (s *slab) Capacity() int { return s.layout.NumSlots }

func (s *slab) Available() int { return s.layout.NumSlots - s.next + len(s.recycled) }

func (s *slab) CheckIsolation() error {
	if !s.reserved() {
		return ErrNotReserved
	}
	return s.layout.CheckIsolation()
}

func (s *slab) LifecycleNs() (initNs, teardownNs float64) {
	return s.initNs, s.teardownNs
}

package isolation

import (
	"errors"
	"fmt"

	"repro/internal/mem"
	"repro/internal/pool"
	"repro/internal/telemetry"
)

// Backend state errors.
var (
	ErrNotReserved = errors.New("isolation: backend has no reservation (call Reserve first)")
	ErrReserved    = errors.New("isolation: backend already reserved")
)

// slab is the shared pooled implementation behind every backend: a
// pool.Pool slab reservation plus the kind's lifecycle cost model and
// the accumulated lifecycle accounting. Guard pages and ColorGuard are a
// bare slab; MTE and multiproc embed it and override the lifecycle steps
// their mechanism changes.
type slab struct {
	kind Kind
	as   *mem.AS
	p    *pool.Pool
	life LifecycleCost

	initNs     float64
	teardownNs float64

	// Lifecycle telemetry (isolation.<kind>.allocates/.recycles/.grows/
	// .colors), bound by Reserve; .colors counts allocations that
	// applied a color (an MPK key or fresh MTE tags). Lifecycle events
	// are per-instance, not per-instruction, so the single atomic add per
	// event is paid unconditionally. Nil only before Reserve, and every
	// count site is behind the s.p != nil check.
	ctrAlloc   *telemetry.Counter
	ctrRecycle *telemetry.Counter
	ctrGrow    *telemetry.Counter
	ctrColor   *telemetry.Counter
}

func (s *slab) Kind() Kind { return s.kind }

func (s *slab) Reserve(as *mem.AS, cfg Config) error {
	if s.p != nil {
		return ErrReserved
	}
	p, err := pool.New(as, poolConfig(s.kind, cfg))
	if err != nil {
		return fmt.Errorf("isolation: %s: %w", s.kind, err)
	}
	s.as, s.p = as, p
	s.life = LifecycleFor(s.kind, cfg.PreserveTagsOnMadvise)
	pfx := "isolation." + string(s.kind)
	s.ctrAlloc = telemetry.Default.Counter(pfx + ".allocates")
	s.ctrRecycle = telemetry.Default.Counter(pfx + ".recycles")
	s.ctrGrow = telemetry.Default.Counter(pfx + ".grows")
	s.ctrColor = telemetry.Default.Counter(pfx + ".colors")
	return nil
}

// allocate is the shared slot-taking step; recolor selects the
// lifecycle coloring charge (backends that color memory pass true on
// first use and after discarding recycles).
func (s *slab) allocate(initialBytes uint64, recolor bool) (Slot, error) {
	if s.p == nil {
		return Slot{}, ErrNotReserved
	}
	ps, err := s.p.Allocate(initialBytes)
	if err != nil {
		return Slot{}, err
	}
	s.initNs += s.life.InitNs(initialBytes, recolor)
	s.ctrAlloc.Inc()
	if recolor || ps.Pkey != 0 {
		s.ctrColor.Inc()
	}
	return Slot{Index: ps.Index, Addr: ps.Addr, Pkey: ps.Pkey, MaxBytes: ps.MaxBytes}, nil
}

func (s *slab) Allocate(initialBytes uint64) (Slot, error) {
	return s.allocate(initialBytes, false)
}

func (s *slab) Grow(sl Slot, upTo uint64) error {
	if s.p == nil {
		return ErrNotReserved
	}
	if err := s.p.Grow(poolSlot(sl), upTo); err != nil {
		return err
	}
	s.ctrGrow.Inc()
	return nil
}

func (s *slab) Recycle(sl Slot) error {
	if s.p == nil {
		return ErrNotReserved
	}
	if err := s.p.Free(poolSlot(sl)); err != nil {
		return err
	}
	s.teardownNs += s.life.TeardownNs(sl.MaxBytes)
	s.ctrRecycle.Inc()
	return nil
}

func (s *slab) Release() error {
	if s.p == nil {
		return ErrNotReserved
	}
	err := s.as.Munmap(s.p.Base, s.p.Layout.TotalSlabBytes)
	s.p = nil
	return err
}

func (s *slab) AS() *mem.AS { return s.as }

func (s *slab) Layout() pool.Layout {
	if s.p == nil {
		return pool.Layout{}
	}
	return s.p.Layout
}

func (s *slab) Capacity() int {
	if s.p == nil {
		return 0
	}
	return s.p.Capacity()
}

func (s *slab) Available() int {
	if s.p == nil {
		return 0
	}
	return s.p.Available()
}

func (s *slab) CheckIsolation() error {
	if s.p == nil {
		return ErrNotReserved
	}
	return s.p.CheckIsolation()
}

func (s *slab) LifecycleNs() (initNs, teardownNs float64) {
	return s.initNs, s.teardownNs
}

func poolSlot(sl Slot) pool.Slot {
	return pool.Slot{Index: sl.Index, Addr: sl.Addr, Pkey: sl.Pkey, MaxBytes: sl.MaxBytes}
}

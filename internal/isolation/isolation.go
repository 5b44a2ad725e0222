// Package isolation is the unified isolation-backend layer: one slot
// lifecycle (Reserve → Allocate → Recycle → Release) shared by every
// mechanism the paper compares — guard-page SFI, ColorGuard's MPK page
// striping (§3.2, §5.1), ColorGuard-MTE granule tagging (§7), and
// classic N-process scaling (§6.4.3) — plus the transition- and
// lifecycle-cost models those mechanisms differ on.
//
// The point of the abstraction is that the paper's central comparison
// is exactly an axis of this package: every backend places instances
// into slots the same way, but each Kind pays different costs to cross
// the isolation boundary (TransitionForScheme) and to initialize or
// recycle a slot (LifecycleFor). Those two functions are the only
// pricing path: the runtime (internal/rt), the FaaS simulator
// (internal/faas), and the experiments (internal/exp) all price a Kind
// through them, so the §6.4 tables and the §7 MTE numbers come from one
// code path. Adding a new mechanism (CHERI-style capabilities, a
// Segue-off ablation) is one new Kind, one Backend, and its cases in
// the two pricing functions.
package isolation

import (
	"fmt"

	"repro/internal/mem"
	"repro/internal/mte"
	"repro/internal/pool"
)

// Kind names an isolation backend.
type Kind string

// The four backends of the paper's comparison.
const (
	// GuardPage is classic guard-region SFI: slots are separated by
	// dead PROT_NONE address space sized to the guard requirement.
	GuardPage Kind = "guardpage"

	// ColorGuard stripes slots with MPK protection keys so guard space
	// is reclaimed as differently-colored neighbor slots (§3.2).
	ColorGuard Kind = "colorguard"

	// MTE colors 16-byte granules with ARM memory-tagging tags instead
	// of coloring pages with PTE keys (§7).
	MTE Kind = "mte"

	// MultiProc is the strategy ColorGuard replaces: one OS process per
	// isolation domain, paying context-switch and cache/TLB refill
	// costs at every domain crossing (§6.4.3).
	MultiProc Kind = "multiproc"
)

// Kinds returns every backend kind, in the paper's comparison order.
func Kinds() []Kind { return []Kind{GuardPage, ColorGuard, MTE, MultiProc} }

// Config describes the slot geometry a backend manages. It mirrors the
// pooling allocator's parameters (§5.1) plus the per-mechanism options.
type Config struct {
	// Slots is the slot count; 0 fills TotalBytes.
	Slots int

	// MaxMemoryBytes is the largest linear memory a slot must hold.
	MaxMemoryBytes uint64

	// GuardBytes is the guard requirement between a sandbox and the
	// next region it must never reach.
	GuardBytes uint64

	// PreGuardBytes reserves a shared pre-guard before the first slot
	// (the signed-offset scheme).
	PreGuardBytes uint64

	// TotalBytes caps the slab reservation; required when Slots is 0.
	TotalBytes uint64

	// Keys is the number of MPK keys available (ColorGuard only).
	Keys int

	// Processes is the process count (MultiProc only); slots are dealt
	// round-robin across processes.
	Processes int

	// PreserveTagsOnMadvise selects §7's proposed fix (MTE only): an
	// madvise flag that leaves granule tags invariant, making recycling
	// as cheap as under MPK.
	PreserveTagsOnMadvise bool
}

// Slot is one allocated isolation domain: where the instance's linear
// memory lives and how the backend marks it. Exactly one of Pkey/Tag is
// meaningful per backend; Proc identifies the owning OS process under
// MultiProc.
type Slot struct {
	Index    int
	Addr     uint64
	Pkey     uint8 // MPK color (ColorGuard)
	Tag      uint8 // MTE granule tag (MTE)
	Proc     int   // owning process (MultiProc)
	MaxBytes uint64
}

// TransitionCost is the per-boundary-crossing cost model (§6.4.1,
// §6.4.3): what entering and leaving an isolation domain costs at user
// level, and what switching between domains costs when domains are OS
// processes.
type TransitionCost struct {
	// EnterNs/LeaveNs is the user-level sandbox transition cost each
	// way: stack switch, ABI adjustment, exception-handler setup, plus
	// the PKRU write under ColorGuard.
	EnterNs float64
	LeaveNs float64

	// SwitchNs/RefillNs is the cost of moving the core between two
	// domains that are separate OS processes: the direct kernel
	// context-switch cost and the L1/L2 warmup the displaced working
	// set causes (Figure 7). Zero for same-process backends.
	SwitchNs float64
	RefillNs float64

	// FlushTLB reports whether a domain switch flushes the dTLB
	// (process switches do; user-level transitions keep it warm).
	FlushTLB bool
}

// RoundTripNs is the enter+leave cost of one sandbox invocation.
func (t TransitionCost) RoundTripNs() float64 { return t.EnterNs + t.LeaveNs }

// LifecycleCost is the per-slot init/recycle cost model (§7): a base
// cost proportional to the memory size, plus per-byte coloring terms
// where the mechanism stores colors in memory rather than PTEs.
type LifecycleCost struct {
	// InitBaseNs is the mmap+zero cost per 64 KiB of linear memory.
	InitBaseNs float64

	// ColorNsPerByte is the extra per-byte cost of applying the
	// backend's coloring to fresh memory (MTE's user-level tagging;
	// zero for PTE-based coloring, which piggybacks on mprotect).
	ColorNsPerByte float64

	// TeardownBaseNs is the madvise(MADV_DONTNEED) cost per 64 KiB.
	TeardownBaseNs float64

	// DecolorNsPerByte is the extra per-byte teardown cost where
	// recycling discards the coloring (MTE without the tag-preserving
	// madvise).
	DecolorNsPerByte float64

	// RecolorOnReuse reports whether a recycled slot must be recolored
	// before reuse (MTE without the fix; MPK colors live in PTEs and
	// survive madvise).
	RecolorOnReuse bool
}

// InitNs returns the cost of initializing bytes of slot memory; recolor
// selects the coloring term (first use, or reuse after a discarding
// recycle).
func (l LifecycleCost) InitNs(bytes uint64, recolor bool) float64 {
	cost := l.InitBaseNs * float64(bytes) / 65536
	if recolor {
		cost += l.ColorNsPerByte * float64(bytes)
	}
	return cost
}

// TeardownNs returns the cost of recycling bytes of slot memory.
func (l LifecycleCost) TeardownNs(bytes uint64) float64 {
	return l.TeardownBaseNs*float64(bytes)/65536 + l.DecolorNsPerByte*float64(bytes)
}

// Measured cost constants shared by the backends' models: the §6.4.1
// transition measurements at 2.2 GHz and the standard Linux same-core
// context-switch figures behind Figure 7.
const (
	// TransitionNs is one sandbox transition without ColorGuard.
	TransitionNs = 30.34
	// CtxSwitchNs is the direct kernel process-switch cost.
	CtxSwitchNs = 3500.0
	// CacheRefillNs models the post-switch L1/L2 warmup (a 48 KiB L1
	// alone is ~750 lines), the "resource contention" of Figure 7.
	CacheRefillNs = 3200.0
)

// LifecycleFor returns the lifecycle cost model of a backend kind. The
// base terms are the §7 measurements for mmap+zero and madvise; only
// MTE adds coloring terms, and only without the tag-preserving madvise
// does recycling discard the colors.
func LifecycleFor(kind Kind, preserveTags bool) LifecycleCost {
	lc := LifecycleCost{InitBaseNs: mte.InitBaseNs, TeardownBaseNs: mte.TeardownBaseNs}
	if kind == MTE {
		lc.ColorNsPerByte = mte.TagNsPerByte
		if !preserveTags {
			lc.DecolorNsPerByte = mte.TagClearNsPerByte
			lc.RecolorOnReuse = true
		}
	}
	return lc
}

// Backend is the unified slot lifecycle every isolation mechanism
// implements. A backend is created empty (New), bound to an address
// space and geometry once (Reserve), then hands out slots (Allocate),
// takes them back for reuse (Recycle), and finally tears the slab
// down (Release). A backend prices nothing itself beyond the lifecycle
// time it accumulates: its Kind is the key into TransitionForScheme and
// LifecycleFor.
type Backend interface {
	// Kind identifies the mechanism.
	Kind() Kind

	// Reserve maps the slab into as under cfg and starts an empty slot
	// table. Must be called exactly once before any allocation.
	Reserve(as *mem.AS, cfg Config) error

	// Allocate takes a free slot, opens initialBytes of it read-write
	// with the backend's coloring applied, and charges the lifecycle
	// init cost (including recoloring when a prior recycle discarded
	// the colors).
	Allocate(initialBytes uint64) (Slot, error)

	// Grow opens more of an allocated slot, up to its maximum. Only
	// s.Index is read; an index that is not allocated is ErrDoubleFree.
	Grow(s Slot, upTo uint64) error

	// Recycle makes a slot free again, discarding contents with madvise
	// and charging the lifecycle teardown cost. Only s.Index is read; an
	// index that is not allocated is ErrDoubleFree.
	Recycle(s Slot) error

	// Release unmaps the whole slab.
	Release() error

	// AS returns the address space the slab lives in.
	AS() *mem.AS

	// Layout returns the computed slab geometry.
	Layout() pool.Layout

	// Capacity and Available return total and free slot counts.
	Capacity() int
	Available() int

	// CheckIsolation validates the backend's safety property on the
	// concrete slot layout (striping distances, guard coverage).
	CheckIsolation() error

	// LifecycleNs returns the accumulated init and teardown time
	// charged by Allocate and Recycle so far, priced by LifecycleFor.
	LifecycleNs() (initNs, teardownNs float64)
}

// New returns an empty backend of the given kind.
func New(kind Kind) (Backend, error) {
	switch kind {
	case GuardPage, ColorGuard, MultiProc:
		// These differ only in what the slab computes from a slot's
		// index: the pool geometry (poolConfig) with its stripe keys,
		// and the owning process.
		return &slab{kind: kind}, nil
	case MTE:
		return newMTE(), nil
	}
	return nil, fmt.Errorf("isolation: unknown backend kind %q", kind)
}

// NewReserved creates a backend and reserves its slab in one step.
func NewReserved(kind Kind, as *mem.AS, cfg Config) (Backend, error) {
	b, err := New(kind)
	if err != nil {
		return nil, err
	}
	if err := b.Reserve(as, cfg); err != nil {
		return nil, err
	}
	return b, nil
}

// PlanLayout computes the slot layout Reserve would use for a kind,
// without reserving address space — the pure §6.4.2 density math.
func PlanLayout(kind Kind, cfg Config) (pool.Layout, error) {
	return pool.ComputeLayout(poolConfig(kind, cfg))
}

// poolConfig translates an isolation Config into the pooling
// allocator's geometry. Only ColorGuard stripes; every other mechanism
// separates slots with real guard space (MTE colors granules inside the
// slot, processes have disjoint address spaces).
func poolConfig(kind Kind, cfg Config) pool.Config {
	pc := pool.Config{
		NumSlots:       cfg.Slots,
		MaxMemoryBytes: cfg.MaxMemoryBytes,
		GuardBytes:     cfg.GuardBytes,
		PreGuardBytes:  cfg.PreGuardBytes,
		TotalBytes:     cfg.TotalBytes,
	}
	if kind == ColorGuard {
		pc.Keys = cfg.Keys
	}
	return pc
}

// Placement describes where a runtime instance's linear memory lives
// and under which isolation domain it runs. internal/rt consumes this
// instead of raw (AS, base, pkey) triples.
type Placement struct {
	// AS, when non-nil, is the shared address space of a pooled
	// backend; Slot.Addr is then the instance's slot base. Nil means
	// the runtime makes a standalone reservation and applies Slot's
	// coloring to it.
	AS *mem.AS

	// Slot carries the domain marking (color, tag, process).
	Slot Slot

	// Backend, when non-nil, owns the slot: closing the instance
	// recycles through it.
	Backend Backend
}

// Place returns the placement for a slot allocated from b.
func Place(b Backend, s Slot) *Placement {
	return &Placement{AS: b.AS(), Slot: s, Backend: b}
}

// Colored returns a standalone placement carrying an MPK color: the
// runtime reserves its own address space but colors the linear memory
// and restricts PKRU while the instance runs.
func Colored(pkey uint8) *Placement {
	return &Placement{Slot: Slot{Pkey: pkey}}
}

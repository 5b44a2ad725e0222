package isolation

import (
	"errors"
	"math"
	"testing"

	"repro/internal/mem"
	"repro/internal/mte"
	"repro/internal/pool"
)

const testMemBytes = uint64(64 << 10)

func reserved(t *testing.T, kind Kind, cfg Config) Backend {
	t.Helper()
	b, err := NewReserved(kind, mem.NewAS(47), cfg)
	if err != nil {
		t.Fatalf("%s: reserve: %v", kind, err)
	}
	return b
}

func smallConfig() Config {
	return Config{Slots: 8, MaxMemoryBytes: testMemBytes, GuardBytes: 1 << 20, Keys: 4}
}

func TestBackendsImplementLifecycle(t *testing.T) {
	for _, kind := range Kinds() {
		b := reserved(t, kind, smallConfig())
		if b.Kind() != kind {
			t.Fatalf("kind = %s, want %s", b.Kind(), kind)
		}
		if b.Capacity() != 8 || b.Available() != 8 {
			t.Fatalf("%s: capacity/available = %d/%d, want 8/8", kind, b.Capacity(), b.Available())
		}
		s, err := b.Allocate(testMemBytes)
		if err != nil {
			t.Fatalf("%s: allocate: %v", kind, err)
		}
		if s.MaxBytes != testMemBytes {
			t.Fatalf("%s: slot max = %d, want %d", kind, s.MaxBytes, testMemBytes)
		}
		if b.Available() != 7 {
			t.Fatalf("%s: available after allocate = %d, want 7", kind, b.Available())
		}
		// The open region is readable/writable.
		v, ok := b.AS().VMAAt(s.Addr)
		if !ok || v.Prot&(mem.ProtRead|mem.ProtWrite) != (mem.ProtRead|mem.ProtWrite) {
			t.Fatalf("%s: slot not open after allocate (vma %+v ok=%v)", kind, v, ok)
		}
		if err := b.Recycle(s); err != nil {
			t.Fatalf("%s: recycle: %v", kind, err)
		}
		if b.Available() != 8 {
			t.Fatalf("%s: available after recycle = %d, want 8", kind, b.Available())
		}
		if err := b.Release(); err != nil {
			t.Fatalf("%s: release: %v", kind, err)
		}
	}
}

func TestUnreservedBackendErrors(t *testing.T) {
	for _, kind := range Kinds() {
		b, err := New(kind)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := b.Allocate(testMemBytes); !errors.Is(err, ErrNotReserved) {
			t.Fatalf("%s: allocate on empty backend: %v, want ErrNotReserved", kind, err)
		}
		if err := b.Recycle(Slot{}); !errors.Is(err, ErrNotReserved) {
			t.Fatalf("%s: recycle on empty backend: %v, want ErrNotReserved", kind, err)
		}
	}
}

func TestDoubleReserveRejected(t *testing.T) {
	b := reserved(t, GuardPage, smallConfig())
	if err := b.Reserve(mem.NewAS(47), smallConfig()); !errors.Is(err, ErrReserved) {
		t.Fatalf("second reserve: %v, want ErrReserved", err)
	}
}

// TestBackendDoubleRecycle: recycling a slot twice is the pool
// double-free, surfaced through the backend for every kind.
func TestBackendDoubleRecycle(t *testing.T) {
	for _, kind := range Kinds() {
		b := reserved(t, kind, smallConfig())
		s, err := b.Allocate(testMemBytes)
		if err != nil {
			t.Fatal(err)
		}
		if err := b.Recycle(s); err != nil {
			t.Fatal(err)
		}
		if err := b.Recycle(s); !errors.Is(err, pool.ErrDoubleFree) {
			t.Fatalf("%s: second recycle: %v, want ErrDoubleFree", kind, err)
		}
		// The double free must not double the teardown accounting.
		_, teardown := b.LifecycleNs()
		want := LifecycleFor(kind, false).TeardownNs(testMemBytes)
		if teardown != want {
			t.Fatalf("%s: teardown after double recycle = %v, want %v", kind, teardown, want)
		}
	}
}

// TestColorGuardColorsPersist: MPK colors live in PTEs, so a recycled
// and reallocated slot keeps its stripe color without re-striping — the
// §7 advantage over MTE.
func TestColorGuardColorsPersist(t *testing.T) {
	b := reserved(t, ColorGuard, smallConfig())
	s, err := b.Allocate(testMemBytes)
	if err != nil {
		t.Fatal(err)
	}
	if s.Pkey == 0 {
		t.Fatal("colorguard slot has no color")
	}
	v, ok := b.AS().VMAAt(s.Addr)
	if !ok || v.Pkey != s.Pkey {
		t.Fatalf("slot VMA pkey = %d, want %d", v.Pkey, s.Pkey)
	}
	if err := b.Recycle(s); err != nil {
		t.Fatal(err)
	}
	// madvise discards contents but not the mapping or its key.
	v, ok = b.AS().VMAAt(s.Addr)
	if !ok || v.Pkey != s.Pkey {
		t.Fatalf("after recycle, VMA pkey = %d, want %d (colors must survive madvise)", v.Pkey, s.Pkey)
	}
	// LIFO reuse hands back the same slot, same color, and charges no
	// coloring cost (ColorNsPerByte is zero under MPK).
	s2, err := b.Allocate(testMemBytes)
	if err != nil {
		t.Fatal(err)
	}
	if s2.Index != s.Index || s2.Pkey != s.Pkey {
		t.Fatalf("reused slot = (%d, key %d), want (%d, key %d)", s2.Index, s2.Pkey, s.Index, s.Pkey)
	}
	initNs, _ := b.LifecycleNs()
	want := 2 * LifecycleFor(ColorGuard, false).InitNs(testMemBytes, false)
	if initNs != want {
		t.Fatalf("init accounting = %v, want %v (no recoloring charge)", initNs, want)
	}
}

// TestMTERetagsAfterMadvise: without the tag-preserving madvise,
// recycling discards granule tags, and the next allocation of the slot
// pays the full re-tagging cost.
func TestMTERetagsAfterMadvise(t *testing.T) {
	b := reserved(t, MTE, smallConfig())
	mb := b.(*mteBackend)
	s, err := b.Allocate(testMemBytes)
	if err != nil {
		t.Fatal(err)
	}
	if s.Tag == 0 || s.Tag != TagForSlot(s.Index) {
		t.Fatalf("slot tag = %d, want %d", s.Tag, TagForSlot(s.Index))
	}
	if got := mb.Tags().Get(s.Addr); got != s.Tag {
		t.Fatalf("granule tag = %d, want %d", got, s.Tag)
	}
	life := LifecycleFor(MTE, false)
	firstInit := life.InitNs(testMemBytes, true)
	if initNs, _ := b.LifecycleNs(); initNs != firstInit {
		t.Fatalf("first init = %v, want %v (base + tagging)", initNs, firstInit)
	}
	if err := b.Recycle(s); err != nil {
		t.Fatal(err)
	}
	// madvise dropped the tags with the pages.
	if got := mb.Tags().Get(s.Addr); got != 0 {
		t.Fatalf("after recycle, granule tag = %d, want 0 (madvise discards tags)", got)
	}
	if _, teardown := b.LifecycleNs(); teardown != life.TeardownNs(testMemBytes) {
		t.Fatalf("teardown = %v, want %v (includes tag-clearing term)", teardown, life.TeardownNs(testMemBytes))
	}
	// Reuse re-tags and pays for it again.
	s2, err := b.Allocate(testMemBytes)
	if err != nil {
		t.Fatal(err)
	}
	if s2.Index != s.Index {
		t.Fatalf("reused slot = %d, want %d (LIFO)", s2.Index, s.Index)
	}
	if got := mb.Tags().Get(s2.Addr); got != s2.Tag {
		t.Fatalf("after reuse, granule tag = %d, want %d (re-tagged)", got, s2.Tag)
	}
	if initNs, _ := b.LifecycleNs(); initNs != 2*firstInit {
		t.Fatalf("init after reuse = %v, want %v (full re-tag charged)", initNs, 2*firstInit)
	}
}

// TestMTEPreservingMadviseSkipsRetag: with the proposed fix, tags
// survive recycling, so reuse is as cheap as under MPK.
func TestMTEPreservingMadviseSkipsRetag(t *testing.T) {
	cfg := smallConfig()
	cfg.PreserveTagsOnMadvise = true
	b := reserved(t, MTE, cfg)
	mb := b.(*mteBackend)
	life := LifecycleFor(MTE, true)
	if life.RecolorOnReuse || life.DecolorNsPerByte != 0 {
		t.Fatalf("preserving lifecycle = %+v, want no decolor/recolor terms", life)
	}
	s, err := b.Allocate(testMemBytes)
	if err != nil {
		t.Fatal(err)
	}
	if err := b.Recycle(s); err != nil {
		t.Fatal(err)
	}
	if got := mb.Tags().Get(s.Addr); got != s.Tag {
		t.Fatalf("after preserving recycle, granule tag = %d, want %d", got, s.Tag)
	}
	s2, err := b.Allocate(testMemBytes)
	if err != nil {
		t.Fatal(err)
	}
	initNs, teardownNs := b.LifecycleNs()
	wantInit := life.InitNs(testMemBytes, true) + life.InitNs(testMemBytes, false)
	if initNs != wantInit {
		t.Fatalf("init = %v, want %v (reuse skips tagging)", initNs, wantInit)
	}
	if teardownNs != life.TeardownNs(testMemBytes) {
		t.Fatalf("teardown = %v, want base-only %v", teardownNs, life.TeardownNs(testMemBytes))
	}
	if got := mb.Tags().Get(s2.Addr); got != s2.Tag {
		t.Fatalf("reused slot tag = %d, want %d", got, s2.Tag)
	}
}

// TestGuardPageRecycledSlotStaysGuarded: after a recycle, the guard
// space around a guard-page slot is still PROT_NONE, and the next slot
// over is unreachable.
func TestGuardPageSlotGeometry(t *testing.T) {
	b := reserved(t, GuardPage, smallConfig())
	s0, err := b.Allocate(testMemBytes)
	if err != nil {
		t.Fatal(err)
	}
	// The region immediately after the slot's maximum memory is guard
	// space: PROT_NONE all the way to the next slot.
	guardAddr := s0.Addr + s0.MaxBytes
	v, ok := b.AS().VMAAt(guardAddr)
	if !ok || v.Prot != mem.ProtNone {
		t.Fatalf("guard VMA at %#x = %+v ok=%v, want PROT_NONE", guardAddr, v, ok)
	}
	if err := b.Recycle(s0); err != nil {
		t.Fatal(err)
	}
	// Recycling must not open anything: the slot pages were discarded,
	// the guard is still PROT_NONE.
	v, ok = b.AS().VMAAt(guardAddr)
	if !ok || v.Prot != mem.ProtNone {
		t.Fatalf("after recycle, guard VMA = %+v ok=%v, want PROT_NONE", v, ok)
	}
	if err := b.CheckIsolation(); err != nil {
		t.Fatalf("isolation check: %v", err)
	}
}

// TestMultiProcDealsSlots: slots are dealt round-robin across the
// configured process count, and the kind's cost model charges switches.
func TestMultiProcDealsSlots(t *testing.T) {
	cfg := smallConfig()
	cfg.Processes = 3
	b := reserved(t, MultiProc, cfg)
	if got := b.(*multiProc).Processes(); got != 3 {
		t.Fatalf("processes = %d, want 3", got)
	}
	for i := 0; i < 6; i++ {
		s, err := b.Allocate(testMemBytes)
		if err != nil {
			t.Fatal(err)
		}
		if s.Proc != s.Index%3 {
			t.Fatalf("slot %d proc = %d, want %d", s.Index, s.Proc, s.Index%3)
		}
	}
	trans := TransitionForScheme(SchemeDefault, MultiProc)
	if trans.SwitchNs != CtxSwitchNs || trans.RefillNs != CacheRefillNs || !trans.FlushTLB {
		t.Fatalf("multiproc transition = %+v, want context-switch costs and TLB flush", trans)
	}
}

// TestTransitionCostModel pins the §6.4.1/§6.4.3 numbers the golden
// tables depend on (ColorGuard's 51.52 ns is composed as 30.34 + 21.18,
// so it is checked to a tolerance, like every scheme-composed cost).
func TestTransitionCostModel(t *testing.T) {
	if got := TransitionForScheme(SchemeDefault, GuardPage).RoundTripNs(); got != 2*30.34 {
		t.Fatalf("guardpage round trip = %v, want %v", got, 2*30.34)
	}
	if got := TransitionForScheme(SchemeDefault, ColorGuard).RoundTripNs(); math.Abs(got-2*51.52) > 1e-9 {
		t.Fatalf("colorguard round trip = %v, want %v", got, 2*51.52)
	}
	mp := TransitionForScheme(SchemeDefault, MultiProc)
	if mp.RoundTripNs() != 2*30.34 || mp.SwitchNs != 3500 || mp.RefillNs != 3200 {
		t.Fatalf("multiproc costs = %+v", mp)
	}
}

// TestLifecycleCostModel pins the §7 per-instance numbers for a 64 KiB
// memory: 79/29 µs plain, 2182/377 µs under MTE, and 2182/29 with the
// preserving madvise.
func TestLifecycleCostModel(t *testing.T) {
	cases := []struct {
		kind              Kind
		preserve, recolor bool
		initUs, downUs    float64
	}{
		{GuardPage, false, false, 79, 29},
		{MTE, false, true, 2182, 377},
		{MTE, true, true, 2182, 29},
	}
	for _, c := range cases {
		l := LifecycleFor(c.kind, c.preserve)
		init := l.InitNs(testMemBytes, c.recolor) / 1e3
		down := l.TeardownNs(testMemBytes) / 1e3
		if math.Abs(init-c.initUs) > 1e-9 || math.Abs(down-c.downUs) > 1e-9 {
			t.Fatalf("%s preserve=%v: %v/%v µs, want %v/%v", c.kind, c.preserve, init, down, c.initUs, c.downUs)
		}
	}
	if got := LifecycleFor(MTE, false).ColorNsPerByte; got != mte.TagNsPerByte {
		t.Fatalf("ColorNsPerByte = %v, want %v", got, mte.TagNsPerByte)
	}
}

// TestPlanLayoutMatchesPool: the density math is pool.ComputeLayout's,
// with striping only under ColorGuard.
func TestPlanLayoutMatchesPool(t *testing.T) {
	budget := uint64(85) << 40
	maxMem := uint64(408) << 20
	guard := uint64(6)<<30 - maxMem
	cfg := Config{MaxMemoryBytes: maxMem, GuardBytes: guard, TotalBytes: budget, Keys: 15}
	for _, kind := range Kinds() {
		l, err := PlanLayout(kind, cfg)
		if err != nil {
			t.Fatalf("%s: %v", kind, err)
		}
		wantKeys := 0
		if kind == ColorGuard {
			wantKeys = 15
		}
		want, err := pool.ComputeLayout(pool.Config{MaxMemoryBytes: maxMem, GuardBytes: guard, TotalBytes: budget, Keys: wantKeys})
		if err != nil {
			t.Fatal(err)
		}
		if l != want {
			t.Fatalf("%s: layout %+v != pool layout %+v", kind, l, want)
		}
	}
}

func TestUnknownKind(t *testing.T) {
	if _, err := New(Kind("cheri")); err == nil {
		t.Fatal("unknown kind accepted")
	}
}

package isolation

import (
	"errors"
	"math"
	"runtime"
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
		b.AS().Store(s.Addr+100, 8, 42)
		if err := b.Recycle(s); err != nil {
			t.Fatalf("%s: recycle: %v", kind, err)
		}
		if b.Available() != 8 {
			t.Fatalf("%s: available after recycle = %d, want 8", kind, b.Available())
		}
		// LIFO reuse hands the recycled slot back, zeroed.
		s2, err := b.Allocate(testMemBytes)
		if err != nil || s2.Index != s.Index {
			t.Fatalf("%s: reallocate = slot %d, %v; want slot %d", kind, s2.Index, err, s.Index)
		}
		if got := b.AS().Load(s2.Addr+100, 8); got != 0 {
			t.Fatalf("%s: recycled slot reads %d, want 0", kind, got)
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

// TestBackendDoubleRecycle: recycling a slot that is not allocated — a
// second recycle, a never-allocated index, an index out of range — is
// a double free on every kind: rejected, with the table and the
// teardown accounting unchanged.
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
		for _, bad := range []Slot{s, {Index: 1}, {Index: -1}, {Index: 99}} {
			if err := b.Recycle(bad); !errors.Is(err, ErrDoubleFree) {
				t.Fatalf("%s: recycle of slot %d: %v, want ErrDoubleFree", kind, bad.Index, err)
			}
		}
		if b.Available() != 8 {
			t.Fatalf("%s: available after bad recycles = %d, want 8", kind, b.Available())
		}
		// The double free must not double the teardown accounting.
		_, teardown := b.LifecycleNs()
		want := LifecycleFor(kind, false).TeardownNs(testMemBytes)
		if teardown != want {
			t.Fatalf("%s: teardown after double recycle = %v, want %v", kind, teardown, want)
		}
	}
}

// TestSlotLookedUpByIndex: Grow and Recycle read only the index of the
// Slot they are handed, and take the address and maximum size from the
// slab's own table, so a stale or forged copy can neither open guard
// space nor discard another live slot.
func TestSlotLookedUpByIndex(t *testing.T) {
	for _, kind := range Kinds() {
		b := reserved(t, kind, smallConfig())
		s0, err := b.Allocate(testMemBytes)
		if err != nil {
			t.Fatal(err)
		}
		s1, err := b.Allocate(testMemBytes)
		if err != nil {
			t.Fatal(err)
		}
		// Growing a never-allocated slot opens nothing.
		if err := b.Grow(Slot{Index: 5, Addr: s0.Addr + 5*b.Layout().SlotBytes, MaxBytes: testMemBytes}, testMemBytes); !errors.Is(err, ErrDoubleFree) {
			t.Fatalf("%s: grow of unallocated slot: %v, want ErrDoubleFree", kind, err)
		}
		// An inflated maximum cannot open the guard space after a slot.
		big := s0
		big.MaxBytes = 4 * testMemBytes
		if err := b.Grow(big, 2*testMemBytes); err == nil {
			t.Fatalf("%s: grow past the slot maximum accepted", kind)
		}
		if v, ok := b.AS().VMAAt(s0.Addr + testMemBytes); !ok || v.Prot != mem.ProtNone {
			t.Fatalf("%s: guard after slot 0 = %+v ok=%v, want PROT_NONE", kind, v, ok)
		}
		// Recycling slot 0 through a copy that carries slot 1's address
		// and an inflated maximum discards slot 0 only, at slot 0's price.
		b.AS().Store(s1.Addr, 8, 42)
		forged := Slot{Index: s0.Index, Addr: s1.Addr, MaxBytes: 3 * testMemBytes}
		if err := b.Recycle(forged); err != nil {
			t.Fatalf("%s: recycle: %v", kind, err)
		}
		if got := b.AS().Load(s1.Addr, 8); got != 42 {
			t.Fatalf("%s: live slot 1 reads %d after recycling slot 0, want 42", kind, got)
		}
		if _, teardown := b.LifecycleNs(); teardown != LifecycleFor(kind, false).TeardownNs(testMemBytes) {
			t.Fatalf("%s: teardown = %v, want one slot's %v", kind, teardown, LifecycleFor(kind, false).TeardownNs(testMemBytes))
		}
	}
}

// TestAllocateFailureKeepsSlotFree: an allocation that cannot open its
// slot — an initial size above the slot maximum, or the mapping hitting
// vm.max_map_count, which striping makes likelier (§5.1) — is reported
// and leaves the slot free and the accounting unchanged.
func TestAllocateFailureKeepsSlotFree(t *testing.T) {
	for _, kind := range Kinds() {
		as := mem.NewAS(47)
		as.MaxMapCount = 40
		b, err := NewReserved(kind, as, Config{Slots: 64, MaxMemoryBytes: 1 << 20, GuardBytes: 4 << 20, Keys: 15})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := b.Allocate(2 << 20); err == nil {
			t.Fatalf("%s: initial size above the slot maximum accepted", kind)
		}
		if b.Available() != 64 {
			t.Fatalf("%s: available after oversized allocate = %d, want 64", kind, b.Available())
		}
		if initNs, _ := b.LifecycleNs(); initNs != 0 {
			t.Fatalf("%s: oversized allocate charged %v ns", kind, initNs)
		}
		allocated := 0
		for ; allocated < 64; allocated++ {
			initNs, _ := b.LifecycleNs()
			if _, err = b.Allocate(1 << 20); err != nil {
				if after, _ := b.LifecycleNs(); after != initNs {
					t.Fatalf("%s: failed allocate charged %v ns", kind, after-initNs)
				}
				break
			}
		}
		if !errors.Is(err, mem.ErrMapCount) {
			t.Fatalf("%s: after %d slots: err = %v, want ErrMapCount", kind, allocated, err)
		}
		if b.Available() != 64-allocated {
			t.Fatalf("%s: available = %d, want %d", kind, b.Available(), 64-allocated)
		}
		as.MaxMapCount = 0
		if s, err := b.Allocate(1 << 20); err != nil || s.Index != allocated {
			t.Fatalf("%s: allocate after raising the limit = slot %d, %v; want slot %d", kind, s.Index, err, allocated)
		}
	}
}

// TestReserveHostMemory: the slot table starts empty, so reserving the
// §6.4.2 density layouts — 14,505 guard-page slots and 217,585
// ColorGuard slots in 85 TiB — allocates the same few host bytes
// whatever the slot count. Not parallel: TotalAlloc counts the whole
// process.
func TestReserveHostMemory(t *testing.T) {
	maxMem := uint64(408) << 20
	cfg := Config{MaxMemoryBytes: maxMem, GuardBytes: 6<<30 - maxMem, TotalBytes: 85 << 40, Keys: 15}
	for _, c := range []struct {
		kind  Kind
		slots int
	}{{GuardPage, 14505}, {ColorGuard, 217585}} {
		as := mem.NewAS(47)
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		b, err := NewReserved(c.kind, as, cfg)
		runtime.ReadMemStats(&after)
		if err != nil {
			t.Fatal(err)
		}
		if b.Capacity() != c.slots {
			t.Fatalf("%s: %d slots, want %d", c.kind, b.Capacity(), c.slots)
		}
		alloc := after.TotalAlloc - before.TotalAlloc
		t.Logf("%s: Reserve of %d slots allocated %d B", c.kind, c.slots, alloc)
		if alloc >= 64<<10 {
			t.Fatalf("%s: Reserve allocated %d B of host memory, want < 64 KiB", c.kind, alloc)
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

// TestGuardPageSlotGeometry: after a recycle, the guard
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

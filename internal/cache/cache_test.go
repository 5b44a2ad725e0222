package cache

import (
	"reflect"
	"testing"

	"repro/internal/telemetry"
)

func TestTLBHitMiss(t *testing.T) {
	tlb := NewTLB(64, 4)
	if tlb.Access(0x1000) {
		t.Fatal("first access should miss")
	}
	if !tlb.Access(0x1008) {
		t.Fatal("same page should hit")
	}
	if tlb.Hits() != 1 || tlb.Misses() != 1 {
		t.Fatalf("hits=%d misses=%d", tlb.Hits(), tlb.Misses())
	}
}

func TestTLBLRUEviction(t *testing.T) {
	tlb := NewTLB(4, 4) // one set, 4 ways
	pages := []uint64{0, 1, 2, 3}
	for _, p := range pages {
		tlb.Access(p << 12)
	}
	// Touch page 0 so page 1 is LRU, then insert page 4.
	tlb.Access(0)
	tlb.Access(4 << 12)
	if !tlb.Access(0) {
		t.Error("page 0 should survive (recently used)")
	}
	if tlb.Access(1 << 12) {
		t.Error("page 1 should have been evicted")
	}
}

func TestTLBFlush(t *testing.T) {
	tlb := NewTLB(64, 4)
	tlb.Access(0x5000)
	tlb.Flush()
	if tlb.Access(0x5000) {
		t.Error("access after flush should miss")
	}
	if tlb.flushes != 1 {
		t.Errorf("flushes = %d", tlb.flushes)
	}
}

func TestCacheLevels(t *testing.T) {
	h := NewHierarchy()
	if lv := h.L1D.Access(0x1000); lv != 2 {
		t.Fatalf("cold access missed %d levels, want 2", lv)
	}
	if lv := h.L1D.Access(0x1010); lv != 0 {
		t.Fatalf("same line should hit L1, got %d", lv)
	}
	// Evict from L1 but not L2: walk more lines than L1 holds in one set.
	// Lines mapping to the same L1 set are 4 KiB apart (64 sets * 64B).
	conflict := uint64(48 << 10 / 12) // L1 set stride
	for i := uint64(1); i <= 12; i++ {
		h.L1D.Access(0x1000 + i*conflict)
	}
	if lv := h.L1D.Access(0x1000); lv != 1 {
		t.Fatalf("L1-evicted line should hit L2, missed %d levels", lv)
	}
}

func TestCacheWorkingSetEffect(t *testing.T) {
	// A working set of 4-byte elements has half the miss rate of the
	// same element count at 8 bytes once it spills out of L1 — the
	// pointer-compression effect behind the 429_mcf outlier.
	run := func(elemSize uint64) uint64 {
		h := NewHierarchy()
		const n = 32 << 10 // elements; 128KB/256KB working sets
		for pass := 0; pass < 4; pass++ {
			for i := uint64(0); i < n; i++ {
				h.L1D.Access(i * elemSize)
			}
		}
		return h.L1D.Misses()
	}
	m4, m8 := run(4), run(8)
	if m4 >= m8 {
		t.Fatalf("4-byte misses (%d) should be below 8-byte misses (%d)", m4, m8)
	}
}

func TestHierarchyFlush(t *testing.T) {
	h := NewHierarchy()
	h.L1D.Access(0x2000)
	h.DTLB.Access(0x2000)
	h.Flush()
	if lv := h.L1D.Access(0x2000); lv != 2 {
		t.Errorf("after flush, access should miss both levels, got %d", lv)
	}
	if h.DTLB.Access(0x3000) {
		t.Error("after flush, TLB should miss")
	}
}

func TestHierarchyPublishTo(t *testing.T) {
	h := NewHierarchy()
	h.DTLB.Access(0x1000) // miss
	h.DTLB.Access(0x1008) // hit
	h.L1D.Access(0x1000)  // misses L1 and L2
	h.L1D.Access(0x1010)  // hits L1
	r := telemetry.NewRegistry()
	h.PublishTo(r, "cpu")
	for name, want := range map[string]uint64{
		"cpu.dtlb.hits":   1,
		"cpu.dtlb.misses": 1,
		"cpu.l1d.hits":    1,
		"cpu.l1d.misses":  1,
		"cpu.l2.misses":   1,
	} {
		if got := r.Counter(name).Load(); got != want {
			t.Errorf("%s = %d, want %d", name, got, want)
		}
	}
}

func TestBadGeometryPanics(t *testing.T) {
	for _, f := range []func(){
		func() { NewTLB(63, 4) },
		func() { NewTLB(0, 1) },
		func() { NewCache("x", 1000, 48, 2) },
		func() { NewCache("x", 3<<10, 64, 16) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("bad geometry should panic")
				}
			}()
			f()
		}()
	}
}

// TestHierarchyMemoEquivalence drives a Hierarchy and an identical
// memo-free reference (separate TLB+Cache lookups) with the same
// deterministic address stream — same-line repeats, stack/heap
// alternation that exercises the two-entry memo, strided sweeps that
// evict, and set-conflicting lines that must invalidate the second
// entry — and requires bit-identical hit/miss counters throughout.
func TestHierarchyMemoEquivalence(t *testing.T) {
	h := NewHierarchy()
	ref := NewHierarchy() // driven through the memo-free reference path

	refAccess := func(addr uint64) (bool, int) {
		return ref.DTLB.Access(addr), ref.L1D.Access(addr)
	}

	var addrs []uint64
	const stack = 0x7f00_0000_0000
	const heap = 0x1_0000_0000
	// Same-line repeats and alternation between two disjoint lines.
	for i := 0; i < 64; i++ {
		addrs = append(addrs, stack+8*uint64(i%4), heap+uint64(i%2)*8)
	}
	// Lines that share an L1 set (48KiB/12-way over 64B lines is 64
	// sets, so addresses 4096 apart map to the same set).
	for i := 0; i < 32; i++ {
		addrs = append(addrs, heap+uint64(i%3)*4096)
	}
	// A large stride sweep to force evictions at every level.
	for i := 0; i < 4096; i++ {
		addrs = append(addrs, heap+uint64(i)*64)
	}
	// Revisit the early working set.
	for i := 0; i < 64; i++ {
		addrs = append(addrs, stack+8*uint64(i%4), heap+uint64(i%2)*8)
	}

	for i, a := range addrs {
		gotTLB, gotMiss := h.Access(a)
		wantTLB, wantMiss := refAccess(a)
		if gotTLB != wantTLB || gotMiss != wantMiss {
			t.Fatalf("access %d (%#x): memo (%v,%d) != reference (%v,%d)",
				i, a, gotTLB, gotMiss, wantTLB, wantMiss)
		}
		if h.DTLB.Hits() != ref.DTLB.Hits() || h.DTLB.Misses() != ref.DTLB.Misses() {
			t.Fatalf("access %d (%#x): dTLB counters diverge: %d/%d vs %d/%d",
				i, a, h.DTLB.Hits(), h.DTLB.Misses(), ref.DTLB.Hits(), ref.DTLB.Misses())
		}
		if h.L1D.Hits() != ref.L1D.Hits() || h.L1D.Misses() != ref.L1D.Misses() {
			t.Fatalf("access %d (%#x): L1 counters diverge: %d/%d vs %d/%d",
				i, a, h.L1D.Hits(), h.L1D.Misses(), ref.L1D.Hits(), ref.L1D.Misses())
		}
		l2, rl2 := h.L1D.Next, ref.L1D.Next
		if l2.Hits() != rl2.Hits() || l2.Misses() != rl2.Misses() {
			t.Fatalf("access %d (%#x): L2 counters diverge", i, a)
		}
	}
}

// sameAsNew reports how h differs from what NewHierarchy builds, field
// by field (a dirty list emptied in place counts as empty).
func sameAsNew(t *testing.T, what string, h *Hierarchy) {
	t.Helper()
	fresh := NewHierarchy()
	if h.lastLine != 0 || h.prevLine != 0 || h.prevOK || h.memoShift != fresh.memoShift {
		t.Errorf("%s: memo = %d/%d/%v shift %d", what, h.lastLine, h.prevLine, h.prevOK, h.memoShift)
	}
	ht, ft := h.DTLB, fresh.DTLB
	if ht.sets != ft.sets || ht.ways != ft.ways || ht.pageBits != ft.pageBits ||
		ht.hits != 0 || ht.misses != 0 || ht.flushes != 0 {
		t.Errorf("%s: dTLB geometry or counters differ: %+v", what, *ht)
	}
	for i, tag := range ht.tags {
		if tag != 0 {
			t.Fatalf("%s: dTLB tag %d = %#x", what, i, tag)
		}
	}
	for c, f := h.L1D, fresh.L1D; ; c, f = c.Next, f.Next {
		if (c == nil) != (f == nil) {
			t.Fatalf("%s: cache chains differ in length", what)
		}
		if c == nil {
			break
		}
		if c.Name != f.Name || c.lineBits != f.lineBits || c.sets != f.sets || c.ways != f.ways ||
			len(c.tags) != len(f.tags) || c.hits != 0 || c.misses != 0 || len(c.dirty) != 0 {
			t.Errorf("%s: %s differs: hits %d misses %d dirty %d", what, c.Name, c.hits, c.misses, len(c.dirty))
		}
		for i, tag := range c.tags {
			if tag != 0 {
				t.Fatalf("%s: %s tag %d = %#x survives", what, c.Name, i, tag)
			}
		}
	}
}

// TestHierarchyResetEqualsNew: whatever the previous owner did — wrote
// every L2 set, flushed mid-run, took the L1-only path — Reset leaves
// the hierarchy equal to a new one, and it then behaves like one.
func TestHierarchyResetEqualsNew(t *testing.T) {
	everySet := func(h *Hierarchy) {
		// Three lines into each L2 set (and so into every L1 set and
		// dTLB set many times over), then some hits.
		l2 := h.L1D.Next
		for rep := uint64(0); rep < 3; rep++ {
			for s := uint64(0); s < l2.sets; s++ {
				h.Access((rep*l2.sets + s) << l2.lineBits)
			}
		}
		h.Access(0)
		h.Access(8)
		if got := uint64(len(l2.dirty)); got != l2.sets {
			t.Fatalf("L2 dirty list holds %d sets after writing all %d", got, l2.sets)
		}
	}
	cases := []struct {
		name string
		run  func(h *Hierarchy)
	}{
		{"every L2 set", everySet},
		{"after Flush", func(h *Hierarchy) {
			everySet(h)
			h.Flush()
			if n := len(h.L1D.dirty) + len(h.L1D.Next.dirty); n != 0 {
				t.Fatalf("Flush left %d dirty sets listed", n)
			}
			h.Access(0x1000) // one set dirtied again, listed once
			h.Access(0x1000 + 1<<30)
			if len(h.L1D.dirty) != 1 {
				t.Fatalf("a set refilled after Flush is listed %d times", len(h.L1D.dirty))
			}
		}},
		{"after AccessL1", func(h *Hierarchy) {
			h.Access(0x2000)
			h.AccessL1(0x2000)
			h.AccessL1(0x9000)
			h.Access(0x2040)
		}},
	}
	trace := func(h *Hierarchy) (out []int) {
		for i := uint64(0); i < 4096; i++ {
			hit, lv := h.Access(i * 200 % (1 << 16))
			out = append(out, lv)
			if hit {
				out = append(out, -1)
			}
		}
		return out
	}
	want := trace(NewHierarchy())
	for _, c := range cases {
		h := NewHierarchy()
		c.run(h)
		h.Reset()
		sameAsNew(t, c.name, h)
		if got := trace(h); !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: accesses after Reset behave differently from a new hierarchy's", c.name)
		}
	}
}

// BenchmarkHierarchyReset is what releasing a machine pays after a
// short run: a few dozen lines touched, then Reset.
func BenchmarkHierarchyReset(b *testing.B) {
	h := NewHierarchy()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		for a := uint64(0); a < 32; a++ {
			h.Access(0x7f0000 + a*64)
			h.Access(0x10000 + a*4096)
		}
		h.Reset()
	}
}

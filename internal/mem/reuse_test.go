package mem

import (
	"testing"
	"time"
)

// dropOps are the two ways backing pages leave an address space.
var dropOps = []struct {
	name string
	drop func(a *AS, addr, length uint64) error
}{
	{"madvise", (*AS).MadviseDontneed},
	{"munmap", (*AS).Munmap},
}

// TestRecycledPageReadsZero: tenant A dirties every byte of a page and
// the page is dropped; the buffer is then handed to tenant B at another
// address, and B must read zero in all 4096 bytes — A's bytes are never
// visible through a recycled buffer.
func TestRecycledPageReadsZero(t *testing.T) {
	const addrA, addrB = 0x10000, 0x40000
	for _, op := range dropOps {
		a := NewAS(47)
		if err := a.Mmap(addrA, PageSize, ProtRead|ProtWrite); err != nil {
			t.Fatal(err)
		}
		if err := a.Mmap(addrB, PageSize, ProtRead|ProtWrite); err != nil {
			t.Fatal(err)
		}
		secret := make([]byte, PageSize)
		for i := range secret {
			secret[i] = 0xA5
		}
		a.WriteBytes(addrA, secret)
		bufA := a.PageFor(addrA, false)
		if err := op.drop(a, addrA, PageSize); err != nil {
			t.Fatalf("%s: %v", op.name, err)
		}
		if a.ResidentPages() != 0 {
			t.Fatalf("%s: %d pages resident after the drop", op.name, a.ResidentPages())
		}
		bufB := a.PageFor(addrB, true)
		if bufB != bufA {
			t.Fatalf("%s: tenant B got a new buffer, not the dropped one", op.name)
		}
		got := make([]byte, PageSize)
		a.ReadBytes(addrB, got)
		for i, b := range got {
			if b != 0 {
				t.Fatalf("%s: byte %d of the recycled page reads %#x", op.name, i, b)
			}
		}
	}
}

// TestRecycledPageNeedsGenChange: whoever cached a page pointer — the
// emulator's grant cache outside, lastPage inside — cannot reach the
// buffer's next life through it. Outside holders revalidate against
// Gen, which every drop moves; lastPage is cleared by the drop itself.
func TestRecycledPageNeedsGenChange(t *testing.T) {
	const addrA, addrB = 0x10000, 0x40000
	for _, op := range dropOps {
		a := NewAS(47)
		if err := a.Mmap(addrA, PageSize, ProtRead|ProtWrite); err != nil {
			t.Fatal(err)
		}
		if err := a.Mmap(addrB, PageSize, ProtRead|ProtWrite); err != nil {
			t.Fatal(err)
		}
		a.Store(addrA, 8, 0x1111) // lastPage now caches A's buffer
		held, gen := a.PageFor(addrA, false), a.Gen()
		if err := op.drop(a, addrA, PageSize); err != nil {
			t.Fatalf("%s: %v", op.name, err)
		}
		if a.Gen() == gen {
			t.Fatalf("%s: the drop did not move Gen; a cached page pointer would stay valid", op.name)
		}
		a.Store(addrB, 8, 0x2222)
		if a.PageFor(addrB, false) != held {
			t.Fatalf("%s: tenant B did not receive the dropped buffer", op.name)
		}
		if op.name == "madvise" { // still mapped: reads must see a fresh zero page
			if got := a.Load(addrA, 8); got != 0 {
				t.Fatalf("%s: Load through the dropped page = %#x, want 0", op.name, got)
			}
		}
		if pg := a.PageFor(addrA, false); pg != nil {
			t.Fatalf("%s: the dropped page is resident again without a write", op.name)
		}
	}
}

// TestFreePagesBounded: the reuse list holds at most maxFreePages
// buffers however many pages one drop releases.
func TestFreePagesBounded(t *testing.T) {
	a := NewAS(47)
	const n = 3 * maxFreePages
	if err := a.Mmap(0x100000, n*PageSize, ProtRead|ProtWrite); err != nil {
		t.Fatal(err)
	}
	for i := uint64(0); i < n; i++ {
		a.Store(0x100000+i*PageSize, 1, 1)
	}
	if err := a.MadviseDontneed(0x100000, n*PageSize); err != nil {
		t.Fatal(err)
	}
	if a.ResidentPages() != 0 || len(a.freePages) != maxFreePages {
		t.Fatalf("resident %d, free list %d (bound %d)", a.ResidentPages(), len(a.freePages), maxFreePages)
	}
}

// TestMunmapHugeSparse: unmapping a 1 TiB guard reservation with three
// pages touched costs three deletes, not the 2^28 page numbers of the
// range (which took seconds). The wall bound is generous on purpose.
func TestMunmapHugeSparse(t *testing.T) {
	const base, size = uint64(1) << 40, uint64(1) << 40
	a := NewAS(47)
	if err := a.Mmap(base, size, ProtNone); err != nil {
		t.Fatal(err)
	}
	for _, off := range []uint64{0, size / 2, size - PageSize} {
		a.Store(base+off, 8, 1) // a host-side write; Store checks no protection
	}
	if a.ResidentPages() != 3 {
		t.Fatalf("resident = %d, want 3", a.ResidentPages())
	}
	t0 := time.Now()
	if err := a.Munmap(base, size); err != nil {
		t.Fatal(err)
	}
	if d := time.Since(t0); d > 100*time.Millisecond {
		t.Fatalf("Munmap of a sparse 1 TiB mapping took %v", d)
	}
	if a.ResidentPages() != 0 || a.VMACount() != 0 {
		t.Fatalf("after munmap: %d pages, %d VMAs", a.ResidentPages(), a.VMACount())
	}
}

// TestDropPagesLeavesNeighbours: both walks of dropPages — by page
// number and over the resident map — release exactly the range.
func TestDropPagesLeavesNeighbours(t *testing.T) {
	for _, resident := range []int{2, 40} { // fewer and more than the 8-page range
		a := NewAS(47)
		if err := a.Mmap(0x100000, 64*PageSize, ProtRead|ProtWrite); err != nil {
			t.Fatal(err)
		}
		for i := 0; i < resident; i++ {
			a.Store(0x100000+uint64(i)*PageSize, 8, uint64(i)+1)
		}
		if err := a.MadviseDontneed(0x100000+PageSize, 8*PageSize); err != nil {
			t.Fatal(err)
		}
		for i := 0; i < resident; i++ {
			want := uint64(i) + 1
			if i >= 1 && i < 9 {
				want = 0
			}
			if got := a.Load(0x100000+uint64(i)*PageSize, 8); got != want {
				t.Fatalf("%d resident: page %d reads %d, want %d", resident, i, got, want)
			}
		}
	}
}

// BenchmarkMadviseDontneed is what Instance.Reset pays for the machine
// stack: a 256 KiB mapping with one page touched, dropped and touched
// again. Steady state allocates nothing.
func BenchmarkMadviseDontneed(b *testing.B) {
	const base, size = 0x100000, 256 << 10
	a := NewAS(47)
	if err := a.Mmap(base, size, ProtRead|ProtWrite); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		a.Store(base+size-8, 8, 1)
		if err := a.MadviseDontneed(base, size); err != nil {
			b.Fatal(err)
		}
	}
}

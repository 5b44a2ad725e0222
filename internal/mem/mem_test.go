package mem

import (
	"errors"
	"testing"
	"testing/quick"
)

func TestMmapBasics(t *testing.T) {
	a := NewAS(47)
	if err := a.Mmap(0x10000, 2*PageSize, ProtRead|ProtWrite); err != nil {
		t.Fatalf("mmap: %v", err)
	}
	if a.VMACount() != 1 {
		t.Fatalf("VMACount = %d", a.VMACount())
	}
	// Overlapping fixed mapping fails.
	if err := a.Mmap(0x10000+PageSize, PageSize, ProtRead); !errors.Is(err, ErrOverlap) {
		t.Fatalf("overlap err = %v", err)
	}
	// Unaligned fails.
	if err := a.Mmap(0x10001, PageSize, ProtRead); !errors.Is(err, ErrUnaligned) {
		t.Fatalf("unaligned err = %v", err)
	}
	// Beyond the address space fails.
	if err := a.Mmap(a.limit-PageSize, 2*PageSize, ProtRead); !errors.Is(err, ErrOutOfRange) {
		t.Fatalf("out-of-range err = %v", err)
	}
}

func TestLoadStore(t *testing.T) {
	a := NewAS(47)
	if err := a.Mmap(0x10000, PageSize*2, ProtRead|ProtWrite); err != nil {
		t.Fatal(err)
	}
	a.Store(0x10008, 8, 0x1122334455667788)
	if got := a.Load(0x10008, 8); got != 0x1122334455667788 {
		t.Fatalf("Load = %#x", got)
	}
	if got := a.Load(0x10008, 4); got != 0x55667788 {
		t.Fatalf("Load4 = %#x", got)
	}
	if got := a.Load(0x1000c, 4); got != 0x11223344 {
		t.Fatalf("Load4 hi = %#x", got)
	}
	// Page-straddling access.
	a.Store(0x10000+PageSize-4, 8, 0xAABBCCDDEEFF0011)
	if got := a.Load(0x10000+PageSize-4, 8); got != 0xAABBCCDDEEFF0011 {
		t.Fatalf("straddle Load = %#x", got)
	}
	// Untouched page reads zero.
	if got := a.Load(0x10000+PageSize+512, 8); got != 0 {
		t.Fatalf("untouched Load = %#x", got)
	}
}

func TestCheckAccess(t *testing.T) {
	a := NewAS(47)
	must := func(err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
	}
	must(a.Mmap(0x10000, PageSize, ProtRead|ProtWrite)) // rw page
	must(a.Mmap(0x11000, PageSize, ProtRead))           // ro page
	must(a.Mmap(0x12000, PageSize, ProtNone))           // guard

	if err := a.CheckAccess(0x10010, 8, true, PkruAllowAll); err != nil {
		t.Fatalf("rw write: %v", err)
	}
	var f *Fault
	if err := a.CheckAccess(0x11010, 8, true, PkruAllowAll); !errors.As(err, &f) || f.Kind != FaultProt {
		t.Fatalf("ro write err = %v", err)
	}
	if err := a.CheckAccess(0x12010, 8, false, PkruAllowAll); !errors.As(err, &f) || f.Kind != FaultUnmapped {
		t.Fatalf("guard read err = %v", err)
	}
	if err := a.CheckAccess(0x13000, 1, false, PkruAllowAll); !errors.As(err, &f) || f.Kind != FaultUnmapped {
		t.Fatalf("unmapped read err = %v", err)
	}
	// Access straddling into the guard faults at the guard page.
	if err := a.CheckAccess(0x11000+PageSize-4, 8, false, PkruAllowAll); !errors.As(err, &f) || f.Addr != 0x12000 {
		t.Fatalf("straddle err = %v", err)
	}
}

func TestPkeySemantics(t *testing.T) {
	a := NewAS(47)
	if err := a.Mmap(0x10000, 4*PageSize, ProtRead|ProtWrite); err != nil {
		t.Fatal(err)
	}
	if err := a.PkeyMprotect(0x10000, PageSize, ProtRead|ProtWrite, 3); err != nil {
		t.Fatal(err)
	}
	if err := a.PkeyMprotect(0x11000, PageSize, ProtRead|ProtWrite, 4); err != nil {
		t.Fatal(err)
	}

	pkru := PkruAllowOnly(3)
	if err := a.CheckAccess(0x10000, 8, true, pkru); err != nil {
		t.Fatalf("key 3 allowed: %v", err)
	}
	var f *Fault
	if err := a.CheckAccess(0x11000, 8, false, pkru); !errors.As(err, &f) || f.Kind != FaultPkey {
		t.Fatalf("key 4 read err = %v", err)
	}
	// Key 0 (runtime memory) is always allowed by PkruAllowOnly.
	if err := a.CheckAccess(0x12000, 8, true, pkru); err != nil {
		t.Fatalf("key 0: %v", err)
	}
	// Invalid key rejected.
	if err := a.PkeyMprotect(0x10000, PageSize, ProtRead, 16); !errors.Is(err, ErrBadPkey) {
		t.Fatalf("bad pkey err = %v", err)
	}
}

func TestPkeyWriteDisable(t *testing.T) {
	// Write-disable bit: read allowed, write denied.
	var pkru uint32 = 2 << (2 * 5) // WD for key 5
	if !PkeyAllowed(pkru, 5, false) {
		t.Error("read should be allowed with WD only")
	}
	if PkeyAllowed(pkru, 5, true) {
		t.Error("write should be denied with WD")
	}
	if !PkeyAllowed(pkru, 6, true) {
		t.Error("other keys unaffected")
	}
}

func TestMprotectSplitCoalesce(t *testing.T) {
	a := NewAS(47)
	if err := a.Mmap(0x10000, 8*PageSize, ProtRead|ProtWrite); err != nil {
		t.Fatal(err)
	}
	if err := a.Mprotect(0x12000, 2*PageSize, ProtNone); err != nil {
		t.Fatal(err)
	}
	if a.VMACount() != 3 {
		t.Fatalf("after split: %d VMAs, want 3: %v", a.VMACount(), a.vmas)
	}
	// Restoring the protection coalesces back to one VMA.
	if err := a.Mprotect(0x12000, 2*PageSize, ProtRead|ProtWrite); err != nil {
		t.Fatal(err)
	}
	if a.VMACount() != 1 {
		t.Fatalf("after restore: %d VMAs, want 1: %v", a.VMACount(), a.vmas)
	}
	// Protecting an unmapped range fails.
	if err := a.Mprotect(0x40000, PageSize, ProtRead); !errors.Is(err, ErrUnmapped) {
		t.Fatalf("unmapped mprotect err = %v", err)
	}
}

func TestMaxMapCount(t *testing.T) {
	a := NewAS(47)
	a.MaxMapCount = 3
	if err := a.Mmap(0x10000, 16*PageSize, ProtRead|ProtWrite); err != nil {
		t.Fatal(err)
	}
	// First split: 1 -> 3 VMAs. OK.
	if err := a.PkeyMprotect(0x12000, PageSize, ProtRead|ProtWrite, 1); err != nil {
		t.Fatalf("first split: %v", err)
	}
	if a.VMACount() != 3 {
		t.Fatalf("VMAs = %d", a.VMACount())
	}
	// Next split exceeds the limit, like hitting vm.max_map_count.
	if err := a.PkeyMprotect(0x14000, PageSize, ProtRead|ProtWrite, 2); !errors.Is(err, ErrMapCount) {
		t.Fatalf("err = %v, want ErrMapCount", err)
	}
}

func TestMadviseDontneed(t *testing.T) {
	a := NewAS(47)
	if err := a.Mmap(0x10000, 2*PageSize, ProtRead|ProtWrite); err != nil {
		t.Fatal(err)
	}
	if err := a.PkeyMprotect(0x10000, PageSize, ProtRead|ProtWrite, 7); err != nil {
		t.Fatal(err)
	}
	a.Store(0x10100, 8, 0x42)
	if a.ResidentPages() != 1 {
		t.Fatalf("resident = %d", a.ResidentPages())
	}
	if err := a.MadviseDontneed(0x10000, PageSize); err != nil {
		t.Fatal(err)
	}
	if got := a.Load(0x10100, 8); got != 0 {
		t.Fatalf("after madvise, Load = %#x, want 0", got)
	}
	if a.ResidentPages() != 0 {
		t.Fatalf("resident after madvise = %d", a.ResidentPages())
	}
	// Protection key survives madvise (the MPK property from §7).
	v, ok := a.VMAAt(0x10000)
	if !ok || v.Pkey != 7 {
		t.Fatalf("pkey after madvise = %v, %v", v, ok)
	}
}

func TestMunmap(t *testing.T) {
	a := NewAS(47)
	if err := a.Mmap(0x10000, 4*PageSize, ProtRead|ProtWrite); err != nil {
		t.Fatal(err)
	}
	a.Store(0x11000, 8, 99)
	if err := a.Munmap(0x11000, PageSize); err != nil {
		t.Fatal(err)
	}
	if a.VMACount() != 2 {
		t.Fatalf("VMAs = %d, want 2", a.VMACount())
	}
	if err := a.CheckAccess(0x11000, 1, false, PkruAllowAll); err == nil {
		t.Fatal("unmapped page should fault")
	}
	// Remapping the hole works and reads zero.
	if err := a.Mmap(0x11000, PageSize, ProtRead|ProtWrite); err != nil {
		t.Fatal(err)
	}
	if got := a.Load(0x11000, 8); got != 0 {
		t.Fatalf("recycled page = %#x", got)
	}
}

func TestMmapAnywhere(t *testing.T) {
	a := NewAS(30)
	p1, err := a.MmapAnywhere(4*PageSize, ProtRead|ProtWrite)
	if err != nil {
		t.Fatal(err)
	}
	p2, err := a.MmapAnywhere(4*PageSize, ProtRead|ProtWrite)
	if err != nil {
		t.Fatal(err)
	}
	if p1 == p2 {
		t.Fatal("overlapping placements")
	}
	// Exhaustion: a 30-bit space cannot hold a 2GB mapping.
	if _, err := a.MmapAnywhere(1<<31, ProtRead); err == nil {
		t.Fatal("should exhaust address space")
	}
}

func TestReadWriteBytes(t *testing.T) {
	a := NewAS(47)
	if err := a.Mmap(0x10000, 3*PageSize, ProtRead|ProtWrite); err != nil {
		t.Fatal(err)
	}
	src := make([]byte, 2*PageSize)
	for i := range src {
		src[i] = byte(i * 7)
	}
	a.WriteBytes(0x10000+100, src)
	dst := make([]byte, len(src))
	a.ReadBytes(0x10000+100, dst)
	for i := range src {
		if dst[i] != src[i] {
			t.Fatalf("byte %d: %d != %d", i, dst[i], src[i])
		}
	}
}

// TestIsolationProperty: an access outside every mapped range always
// faults, regardless of PKRU — the foundation of guard-page SFI.
func TestIsolationProperty(t *testing.T) {
	a := NewAS(40)
	if err := a.Mmap(1<<20, 1<<20, ProtRead|ProtWrite); err != nil {
		t.Fatal(err)
	}
	f := func(addr uint64, pkru uint32, write bool) bool {
		addr %= uint64(1) << 40
		inMapped := addr >= 1<<20 && addr+8 <= 2<<20
		err := a.CheckAccess(addr, 8, write, pkru)
		if inMapped {
			return true // mapped accesses may pass or fail on pkey; not under test
		}
		return err != nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

// TestStripingIsolationProperty models the ColorGuard claim: two
// adjacent slots with different keys, PKRU allowing only one — any
// access to the other slot faults.
func TestStripingIsolationProperty(t *testing.T) {
	a := NewAS(47)
	slot := uint64(1 << 20)
	base := uint64(1 << 21)
	if err := a.Mmap(base, 2*slot, ProtRead|ProtWrite); err != nil {
		t.Fatal(err)
	}
	if err := a.PkeyMprotect(base, slot, ProtRead|ProtWrite, 1); err != nil {
		t.Fatal(err)
	}
	if err := a.PkeyMprotect(base+slot, slot, ProtRead|ProtWrite, 2); err != nil {
		t.Fatal(err)
	}
	pkru := PkruAllowOnly(1)
	f := func(off uint64, write bool) bool {
		off %= 2*slot - 8
		err := a.CheckAccess(base+off, 8, write, pkru)
		inOwn := off+8 <= slot
		if inOwn {
			return err == nil
		}
		var fault *Fault
		return errors.As(err, &fault) && fault.Kind == FaultPkey
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

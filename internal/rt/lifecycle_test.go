package rt

import (
	"errors"
	"fmt"
	"runtime"
	"sync"
	"testing"

	"repro/internal/cpu"
	"repro/internal/ir"
	"repro/internal/isolation"
	"repro/internal/mem"
	"repro/internal/sfi"
	"repro/internal/workloads"
)

// lifecycleSlab reserves a server-worker-shaped slab (4 slots, 1 MiB
// guards) of the given kind, sized for mod.
func lifecycleSlab(tb testing.TB, kind isolation.Kind, mod *Module) isolation.Backend {
	tb.Helper()
	cfg := isolation.Config{Slots: 4, MaxMemoryBytes: uint64(mod.IR.MemMax) * ir.PageSize, GuardBytes: 1 << 20}
	switch kind {
	case isolation.ColorGuard:
		cfg.Keys = 15
	case isolation.MultiProc:
		cfg.Processes = 4
	}
	b, err := isolation.NewReserved(kind, mem.NewAS(47), cfg)
	if err != nil {
		tb.Fatalf("reserving %s: %v", kind, err)
	}
	return b
}

// coldStart is one Allocate -> NewInstance in b.
func coldStart(b isolation.Backend, mod *Module) (*Instance, error) {
	slot, err := b.Allocate(uint64(mod.IR.MemMin) * ir.PageSize)
	if err != nil {
		return nil, err
	}
	inst, err := NewInstance(mod, InstanceOptions{FSGSBASE: true, Place: isolation.Place(b, slot)})
	if err != nil {
		_ = b.Recycle(slot) // already failing
		return nil, err
	}
	return inst, nil
}

func compileFaaS(tb testing.TB, name string) (workloads.Kernel, *Module) {
	tb.Helper()
	k, err := workloads.FaaS().Find(name)
	if err != nil {
		tb.Fatal(err)
	}
	mod, err := CompileModule(k.Build(false), sfi.DefaultConfig(sfi.ModeSegue))
	if err != nil {
		tb.Fatal(err)
	}
	return k, mod
}

// TestCloseLeavesSlabAsReserved is the regression test for the Close
// leak: 1000 cold starts on a 4-slot slab of every kind leave the
// slab's address space with no resident page, as Reserve left it
// (Close used to leave the stack and the context block mapped and
// resident: two pages a cycle, for ever), and with the mappings it had
// after the first cycle. That count is above Reserve's by the slot's
// opened prefix, which stays read-write across recycles by design —
// madvise keeps mappings and colors, which is what makes recycling
// cheap — so it is the growth per cycle that must be zero.
func TestCloseLeavesSlabAsReserved(t *testing.T) {
	k, mod := compileFaaS(t, "hash-load-balance")
	for _, kind := range isolation.Kinds() {
		b := lifecycleSlab(t, kind, mod)
		as := b.AS()
		resident := as.ResidentPages()
		var vmas int
		for i := 0; i < 1000; i++ {
			inst, err := coldStart(b, mod)
			if err != nil {
				t.Fatalf("%s cycle %d: %v", kind, i, err)
			}
			if _, err := inst.Invoke(k.Entry, 1); err != nil {
				t.Fatalf("%s cycle %d: %v", kind, i, err)
			}
			if err := inst.Close(); err != nil {
				t.Fatalf("%s cycle %d: close: %v", kind, i, err)
			}
			if inst.Mach != nil {
				t.Fatalf("%s: Close left the instance holding its machine", kind)
			}
			if err := inst.Close(); err != nil {
				t.Fatalf("%s cycle %d: second close: %v", kind, i, err)
			}
			if i == 0 {
				vmas = as.VMACount()
			}
		}
		if got := as.ResidentPages(); got != resident {
			t.Errorf("%s: %d resident pages after 1000 cycles, %d after Reserve", kind, got, resident)
		}
		if got := as.VMACount(); got != vmas {
			t.Errorf("%s: %d mappings after 1000 cycles, %d after the first", kind, got, vmas)
		}
		if b.Available() != 4 {
			t.Errorf("%s: %d slots free, want 4", kind, b.Available())
		}
	}
}

// TestCloseReturnsUnmapError: a failing unmap is reported, the slot is
// recycled all the same, and the next Close is a no-op. The stack and
// the context block share one mapping (adjacent, same protection), so
// unmapping either must split it, and a full map count refuses that.
func TestCloseReturnsUnmapError(t *testing.T) {
	_, mod := compileFaaS(t, "html-templating")
	b := lifecycleSlab(t, isolation.ColorGuard, mod)
	inst, err := coldStart(b, mod)
	if err != nil {
		t.Fatal(err)
	}
	b.AS().MaxMapCount = b.AS().VMACount()
	if err := inst.Close(); !errors.Is(err, mem.ErrMapCount) {
		t.Fatalf("Close = %v, want the unmap's %v", err, mem.ErrMapCount)
	}
	if b.Available() != 4 {
		t.Fatalf("%d slots free after a failed unmap, want 4", b.Available())
	}
	if err := inst.Close(); err != nil {
		t.Fatalf("second Close = %v, want nil", err)
	}
}

// TestInvokeAllocatesOnlyResult: a warm Invoke of an integer-only
// export allocates its one-element result slice and nothing else.
func TestInvokeAllocatesOnlyResult(t *testing.T) {
	m := ir.NewModule("sum3", 1, 1)
	fb := m.NewFunc("sum3", ir.Sig([]ir.ValType{ir.I64, ir.I32, ir.I64}, []ir.ValType{ir.I64}))
	fb.Get(0).Get(2).I64Add()
	fb.MustBuild()
	m.MustExport("sum3")
	mod, err := CompileModule(m, sfi.DefaultConfig(sfi.ModeSegue))
	if err != nil {
		t.Fatal(err)
	}
	inst, err := NewInstance(mod, InstanceOptions{FSGSBASE: true})
	if err != nil {
		t.Fatal(err)
	}
	args := []uint64{40, 1, 2}
	if out, err := inst.Invoke("sum3", args...); err != nil || out[0] != 42 {
		t.Fatalf("sum3 = %v, %v", out, err)
	}
	allocs := testing.AllocsPerRun(200, func() {
		if _, err := inst.Invoke("sum3", args...); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 1 {
		t.Fatalf("warm Invoke allocates %v objects, want 1 (the result slice)", allocs)
	}
}

// instState is what an instance's owner can observe after an Invoke.
type instState struct {
	out          uint64
	regs         [16]uint64
	xmmLo, xmmHi [16]uint64
	fs, gs       uint64
	pkru         uint32
	stats        cpu.Stats
	transitions  uint64
	transIn      float64
	transOut     float64
	caches       [6]uint64 // dTLB, L1D, L2: hits then misses
}

func observe(inst *Instance, out []uint64) instState {
	m := inst.Mach
	l1, l2 := m.Hier.L1D, m.Hier.L1D.Next
	in, outNs := inst.TransitionNs()
	return instState{
		out: out[0], regs: m.Regs, xmmLo: m.XmmLo, xmmHi: m.XmmHi,
		fs: m.FSBase, gs: m.GSBase, pkru: m.PKRU, stats: m.Stats,
		transitions: inst.Transitions, transIn: in, transOut: outNs,
		caches: [6]uint64{m.Hier.DTLB.Hits(), m.Hier.DTLB.Misses(), l1.Hits(), l1.Misses(), l2.Hits(), l2.Misses()},
	}
}

// TestResetEqualsFreshInstance: on every kind and tier, an instance
// that ran, was Reset and ran again is in exactly the state of a fresh
// instance of the same module in the same slot after one run — and
// stays equal through a second run. (TestResetBitExact compares the
// checksum and the cycle count; this compares everything.)
func TestResetEqualsFreshInstance(t *testing.T) {
	for _, tier := range []cpu.Tier{cpu.TierSlow, cpu.TierFast, cpu.TierFused} {
		for _, kn := range workloads.FaaS().Kernels {
			k, mod := compileFaaS(t, kn.Name)
			for _, kind := range isolation.Kinds() {
				name := fmt.Sprintf("%s/%s/%s", k.Name, kind, tier)
				b := lifecycleSlab(t, kind, mod)
				run := func(inst *Instance) instState {
					out, err := inst.Invoke(k.Entry, k.TestArgs...)
					if err != nil {
						t.Fatalf("%s: %v", name, err)
					}
					return observe(inst, out)
				}
				fresh, err := coldStart(b, mod)
				if err != nil {
					t.Fatalf("%s: %v", name, err)
				}
				fresh.Mach.Tier = tier
				slot := fresh.place.Slot.Index
				want1, want2 := run(fresh), run(fresh)
				if err := fresh.Close(); err != nil {
					t.Fatalf("%s: %v", name, err)
				}

				warm, err := coldStart(b, mod)
				if err != nil {
					t.Fatalf("%s: %v", name, err)
				}
				if warm.place.Slot.Index != slot {
					t.Fatalf("%s: slot %d, then slot %d", name, slot, warm.place.Slot.Index)
				}
				warm.Mach.Tier = tier // Reset's machine keeps it
				run(warm)
				run(warm)
				if err := warm.Reset(); err != nil {
					t.Fatalf("%s: reset: %v", name, err)
				}
				if got := run(warm); got != want1 {
					t.Fatalf("%s: first run after Reset differs\nreset %+v\nfresh %+v", name, got, want1)
				}
				if got := run(warm); got != want2 {
					t.Fatalf("%s: second run after Reset differs\nreset %+v\nfresh %+v", name, got, want2)
				}
				if err := warm.Close(); err != nil {
					t.Fatalf("%s: %v", name, err)
				}
			}
		}
	}
}

// TestInstanceChurnConcurrent: two goroutines cold-start, invoke, reset
// and close instances of different kernels on their own slabs, so
// machines released by one are picked up by the other through cpu's
// free list. Every run must reproduce, in every observable, what the
// same kernel did on the same kind of slab before the goroutines
// started; under -race this is also the check that the free list hands
// a machine to one owner at a time.
func TestInstanceChurnConcurrent(t *testing.T) {
	kernels := workloads.FaaS().Kernels
	kinds := isolation.Kinds()
	mods := make([]*Module, len(kernels))
	for i, kn := range kernels {
		_, mods[i] = compileFaaS(t, kn.Name)
	}
	run := func(inst *Instance, i int) (instState, error) {
		out, err := inst.Invoke(kernels[i].Entry, kernels[i].TestArgs...)
		if err != nil {
			return instState{}, err
		}
		return observe(inst, out), nil
	}
	// Slabs are reserved alike in new address spaces, so a cold start
	// lands on the same addresses every time and the reference carries
	// over exactly.
	want := make(map[[2]int]instState) // (kernel, kind)
	for i := range kernels {
		for ki, kind := range kinds {
			inst, err := coldStart(lifecycleSlab(t, kind, mods[i]), mods[i])
			if err != nil {
				t.Fatal(err)
			}
			if want[[2]int{i, ki}], err = run(inst, i); err != nil {
				t.Fatal(err)
			}
			if err := inst.Close(); err != nil {
				t.Fatal(err)
			}
		}
	}
	rounds := 200
	if testing.Short() {
		rounds = 40
	}
	churn := func(g int) error {
		slabs := make([]isolation.Backend, len(kernels))
		for i := range kernels {
			slabs[i] = lifecycleSlab(t, kinds[(g+i)%len(kinds)], mods[i])
		}
		for r := 0; r < rounds; r++ {
			i := (r + g) % len(kernels)
			inst, err := coldStart(slabs[i], mods[i])
			if err != nil {
				return err
			}
			for rep := 0; rep < 2; rep++ { // cold, then reset and warm
				got, err := run(inst, i)
				if err != nil {
					return err
				}
				if w := want[[2]int{i, (g + i) % len(kinds)}]; got != w {
					return fmt.Errorf("round %d rep %d (%s): state differs from the reference\ngot  %+v\nwant %+v",
						r, rep, kernels[i].Name, got, w)
				}
				if err := inst.Reset(); err != nil {
					return err
				}
			}
			if err := inst.Close(); err != nil {
				return err
			}
			runtime.Gosched()
		}
		return nil
	}
	var wg sync.WaitGroup
	for g := 0; g < 2; g++ {
		g := g
		wg.Add(1)
		go func() {
			defer wg.Done()
			if err := churn(g); err != nil {
				t.Errorf("goroutine %d: %v", g, err)
			}
		}()
	}
	wg.Wait()
}

// TestColdStartAllocBudget: in steady state a cold start — allocate,
// instantiate, invoke, close — allocates under 64 KiB. It was ~340 KiB
// when every instance built its own 256 KiB of L2 tags, predictor and
// grant cache and tagged its slot through a map; this is the guard
// that keeps that from coming back without asserting on time.
func TestColdStartAllocBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector makes sync.Pool drop machines at random")
	}
	const cycles, budget = 1000, 64 << 10
	k, mod := compileFaaS(t, "hash-load-balance")
	for _, kind := range isolation.Kinds() {
		b := lifecycleSlab(t, kind, mod)
		cycle := func() {
			inst, err := coldStart(b, mod)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := inst.Invoke(k.Entry, 1); err != nil {
				t.Fatal(err)
			}
			if err := inst.Close(); err != nil {
				t.Fatal(err)
			}
		}
		for i := 0; i < 10; i++ {
			cycle() // fill the free lists
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := 0; i < cycles; i++ {
			cycle()
		}
		runtime.ReadMemStats(&after)
		perOp := (after.TotalAlloc - before.TotalAlloc) / cycles
		t.Logf("%s: %d B allocated per cold start", kind, perOp)
		if perOp > budget {
			t.Errorf("%s: %d B allocated per cold start, budget %d", kind, perOp, budget)
		}
	}
}

// BenchmarkInstanceLifecycle is one cold start per iteration: allocate
// a slot, instantiate, Invoke(1), close.
func BenchmarkInstanceLifecycle(b *testing.B) {
	k, mod := compileFaaS(b, "hash-load-balance")
	for _, kind := range isolation.Kinds() {
		b.Run(string(kind), func(b *testing.B) {
			slab := lifecycleSlab(b, kind, mod)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				inst, err := coldStart(slab, mod)
				if err != nil {
					b.Fatal(err)
				}
				if _, err := inst.Invoke(k.Entry, 1); err != nil {
					b.Fatal(err)
				}
				if err := inst.Close(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkInstanceReset is the warm path: Invoke(1) dirties the
// instance, Reset restores it.
func BenchmarkInstanceReset(b *testing.B) {
	k, mod := compileFaaS(b, "hash-load-balance")
	slab := lifecycleSlab(b, isolation.ColorGuard, mod)
	inst, err := coldStart(slab, mod)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := inst.Invoke(k.Entry, 1); err != nil {
			b.Fatal(err)
		}
		if err := inst.Reset(); err != nil {
			b.Fatal(err)
		}
	}
}

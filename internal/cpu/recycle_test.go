package cpu_test

import (
	"fmt"
	"testing"

	"repro/internal/cpu"
	"repro/internal/rt"
	"repro/internal/sfi"
	"repro/internal/telemetry"
	"repro/internal/workloads"
)

// machineState is everything about a machine that its owner can
// observe after a run: architectural state, every Stats field, and the
// hit and miss counts of the three cache structures.
type machineState struct {
	result         uint64
	regs           [16]uint64
	xmmLo, xmmHi   [16]uint64
	fs, gs         uint64
	pkru           uint32
	flags          [4]bool
	stats          cpu.Stats
	tlbHit, tlbMis uint64
	l1Hit, l1Mis   uint64
	l2Hit, l2Mis   uint64
}

func snapshot(m *cpu.Machine, result uint64) machineState {
	l1, l2 := m.Hier.L1D, m.Hier.L1D.Next
	return machineState{
		result: result,
		regs:   m.Regs, xmmLo: m.XmmLo, xmmHi: m.XmmHi,
		fs: m.FSBase, gs: m.GSBase, pkru: m.PKRU, flags: m.Flags(),
		stats:  m.Stats,
		tlbHit: m.Hier.DTLB.Hits(), tlbMis: m.Hier.DTLB.Misses(),
		l1Hit: l1.Hits(), l1Mis: l1.Misses(),
		l2Hit: l2.Hits(), l2Mis: l2.Misses(),
	}
}

// putOn moves inst onto machine m at the given tier. The host bindings
// close over the instance, not the machine, so they move with it.
func putOn(inst *rt.Instance, m *cpu.Machine, tier cpu.Tier) {
	m.Hosts = inst.Mach.Hosts
	m.Tier = tier
	inst.Mach = m
}

// recycleKernels are the three FaaS handlers and three SPEC stand-ins
// of different character: a sequential sweep of 256 KiB (which writes
// every L2 set), f64 arithmetic, and call-heavy branchy integer code.
func recycleKernels(t *testing.T) []workloads.Kernel {
	t.Helper()
	ks := append([]workloads.Kernel(nil), workloads.FaaS().Kernels...)
	if raceEnabled {
		return ks
	}
	for _, name := range []string{"401_bzip2", "444_namd", "445_gobmk"} {
		k, err := workloads.Spec2006().Find(name)
		if err != nil {
			t.Fatal(err)
		}
		ks = append(ks, k)
	}
	return ks
}

// TestRecycledMachineEqualsFresh pins the invariant the instance
// lifecycle rests on: a machine that ran kernel A and was released is,
// once handed out again, indistinguishable from one built from
// scratch. For every kernel B, mode and tier, B runs twice on a
// recycled machine (its previous owner: another kernel, same mode and
// tier) and twice on a never-pooled one; registers, xmm, flags, every
// Stats field and the dTLB/L1D/L2 counters must match after each run.
// The fused tier runs both in its profile warmup (the machine carries
// per-pc counts for A's program into the release) and eagerly fused.
func TestRecycledMachineEqualsFresh(t *testing.T) {
	kernels := recycleKernels(t)
	modes := []struct {
		name string
		mode sfi.Mode
	}{{"native", sfi.ModeNative}, {"guard", sfi.ModeGuard}, {"segue", sfi.ModeSegue}}
	tiers := []struct {
		name  string
		tier  cpu.Tier
		eager bool
	}{{"slow", cpu.TierSlow, false}, {"fast", cpu.TierFast, false},
		{"fused-warmup", cpu.TierFused, false}, {"fused", cpu.TierFused, true}}

	for _, md := range modes {
		mods := make([]*rt.Module, len(kernels))
		for i, k := range kernels {
			mod, err := rt.CompileModule(k.Build(false), sfi.DefaultConfig(md.mode))
			if err != nil {
				t.Fatalf("compiling %s/%s: %v", k.Name, md.name, err)
			}
			mods[i] = mod
		}
		// instantiate lays out a standalone instance of kernel i and puts
		// it on the machine pick returns.
		instantiate := func(i int, tier cpu.Tier, pick func(inst *rt.Instance) *cpu.Machine) *rt.Instance {
			inst, err := rt.NewInstance(mods[i], rt.InstanceOptions{FSGSBASE: true})
			if err != nil {
				t.Fatalf("instantiating %s: %v", kernels[i].Name, err)
			}
			putOn(inst, pick(inst), tier)
			return inst
		}
		invoke := func(inst *rt.Instance, i int) machineState {
			out, err := inst.Invoke(kernels[i].Entry, kernels[i].TestArgs...)
			if err != nil {
				t.Fatalf("%s/%s: %v", kernels[i].Name, md.name, err)
			}
			return snapshot(inst.Mach, out[0])
		}
		for _, tr := range tiers {
			cpu.SetFuseEager(tr.eager)
			for b := range kernels {
				a := (b + 1) % len(kernels)
				name := fmt.Sprintf("%s after %s, %s/%s", kernels[b].Name, kernels[a].Name, md.name, tr.name)

				fresh := instantiate(b, tr.tier, func(inst *rt.Instance) *cpu.Machine {
					return cpu.FromScratch(inst.AS, inst.Mod.Prog)
				})
				want1, want2 := invoke(fresh, b), invoke(fresh, b)

				prev := instantiate(a, tr.tier, func(inst *rt.Instance) *cpu.Machine { return inst.Mach })
				invoke(prev, a)
				used := prev.Mach
				recycled := instantiate(b, tr.tier, func(inst *rt.Instance) *cpu.Machine {
					return cpu.Recycle(used, inst.AS, inst.Mod.Prog)
				})
				if got := invoke(recycled, b); got != want1 {
					t.Fatalf("%s: first run differs\nrecycled %+v\nfresh    %+v", name, got, want1)
				}
				if got := invoke(recycled, b); got != want2 {
					t.Fatalf("%s: second run differs\nrecycled %+v\nfresh    %+v", name, got, want2)
				}
			}
		}
		cpu.SetFuseEager(false)
	}
}

// TestRecycleKeepsCostTableForSameProgram: a machine recycled into the
// program it ran before reuses its per-instruction cost table, and one
// recycled into another program does not mistake the old table for its
// own — either way the cycle count equals a from-scratch machine's.
func TestRecycleKeepsCostTableForSameProgram(t *testing.T) {
	kernels := recycleKernels(t)[:2]
	var mods [2]*rt.Module
	for i, k := range kernels {
		mod, err := rt.CompileModule(k.Build(false), sfi.DefaultConfig(sfi.ModeSegue))
		if err != nil {
			t.Fatal(err)
		}
		mods[i] = mod
	}
	run := func(i int, m func(inst *rt.Instance) *cpu.Machine) (*cpu.Machine, float64) {
		inst, err := rt.NewInstance(mods[i], rt.InstanceOptions{FSGSBASE: true})
		if err != nil {
			t.Fatal(err)
		}
		putOn(inst, m(inst), cpu.TierFast)
		if _, err := inst.Invoke(kernels[i].Entry, kernels[i].TestArgs...); err != nil {
			t.Fatal(err)
		}
		return inst.Mach, inst.Mach.Stats.Cycles
	}
	scratch := func(inst *rt.Instance) *cpu.Machine { return cpu.FromScratch(inst.AS, inst.Mod.Prog) }
	_, want0 := run(0, scratch)
	m, want1 := run(1, scratch)
	for _, next := range []int{1, 0, 0, 1} { // same program, other, same, other
		var got float64
		m, got = run(next, func(inst *rt.Instance) *cpu.Machine { return cpu.Recycle(m, inst.AS, inst.Mod.Prog) })
		if want := [2]float64{want0, want1}[next]; got != want {
			t.Fatalf("recycled into %s: %g cycles, from scratch %g", kernels[next].Name, got, want)
		}
	}
}

// TestMachineTurnoverCounters makes cpu.machines.fresh and
// cpu.machines.reused move: every NewMachine counts under exactly one.
// (Which one a given call lands on is the free list's business — the
// race detector makes sync.Pool drop items at random — so the test
// asserts the sum, and that a released machine is eventually reused.)
func TestMachineTurnoverCounters(t *testing.T) {
	defer telemetry.SetEnabled(telemetry.Enabled())
	telemetry.SetEnabled(true)
	fresh := telemetry.Default.Counter("cpu.machines.fresh")
	reused := telemetry.Default.Counter("cpu.machines.reused")
	f0, r0 := fresh.Load(), reused.Load()

	k := workloads.FaaS().Kernels[0]
	mod, err := rt.CompileModule(k.Build(false), sfi.DefaultConfig(sfi.ModeSegue))
	if err != nil {
		t.Fatal(err)
	}
	const n = 64
	for i := 0; i < n; i++ {
		inst, err := rt.NewInstance(mod, rt.InstanceOptions{FSGSBASE: true})
		if err != nil {
			t.Fatal(err)
		}
		if err := inst.Close(); err != nil {
			t.Fatal(err)
		}
	}
	df, dr := fresh.Load()-f0, reused.Load()-r0
	if df+dr != n {
		t.Fatalf("fresh %d + reused %d != %d constructions", df, dr, n)
	}
	if dr == 0 {
		t.Fatalf("%d instantiate/close cycles reused no machine (fresh %d)", n, df)
	}
	if df == n {
		t.Fatalf("every construction counted fresh")
	}
}

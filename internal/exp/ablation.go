package exp

import (
	"fmt"

	"repro/internal/ir"
	"repro/internal/isolation"
	"repro/internal/report"
	"repro/internal/rt"
	"repro/internal/sfi"
	"repro/internal/workloads"
)

// AblationSegueParts decomposes Segue's win on a memory-heavy kernel:
// classic SFI, register-only Segue (freed GPR + segment-carried base
// addition), loads-only, and full Segue (operand-slot folding + free
// truncation).
func (o Options) AblationSegueParts() (*report.Table, error) {
	k, err := workloads.Spec2006().Find("464_h264ref")
	if err != nil {
		return nil, err
	}
	cfgs := []struct {
		name string
		cfg  sfi.Config
	}{
		{"guard (classic SFI)", o.config(sfi.ModeGuard)},
		{"segue register-only", func() sfi.Config {
			c := o.config(sfi.ModeSegue)
			c.FoldOperandSlot = false
			return c
		}()},
		{"segue loads-only", func() sfi.Config {
			c := o.config(sfi.ModeSegue)
			c.SegueLoadsOnly = true
			return c
		}()},
		{"segue full", o.config(sfi.ModeSegue)},
		{"segue hybrid (cost function)", func() sfi.Config {
			c := o.config(sfi.ModeSegue)
			c.Hybrid = true
			return c
		}()},
	}
	t := &report.Table{
		ID: "ablation-segue", Title: "Decomposing Segue on 464_h264ref (normalized runtime)",
		Headers: []string{"configuration", "normalized", "insts", "code bytes"},
		Notes:   []string{"each step recovers part of the gap to native (1.0)"},
	}
	cells := []cell{{k, o.config(sfi.ModeNative), k.Args}}
	for _, c := range cfgs {
		cells = append(cells, cell{k, c.cfg, k.Args})
	}
	ms, errs := o.measureCells(cells)
	if err := firstErr(errs); err != nil {
		return nil, err
	}
	base := ms[0]
	for i, c := range cfgs {
		m := ms[i+1]
		t.AddRow(c.name, report.Norm(m.Cycles/base.Cycles), fmt.Sprintf("%d", m.Insts), fmt.Sprintf("%d", m.CodeBytes))
	}
	return t, nil
}

// AblationGuardGeometry contrasts the address-space/performance
// trade-offs of guard geometries: classic 4+4 GiB guards, Wasmtime's
// 2+2 GiB shared pre-guard scheme, and explicit bounds checks (no
// guards at all).
func (o Options) AblationGuardGeometry() (*report.Table, error) {
	k, err := workloads.Spec2006().Find("462_libquantum")
	if err != nil {
		return nil, err
	}
	signedCfg := o.config(sfi.ModeGuard)
	signedCfg.SignedOffset = true
	ms, errs := o.measureCells([]cell{
		{k, o.config(sfi.ModeNative), k.Args},
		{k, o.config(sfi.ModeGuard), k.Args},
		{k, signedCfg, k.Args},
		{k, o.config(sfi.ModeBoundsCheck), k.Args},
	})
	if err := firstErr(errs); err != nil {
		return nil, err
	}
	base, guard, signed, bounds := ms[0], ms[1], ms[2], ms[3]

	budget := uint64(85) << 40
	slots := func(guardB, pre uint64) int {
		l, err := isolation.PlanLayout(isolation.GuardPage, isolation.Config{
			MaxMemoryBytes: 4 << 30, GuardBytes: guardB,
			PreGuardBytes: pre, TotalBytes: budget,
		})
		if err != nil {
			return 0
		}
		return l.NumSlots
	}
	t := &report.Table{
		ID: "ablation-guards", Title: "Guard geometry: runtime cost vs 4 GiB-memory slot density",
		Headers: []string{"scheme", "normalized runtime", "slots in 85 TiB"},
		Notes: []string{
			"guard regions trade address space for zero-cost checks; bounds checks trade cycles for density",
		},
	}
	t.AddRow("4+4 GiB guards (classic Wasm)", report.Norm(guard.Cycles/base.Cycles), fmt.Sprintf("%d", slots(4<<30, 0)))
	t.AddRow("2+2 GiB signed-offset (Wasmtime)", report.Norm(signed.Cycles/base.Cycles), fmt.Sprintf("%d", slots(2<<30, 2<<30)))
	t.AddRow("explicit bounds checks", report.Norm(bounds.Cycles/base.Cycles), fmt.Sprintf("%d", slots(4096, 0)))
	return t, nil
}

// AblationStripeCount sweeps the available MPK keys to show the
// density frontier ColorGuard opens.
func (o Options) AblationStripeCount() (*report.Table, error) {
	budget := uint64(85) << 40
	maxMem := uint64(408) << 20
	guard := uint64(6)<<30 - maxMem
	t := &report.Table{
		ID: "ablation-stripes", Title: "Slot density vs available MPK keys (408 MB memories)",
		Headers: []string{"keys", "stripes", "slots", "density vs no striping"},
	}
	baseL, err := isolation.PlanLayout(isolation.GuardPage, isolation.Config{MaxMemoryBytes: maxMem, GuardBytes: guard, TotalBytes: budget})
	if err != nil {
		return nil, err
	}
	for _, keys := range []int{0, 2, 4, 8, 15} {
		l, err := isolation.PlanLayout(isolation.ColorGuard, isolation.Config{
			MaxMemoryBytes: maxMem, GuardBytes: guard,
			TotalBytes: budget, Keys: keys,
		})
		if err != nil {
			return nil, err
		}
		t.AddRow(fmt.Sprintf("%d", keys), fmt.Sprintf("%d", l.NumStripes), fmt.Sprintf("%d", l.NumSlots),
			fmt.Sprintf("%.2fx", float64(l.NumSlots)/float64(baseL.NumSlots)))
	}
	return t, nil
}

// AblationFSGSBASE quantifies §4.1's deployment concern: on CPUs
// without FSGSBASE, every segment-base write is an arch_prctl system
// call, which hurts transition-heavy workloads like per-glyph font
// rendering.
func (o Options) AblationFSGSBASE() (*report.Table, error) {
	k, err := workloads.Firefox().Find("font")
	if err != nil {
		return nil, err
	}
	measure := func(fsgsbase bool) (float64, error) {
		mod, err := rt.CompileModuleCached(
			rt.ModuleKey{Name: k.Name, Cfg: o.config(sfi.ModeSegue)},
			func() *ir.Module { return k.Build(false) })
		if err != nil {
			return 0, err
		}
		inst, err := o.instance(mod, rt.InstanceOptions{FSGSBASE: fsgsbase})
		if err != nil {
			return 0, err
		}
		const glyphs = 800
		for i := 0; i < glyphs; i++ {
			if _, err := inst.Invoke("glyph", uint64(i)); err != nil {
				return 0, err
			}
		}
		addSimCycles(inst.Mach.Stats.Cycles)
		return inst.Mach.Stats.Nanos(&inst.Mach.Cost) / glyphs, nil
	}
	res, errs := parallelMap(o, []bool{true, false}, measure)
	if err := firstErr(errs); err != nil {
		return nil, err
	}
	fast, slow := res[0], res[1]
	t := &report.Table{
		ID: "ablation-fsgsbase", Title: "Per-glyph cost: FSGSBASE vs arch_prctl segment writes",
		Headers: []string{"segment-write path", "ns/glyph"},
		Notes: []string{
			"pre-IvyBridge CPUs lack FSGSBASE; Firefox must fall back to the syscall (§4.1)",
			fmt.Sprintf("syscall fallback adds %s per glyph", report.Pct(slow/fast-1)),
		},
	}
	t.AddRow("wrgsbase (FSGSBASE)", fmt.Sprintf("%.1f", fast))
	t.AddRow("arch_prctl syscall", fmt.Sprintf("%.1f", slow))
	return t, nil
}

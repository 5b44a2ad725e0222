package exp

import (
	"fmt"

	"repro/internal/ir"
	"repro/internal/report"
	"repro/internal/rt"
	"repro/internal/sfi"
	"repro/internal/stats"
	"repro/internal/workloads"
)

// fig1Module builds the two code patterns of Figure 1.
func fig1Module() *ir.Module {
	m := ir.NewModule("fig1", 1, 1)
	p1 := m.NewFunc("pattern1", ir.Sig([]ir.ValType{ir.I64}, []ir.ValType{ir.I64}))
	p1.Get(0).I32WrapI64().I64Load(0)
	p1.MustBuild()
	p2 := m.NewFunc("pattern2", ir.Sig([]ir.ValType{ir.I32, ir.I32}, []ir.ValType{ir.I32}))
	p2.Get(1).I32(2).I32Shl().Get(0).I32Add()
	p2.I32Load(8)
	p2.MustBuild()
	m.MustExport("pattern1")
	m.MustExport("pattern2")
	if err := m.Validate(); err != nil {
		panic(err)
	}
	return m
}

// wamrBase is WAMR without Segue: guard-page SFI plus its vectorization
// pass. wamrSegue is WAMR's shipped "register-only" Segue (§4.2): the
// extra addressing operand is not exploited (FoldOperandSlot false) but
// the base register is freed and the heap-base addition rides the
// segment. wamrSegueLoads is the loads-only tuning.
func (o Options) wamrBase() sfi.Config {
	c := o.config(sfi.ModeGuard)
	c.Vectorize = true
	return c
}

// wamrNative is the native baseline for the WAMR comparisons: clang
// vectorizes the same loops WAMR's pass targets.
func (o Options) wamrNative() sfi.Config {
	c := o.config(sfi.ModeNative)
	c.Vectorize = true
	return c
}

func (o Options) wamrSegue() sfi.Config {
	c := o.config(sfi.ModeSegue)
	c.FoldOperandSlot = false
	c.Vectorize = true
	return c
}

func (o Options) wamrSegueLoads() sfi.Config {
	c := o.wamrSegue()
	c.SegueLoadsOnly = true
	return c
}

// Fig1Patterns reproduces the Figure 1 listing comparison: instruction
// count and encoded bytes of the two access patterns per mode.
func (o Options) Fig1Patterns() (*report.Table, error) {
	m := fig1Module()
	t := &report.Table{
		ID: "fig1", Title: "Figure 1 patterns: instructions / bytes per access",
		Headers: []string{"pattern", "native", "guard (classic SFI)", "segue"},
		Notes:   []string{"paper: each pattern takes two instructions classically, one with Segue"},
	}
	for fi, name := range []string{"int-to-ptr deref", "struct array read"} {
		row := []string{name}
		for _, mode := range []sfi.Mode{sfi.ModeNative, sfi.ModeGuard, sfi.ModeSegue} {
			prog, _, err := sfi.Compile(m, o.config(mode))
			if err != nil {
				return nil, err
			}
			f := prog.Funcs[fi]
			row = append(row, fmt.Sprintf("%d insts / %d B", len(f.Insts), f.ByteLen))
		}
		t.Rows = append(t.Rows, row)
	}
	return t, nil
}

// Fig3SpecWasm2c runs SPEC CPU 2006 under the Wasm2c-style full-Segue
// toolchain: normalized runtimes for guard SFI and Segue.
func (o Options) Fig3SpecWasm2c() (*report.Table, error) {
	t, norms, err := o.normalizedSuite(workloads.Spec2006(),
		[]sfi.Config{o.config(sfi.ModeGuard), o.config(sfi.ModeSegue)},
		[]string{"wasm2c", "wasm2c+segue"})
	if err != nil {
		return nil, err
	}
	t.ID, t.Title = "fig3", "SPEC CPU 2006 normalized runtime (native = 1.0)"
	g, s := geomeanOf(norms[0]), geomeanOf(norms[1])
	t.Notes = append(t.Notes,
		fmt.Sprintf("Segue eliminates %s of Wasm's geomean overhead (paper: 44.7%%)",
			report.Pct(overheadEliminated(g, s))),
		"paper outliers: 429_mcf runs faster than native (pointer compression); 473_astar slightly slower with Segue (prefix bytes)")
	return t, nil
}

// BoundsCheckSegue covers the §6.1 note: engines using explicit bounds
// checks (e.g. for memory64) also benefit from Segue.
func (o Options) BoundsCheckSegue() (*report.Table, error) {
	t, norms, err := o.normalizedSuite(workloads.Spec2006(),
		[]sfi.Config{o.config(sfi.ModeBoundsCheck), o.config(sfi.ModeBoundsSegue)},
		[]string{"bounds-check", "bounds-check+segue"})
	if err != nil {
		return nil, err
	}
	t.ID, t.Title = "boundsnote", "SPEC CPU 2006 with explicit bounds checks"
	b, s := geomeanOf(norms[0]), geomeanOf(norms[1])
	t.Notes = append(t.Notes,
		fmt.Sprintf("Segue eliminates %s of the bounds-check engine's overhead (paper: 25.2%%)",
			report.Pct(overheadEliminated(b, s))))
	return t, nil
}

// Table2BinarySize compares compiled code sizes with and without Segue.
func (o Options) Table2BinarySize() (*report.Table, error) {
	t := &report.Table{
		ID: "table2", Title: "Compiled binary sizes of SPEC CPU 2006",
		Headers: []string{"benchmark", "wasm2c", "wasm2c+segue", "reduction"},
		Notes:   []string{"paper: median reduction 5.9%, max 12.3%"},
	}
	kernels := workloads.Spec2006().Kernels
	var cells []cell
	for _, k := range kernels {
		cells = append(cells,
			cell{k, o.config(sfi.ModeGuard), k.TestArgs},
			cell{k, o.config(sfi.ModeSegue), k.TestArgs})
	}
	ms, errs := o.measureCells(cells)
	var reductions []float64
	for i, k := range kernels {
		g, s := ms[2*i], ms[2*i+1]
		if err := errs[2*i]; err != nil {
			return nil, err
		}
		if err := errs[2*i+1]; err != nil {
			return nil, err
		}
		red := 1 - float64(s.CodeBytes)/float64(g.CodeBytes)
		reductions = append(reductions, red)
		t.AddRow(k.Name, fmt.Sprintf("%d B", g.CodeBytes), fmt.Sprintf("%d B", s.CodeBytes), report.Pct(red))
	}
	t.Notes = append(t.Notes, fmt.Sprintf("median reduction: %s", report.Pct(stats.Median(reductions))))
	return t, nil
}

// firefoxTimes measures a sandboxed library workload under native,
// guard, and Segue compilation, reporting per-invocation costs and the
// overhead Segue eliminates. perCall selects the per-glyph invocation
// pattern (each call transitions) versus batch parsing.
func (o Options) firefoxTimes(kernelName, entry string, calls int, arg uint64) (*report.Table, error) {
	k, err := workloads.Firefox().Find(kernelName)
	if err != nil {
		return nil, err
	}
	measure := func(cfg sfi.Config) (float64, error) {
		mod, err := rt.CompileModuleCached(
			rt.ModuleKey{Name: k.Name, Cfg: cfg},
			func() *ir.Module { return k.Build(false) })
		if err != nil {
			return 0, err
		}
		inst, err := o.instance(mod, rt.InstanceOptions{FSGSBASE: true})
		if err != nil {
			return 0, err
		}
		for i := 0; i < calls; i++ {
			a := arg
			if entry == "glyph" {
				a = uint64(i)
			}
			if _, err := inst.Invoke(entry, a); err != nil {
				return 0, err
			}
		}
		addSimCycles(inst.Mach.Stats.Cycles)
		return inst.Mach.Stats.Nanos(&inst.Mach.Cost), nil
	}
	// The three configurations are independent single-instance runs; fan
	// them out over the engine.
	res, errs := parallelMap(o, []sfi.Config{
		o.config(sfi.ModeNative),
		o.config(sfi.ModeGuard),
		o.config(sfi.ModeSegue),
	}, measure)
	if err := firstErr(errs); err != nil {
		return nil, err
	}
	nat, guard, segue := res[0], res[1], res[2]
	t := &report.Table{
		Headers: []string{"configuration", "time (simulated ms, scaled)", "overhead vs native"},
	}
	// Scale so the native case lands near the paper's absolute numbers,
	// purely for readability; ratios are the measurement.
	scale := 1.0
	t.AddRow("unsandboxed", fmt.Sprintf("%.1f", nat*scale/1e6), "-")
	t.AddRow("sandboxed (wasm2c)", fmt.Sprintf("%.1f", guard*scale/1e6), report.Pct(guard/nat-1))
	t.AddRow("sandboxed + Segue", fmt.Sprintf("%.1f", segue*scale/1e6), report.Pct(segue/nat-1))
	t.Notes = append(t.Notes, fmt.Sprintf("Segue eliminates %s of the sandboxing overhead",
		report.Pct(overheadEliminated(guard/nat, segue/nat))))
	return t, nil
}

// FirefoxFont reproduces the font-rendering benchmark: many short
// sandbox invocations, one per glyph, so transition costs matter
// (paper: 264 / 356 / 287 ms — Segue removes 75% of the overhead).
func (o Options) FirefoxFont() (*report.Table, error) {
	t, err := o.firefoxTimes("font", "glyph", 1500, 0)
	if err != nil {
		return nil, err
	}
	t.ID, t.Title = "firefox-font", "Firefox font rendering (per-glyph sandbox invocations)"
	t.Notes = append(t.Notes, "paper: 264 ms native, 356 ms sandboxed, 287 ms with Segue (75% of overhead eliminated)")
	return t, nil
}

// FirefoxXML reproduces the XML-parsing benchmark: few, long
// invocations (paper: 331 / 381 / 347 ms — 68% eliminated).
func (o Options) FirefoxXML() (*report.Table, error) {
	t, err := o.firefoxTimes("xml", "run", 1, 120)
	if err != nil {
		return nil, err
	}
	t.ID, t.Title = "firefox-xml", "Firefox XML parsing (batch invocation)"
	t.Notes = append(t.Notes, "paper: 331 ms native, 381 ms sandboxed, 347 ms with Segue (68% of overhead eliminated)")
	return t, nil
}

// Fig4SightglassWAMR runs Sightglass under the WAMR configurations.
func (o Options) Fig4SightglassWAMR() (*report.Table, error) {
	t, norms, err := o.normalizedSuiteVs(workloads.Sightglass(), o.wamrNative(),
		[]sfi.Config{o.wamrBase(), o.wamrSegue(), o.wamrSegueLoads()},
		[]string{"wamr", "wamr+segue", "wamr+segue-loads"})
	if err != nil {
		return nil, err
	}
	t.ID, t.Title = "fig4", "Sightglass on WAMR, normalized to native"
	mm := norms[1]["memmove"] / norms[0]["memmove"]
	sv := norms[1]["sieve"] / norms[0]["sieve"]
	t.Notes = append(t.Notes,
		fmt.Sprintf("full Segue slows memmove %s and sieve %s vs WAMR (paper: +35.6%% and +48.7%%) — the vectorizer's store patterns stop matching",
			report.Pct(mm-1), report.Pct(sv-1)),
		fmt.Sprintf("loads-only Segue: memmove %s, sieve %s vs WAMR (paper: no slowdowns)",
			report.Pct(norms[2]["memmove"]/norms[0]["memmove"]-1), report.Pct(norms[2]["sieve"]/norms[0]["sieve"]-1)))
	return t, nil
}

// PolybenchWAMR compares WAMR with and without Segue on the Polybench
// suite (§6.2). The paper reports Wasm 6% FASTER than native (an LLVM
// codegen artifact we do not model); the reproduced claim is Segue's
// relative improvement over stock WAMR.
func (o Options) PolybenchWAMR() (*report.Table, error) {
	suite := workloads.Polybench()
	suite.Kernels = suite.Kernels[:len(suite.Kernels)-1] // dhrystone reported separately
	t, norms, err := o.normalizedSuiteVs(suite, o.wamrNative(),
		[]sfi.Config{o.wamrBase(), o.wamrSegue()},
		[]string{"wamr", "wamr+segue"})
	if err != nil {
		return nil, err
	}
	t.ID, t.Title = "polybench", "PolybenchC on WAMR, normalized to native"
	rel := geomeanOf(norms[0])/geomeanOf(norms[1]) - 1
	t.Notes = append(t.Notes,
		fmt.Sprintf("Segue improves WAMR's geomean by %s (paper: from +6%% to +10%% over native, a +3.8%% relative gain)", report.Pct(rel)),
		"deviation: the paper's WAMR beats native outright via LLVM vectorization differences our model does not include")
	return t, nil
}

// DhrystoneWAMR runs the Dhrystone comparison (§6.2).
func (o Options) DhrystoneWAMR() (*report.Table, error) {
	k, err := workloads.Polybench().Find("dhrystone")
	if err != nil {
		return nil, err
	}
	base, err := o.MeasureKernel(k, o.config(sfi.ModeNative), k.Args)
	if err != nil {
		return nil, err
	}
	g, err := o.MeasureKernel(k, o.wamrBase(), k.Args)
	if err != nil {
		return nil, err
	}
	s, err := o.MeasureKernel(k, o.wamrSegue(), k.Args)
	if err != nil {
		return nil, err
	}
	t := &report.Table{
		ID: "dhrystone", Title: "Dhrystone on WAMR, normalized to native",
		Headers: []string{"configuration", "normalized runtime"},
	}
	t.AddRow("wamr", report.Norm(g.Cycles/base.Cycles))
	t.AddRow("wamr+segue", report.Norm(s.Cycles/base.Cycles))
	t.Notes = append(t.Notes,
		fmt.Sprintf("Segue improves WAMR by %s relative (paper: +9.7%% -> +28.2%% over native, a +16.9%% relative gain)",
			report.Pct(g.Cycles/s.Cycles-1)))
	return t, nil
}

// Fig5SpecLFI runs SPEC CPU 2017 under the LFI x86-64 backend with and
// without Segue (§6.3): data accesses change, control-flow
// instrumentation stays.
func (o Options) Fig5SpecLFI() (*report.Table, error) {
	t, norms, err := o.normalizedSuite(workloads.Spec2017(),
		[]sfi.Config{o.config(sfi.ModeLFI), o.config(sfi.ModeLFISegue)},
		[]string{"lfi", "lfi+segue"})
	if err != nil {
		return nil, err
	}
	t.ID, t.Title = "fig5", "SPEC CPU 2017 on LFI, normalized to native"
	l, s := geomeanOf(norms[0]), geomeanOf(norms[1])
	t.Notes = append(t.Notes,
		fmt.Sprintf("LFI overhead %s -> %s with Segue; %s of overhead eliminated (paper: 17.4%% -> 9.4%%, 46%%)",
			report.Pct(l-1), report.Pct(s-1), report.Pct(overheadEliminated(l, s))))
	return t, nil
}

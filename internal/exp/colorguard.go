package exp

import (
	"fmt"

	"repro/internal/faas"
	"repro/internal/ir"
	"repro/internal/isolation"
	"repro/internal/mem"
	"repro/internal/pool"
	"repro/internal/report"
	"repro/internal/rt"
	"repro/internal/sfi"
	"repro/internal/verify"
	"repro/internal/workloads"
)

// nopModule is the empty exported function used by the transition
// microbenchmark.
func nopModule() *ir.Module {
	m := ir.NewModule("nop", 1, 1)
	fb := m.NewFunc("nop", ir.Sig(nil, []ir.ValType{ir.I32}))
	fb.I32(1)
	fb.MustBuild()
	m.MustExport("nop")
	if err := m.Validate(); err != nil {
		panic(err)
	}
	return m
}

// TransitionCost reproduces §6.4.1: the per-transition cost without and
// with ColorGuard's PKRU switch.
func (o Options) TransitionCost() (*report.Table, error) {
	measure := func(pkey uint8) (float64, error) {
		mod, err := rt.CompileModuleCached(
			rt.ModuleKey{Name: "nop", Cfg: o.config(sfi.ModeSegue)},
			nopModule)
		if err != nil {
			return 0, err
		}
		inst, err := o.instance(mod, rt.InstanceOptions{FSGSBASE: true, Place: isolation.Colored(pkey)})
		if err != nil {
			return 0, err
		}
		const reps = 10
		for i := 0; i < reps; i++ {
			if _, err := inst.Invoke("nop"); err != nil {
				return 0, err
			}
		}
		// Two transitions (in+out) per invoke; subtract the function
		// body by measuring the whole and dividing per transition.
		return inst.Mach.Stats.Nanos(&inst.Mach.Cost) / (2 * reps), nil
	}
	res, errs := parallelMap(o, []uint8{0, 5}, measure)
	if err := firstErr(errs); err != nil {
		return nil, err
	}
	plain, cg := res[0], res[1]
	t := &report.Table{
		ID: "transition", Title: "Per-transition cost (§6.4.1)",
		Headers: []string{"configuration", "ns/transition"},
		Notes: []string{
			"paper: 30.34 ns -> 51.52 ns (a ~44-cycle WRPKRU each way at 2.2 GHz)",
			fmt.Sprintf("measured increase: %.2f ns", cg-plain),
		},
	}
	t.AddRow("wasmtime", fmt.Sprintf("%.2f", plain))
	t.AddRow("wasmtime+colorguard", fmt.Sprintf("%.2f", cg))
	return t, nil
}

// ScalingSlots reproduces §6.4.2: slot counts for 408 MB slots in a
// fixed address budget, without and with ColorGuard striping.
func (o Options) ScalingSlots() (*report.Table, error) {
	budget := uint64(85) << 40
	maxMem := uint64(408) << 20
	guard := uint64(6)<<30 - maxMem
	base := isolation.Config{MaxMemoryBytes: maxMem, GuardBytes: guard, TotalBytes: budget}
	withCG := base
	withCG.Keys = 15
	l0, err := isolation.PlanLayout(isolation.GuardPage, base)
	if err != nil {
		return nil, err
	}
	l1, err := isolation.PlanLayout(isolation.ColorGuard, withCG)
	if err != nil {
		return nil, err
	}
	if err := l1.Validate(); err != nil {
		return nil, fmt.Errorf("striped layout invalid: %w", err)
	}
	t := &report.Table{
		ID: "scaling", Title: "Memory slots in an 85 TiB reservation, 408 MB linear memories",
		Headers: []string{"configuration", "slots", "stripes", "slot stride"},
		Notes: []string{
			"paper: 14,582 slots -> 218,716 (≈15x)",
			fmt.Sprintf("measured ratio: %.2fx", float64(l1.NumSlots)/float64(l0.NumSlots)),
		},
	}
	t.AddRow("wasmtime", fmt.Sprintf("%d", l0.NumSlots), fmt.Sprintf("%d", l0.NumStripes), fmt.Sprintf("%d MB", l0.SlotBytes>>20))
	t.AddRow("wasmtime+colorguard", fmt.Sprintf("%d", l1.NumSlots), fmt.Sprintf("%d", l1.NumStripes), fmt.Sprintf("%d MB", l1.SlotBytes>>20))
	return t, nil
}

// faasWorkloads measures the three handlers' per-request compute costs
// on the emulator and returns the simulation workload descriptions.
// Per request: one batch of the handler's natural unit (a full URL set
// for filtering/balancing, a page render for templating).
func (o Options) faasWorkloads() ([]faas.Workload, error) {
	defs := []struct {
		kernel string
		batch  uint64
		pages  int
	}{
		{"html-templating", 10, 24},
		{"hash-load-balance", 256, 40},
		{"regex-filtering", 280, 48},
	}
	out, errs := parallelMap(o, defs, func(d struct {
		kernel string
		batch  uint64
		pages  int
	}) (faas.Workload, error) {
		k, err := workloads.FaaS().Find(d.kernel)
		if err != nil {
			return faas.Workload{}, err
		}
		m, err := o.MeasureKernel(k, o.config(sfi.ModeSegue), []uint64{d.batch})
		if err != nil {
			return faas.Workload{}, err
		}
		return faas.Workload{Name: d.kernel, ComputeNs: m.Nanos, Pages: d.pages}, nil
	})
	if err := firstErr(errs); err != nil {
		return nil, err
	}
	return out, nil
}

// gainVsMultiprocess runs the Figure 6 comparison: ColorGuard in one
// process versus n-process scaling on the same load, returning the
// percentage throughput gain and both results. The two sides are the
// same simulation under two isolation-backend cost models.
func (o Options) gainVsMultiprocess(w faas.Workload, n int) (gainPct float64, cg, mp faas.Result) {
	cgCfg := faas.KindConfig(w, isolation.ColorGuard, 1)
	mpCfg := faas.KindConfig(w, isolation.MultiProc, n)
	cgCfg.Scheme, mpCfg.Scheme = o.Scheme, o.Scheme
	cg, mp = o.simulate(cgCfg), o.simulate(mpCfg)
	return (cg.ThroughputRPS/mp.ThroughputRPS - 1) * 100, cg, mp
}

// Fig6Throughput runs the ColorGuard-vs-multiprocess scaling comparison
// for the three FaaS workloads across 1..15 processes.
func (o Options) Fig6Throughput() (*report.Table, error) {
	ws, err := o.faasWorkloads()
	if err != nil {
		return nil, err
	}
	t := &report.Table{
		ID: "fig6", Title: "Throughput gain of ColorGuard vs multiprocess scaling (%)",
		Headers: []string{"processes", ws[0].Name, ws[1].Name, ws[2].Name},
		Notes:   []string{"paper: gain grows with process count, up to ≈29%"},
	}
	// Each process count is an independent pair of simulations; build
	// the rows in parallel and append them in order.
	rows, errs := parallelMap(o, []int{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15},
		func(n int) ([]string, error) {
			row := []string{fmt.Sprintf("%d", n)}
			for _, w := range ws {
				gain, _, _ := o.gainVsMultiprocess(w, n)
				row = append(row, fmt.Sprintf("%.1f", gain))
			}
			return row, nil
		})
	if err := firstErr(errs); err != nil {
		return nil, err
	}
	t.Rows = append(t.Rows, rows...)
	return t, nil
}

// Fig7aContextSwitches reports the context-switch counts behind the
// throughput difference.
func (o Options) Fig7aContextSwitches() (*report.Table, error) {
	return o.fig7(true)
}

// Fig7bDTLBMisses reports the dTLB miss counts.
func (o Options) Fig7bDTLBMisses() (*report.Table, error) {
	return o.fig7(false)
}

func (o Options) fig7(switches bool) (*report.Table, error) {
	ws, err := o.faasWorkloads()
	if err != nil {
		return nil, err
	}
	t := &report.Table{Headers: []string{"processes"}}
	if switches {
		t.ID, t.Title = "fig7a", "Context switches over the simulated run (thousands)"
		t.Notes = []string{"paper: ColorGuard constant; multiprocess grows with each added process"}
	} else {
		t.ID, t.Title = "fig7b", "dTLB misses over the simulated run (millions)"
		t.Notes = []string{"paper: multiprocess misses grow faster than ColorGuard's"}
	}
	for _, w := range ws {
		t.Headers = append(t.Headers, w.Name+" (mp)", w.Name+" (cg)")
	}
	rows, errs := parallelMap(o, []int{1, 3, 5, 7, 9, 11, 13, 15},
		func(n int) ([]string, error) {
			row := []string{fmt.Sprintf("%d", n)}
			for _, w := range ws {
				_, cg, mp := o.gainVsMultiprocess(w, n)
				if switches {
					row = append(row, fmt.Sprintf("%.1fK", float64(mp.CtxSwitches)/1e3), fmt.Sprintf("%.1fK", float64(cg.CtxSwitches)/1e3))
				} else {
					row = append(row, fmt.Sprintf("%.2fM", float64(mp.DTLBMisses)/1e6), fmt.Sprintf("%.2fM", float64(cg.DTLBMisses)/1e6))
				}
			}
			return row, nil
		})
	if err := firstErr(errs); err != nil {
		return nil, err
	}
	t.Rows = append(t.Rows, rows...)
	return t, nil
}

// Table1Verification reproduces §5.2: the adversarial verification of
// the slot-layout computation finds the saturating-add bug and the
// missing preconditions in the legacy code, and nothing in the fixed
// version.
func (o Options) Table1Verification() (*report.Table, error) {
	legacy := verify.Verify(pool.ComputeLayoutLegacy, 4000, 42)
	fixed := verify.Verify(pool.ComputeLayout, 4000, 42)
	t := &report.Table{
		ID: "table1", Title: "Layout verification under the adversarial caller model",
		Headers: []string{"implementation", "layouts checked", "inputs rejected", "violations"},
		Notes: []string{
			"paper: verification found one bug (saturating add breaking invariant 1) and four missing preconditions (invariants 7-10)",
		},
	}
	t.AddRow("legacy (pre-verification)", fmt.Sprintf("%d", legacy.Checked), fmt.Sprintf("%d", legacy.Rejected), fmt.Sprintf("%d", len(legacy.Findings)))
	t.AddRow("fixed (post-verification)", fmt.Sprintf("%d", fixed.Checked), fmt.Sprintf("%d", fixed.Rejected), fmt.Sprintf("%d", len(fixed.Findings)))
	classes := verify.Classify(legacy.Findings)
	for _, inv := range []string{"invariant 1", "invariant 2", "invariant 3", "invariant 5", "invariant 6", "invariant 7", "invariant 8", "invariant 9", "invariant 10"} {
		if n := classes[inv]; n > 0 {
			t.Notes = append(t.Notes, fmt.Sprintf("legacy violations of %s: %d", inv, n))
		}
	}
	if !fixed.Sound() {
		return nil, fmt.Errorf("fixed layout computation has findings: %s", fixed.String())
	}
	return t, nil
}

// MTEObservations reproduces §7's two cost observations on
// ColorGuard-MTE, plus the proposed tag-preserving madvise fix. Each
// configuration is one isolation backend: the plain baseline is the
// guard-page backend (mmap+zero, madvise — no coloring costs), the MTE
// rows are the MTE backend with and without the preserving madvise. The
// costs come out of the same Allocate/Recycle accounting the FaaS
// simulator consumes.
func (o Options) MTEObservations() (*report.Table, error) {
	const size = 65536
	const instances = 40
	run := func(kind isolation.Kind, preserve bool) (initNs, teardownNs float64) {
		b, err := isolation.NewReserved(kind, mem.NewAS(47), isolation.Config{
			Slots:                 instances,
			MaxMemoryBytes:        size,
			GuardBytes:            1 << 20,
			PreserveTagsOnMadvise: preserve,
		})
		if err != nil {
			panic(err) // static geometry; cannot fail
		}
		slots := make([]isolation.Slot, instances)
		for i := range slots {
			s, err := b.Allocate(size)
			if err != nil {
				panic(err)
			}
			slots[i] = s
		}
		for _, s := range slots {
			if err := b.Recycle(s); err != nil {
				panic(err)
			}
		}
		init, teardown := b.LifecycleNs()
		return init / instances, teardown / instances
	}
	pi, pt := run(isolation.GuardPage, false)
	mi, mt := run(isolation.MTE, false)
	fi, ft := run(isolation.MTE, true)
	t := &report.Table{
		ID: "mte", Title: "ColorGuard-MTE: per-instance costs for 40 x 64 KiB memories (µs)",
		Headers: []string{"configuration", "init µs", "teardown µs"},
		Notes: []string{
			"paper observation 1: init 79 µs -> 2,182 µs (user-level tagging moves 32 B/instruction)",
			"paper observation 2: teardown 29 µs -> 377 µs (madvise discards tags; MPK colors survive)",
			"the proposed tag-preserving madvise restores MPK-like recycling",
		},
	}
	t.AddRow("no MTE", fmt.Sprintf("%.0f", pi/1e3), fmt.Sprintf("%.0f", pt/1e3))
	t.AddRow("MTE (current kernel)", fmt.Sprintf("%.0f", mi/1e3), fmt.Sprintf("%.0f", mt/1e3))
	t.AddRow("MTE + tag-preserving madvise", fmt.Sprintf("%.0f", fi/1e3), fmt.Sprintf("%.0f", ft/1e3))
	return t, nil
}

package exp

import (
	"fmt"

	"repro/internal/faas"
	"repro/internal/ir"
	"repro/internal/isolation"
	"repro/internal/report"
	"repro/internal/sfi"
	"repro/internal/workloads"
)

// SwivelHardening crosses the Spectre-hardening schemes with Segue
// on/off — the composition question the source paper leaves open: does
// Segue's addressing win survive once the sandbox must also be
// Spectre-safe? Kernel rows report the hardening tax (hardened cycles /
// unhardened cycles, same SFI mode) under classic guard-page SFI and
// under Segue, plus the segue/guard cycle ratio at that hardening
// level. The faas/<backend> rows re-run the FaaS mix on each isolation
// backend with the hardened kernel's measured compute time and report
// throughput retention (hardened rps / unhardened rps) the same way.
//
// The kernel roster spans the instruction mixes the schemes price
// differently: 470_lbm is straight-line f64 streaming (interlocks
// only), 445_gobmk is call-heavy (return flushes), indirect-dispatch
// makes an indirect call per loop iteration (Swivel-SFI's worst case),
// and regex-filtering is the FaaS mix's representative.
func (o Options) SwivelHardening() (*report.Table, error) {
	spec := workloads.Spec2006()
	lbm, err := spec.Find("470_lbm")
	if err != nil {
		return nil, err
	}
	gobmk, err := spec.Find("445_gobmk")
	if err != nil {
		return nil, err
	}
	regex, err := workloads.FaaS().Find("regex-filtering")
	if err != nil {
		return nil, err
	}
	indirect := indirectDispatchKernel()

	type km struct {
		k    workloads.Kernel
		args []uint64
	}
	kernels := []km{
		{lbm, lbm.TestArgs},
		{gobmk, gobmk.TestArgs},
		{indirect, indirect.Args},
		{regex, regex.TestArgs},
	}
	hardens := sfi.Hardens()
	modes := []sfi.Mode{sfi.ModeGuard, sfi.ModeSegue}

	// Lay the cells out kernel-major, then harden, then mode, so index
	// arithmetic below recovers any (kernel, harden, mode) measurement.
	var cells []cell
	for _, kk := range kernels {
		for _, h := range hardens {
			for _, mode := range modes {
				cfg := o.config(mode)
				cfg.Harden = h
				cells = append(cells, cell{kk.k, cfg, kk.args})
			}
		}
	}
	ms, errs := o.measureCells(cells)
	if err := firstErr(errs); err != nil {
		return nil, err
	}
	at := func(ki, hi, mi int) Measurement {
		return ms[ki*len(hardens)*len(modes)+hi*len(modes)+mi]
	}
	const guardIdx, segueIdx = 0, 1

	// Self-check 1 (inertness): HardenNone must be architecturally
	// invisible — the full measurement (cycles, checksum, instruction
	// and fetch counts, code bytes) under an explicit HardenNone config
	// must equal a config built the pre-hardening way, with no Harden
	// field set at all.
	for ki, kk := range kernels {
		for mi, mode := range modes {
			legacy := sfi.Config{Mode: mode, FoldOperandSlot: true, FoldDispLimit: 1 << 30}
			lm, err := o.MeasureKernel(kk.k, legacy, kk.args)
			if err != nil {
				return nil, err
			}
			if got := at(ki, int(sfi.HardenNone), mi); got != lm {
				return nil, fmt.Errorf("exp: %s/%s: HardenNone measurement %+v differs from pre-hardening config %+v",
					kk.k.Name, mode, got, lm)
			}
		}
	}
	// Self-check 2: hardening is cost-only — checksums never move
	// across schemes or modes.
	for ki, kk := range kernels {
		want := at(ki, 0, 0).Checksum
		for hi := range hardens {
			for mi := range modes {
				if got := at(ki, hi, mi).Checksum; got != want {
					return nil, fmt.Errorf("exp: %s: checksum %#x under %s/%s != baseline %#x",
						kk.k.Name, got, hardens[hi], modes[mi], want)
				}
			}
		}
	}
	tax := func(ki, hi, mi int) float64 {
		return at(ki, hi, mi).Cycles / at(ki, int(sfi.HardenNone), mi).Cycles
	}
	// Self-check 3: Swivel-SFI's flush tax must land where the scheme
	// says it does — visibly heavier on the indirect-call-heavy kernel
	// than on the straight-line one, and heavier than both no-flush
	// variants on that same kernel.
	const lbmIdx, indirectIdx = 0, 2
	sfiTax := tax(indirectIdx, int(sfi.HardenSwivelSFI), segueIdx)
	if straight := tax(lbmIdx, int(sfi.HardenSwivelSFI), segueIdx); sfiTax <= straight {
		return nil, fmt.Errorf("exp: swivel-sfi tax %.3f on indirect-dispatch <= %.3f on 470_lbm", sfiTax, straight)
	}
	for _, h := range []sfi.Harden{sfi.HardenSwivelCET, sfi.HardenDeterministic} {
		if t := tax(indirectIdx, int(h), segueIdx); t >= sfiTax {
			return nil, fmt.Errorf("exp: %s tax %.3f >= swivel-sfi tax %.3f on indirect-dispatch", h, t, sfiTax)
		}
	}

	t := &report.Table{
		ID: "hardening", Title: "Spectre-hardening tax across SFI modes and isolation backends (Swivel)",
		Headers: []string{"workload", "harden", "guard", "segue", "segue/guard"},
		Notes: []string{
			"kernel rows: hardened cycles / unhardened cycles under the same SFI mode (tax, >= 1); segue/guard: cycle ratio at that hardening level",
			"faas/<backend> rows: FaaS mix throughput retention (hardened rps / unhardened rps, <= 1) with the hardened regex-filtering kernel's measured compute, extrapolated to the production batch; multiproc simulated at 8 processes",
			"swivel-sfi prices BTB flushes on indirect transfers plus load/back-edge interlocks; swivel-cet and deterministic price endbranch pads and SLH masks only",
		},
	}
	for ki, kk := range kernels {
		for hi := range hardens {
			t.Rows = append(t.Rows, []string{
				kk.k.Name,
				hardens[hi].String(),
				fmt.Sprintf("%.3f", tax(ki, hi, guardIdx)),
				fmt.Sprintf("%.3f", tax(ki, hi, segueIdx)),
				fmt.Sprintf("%.3f", at(ki, hi, segueIdx).Cycles/at(ki, hi, guardIdx).Cycles),
			})
		}
	}

	// FaaS composition: the hardened regex-filtering kernel's measured
	// per-request compute (extrapolated from the test batch to the
	// production batch) drives the simulator on every backend.
	const regexIdx = 3
	// Extrapolate the test-batch measurement to the FaaS-mix batch the
	// colorguard experiments serve (280 requests' worth of filtering),
	// keeping per-request compute in the regime the mix saturates.
	const faasMixBatch = 280
	scale := faasMixBatch / float64(regex.TestArgs[0])
	rps := func(hi, mi int, kind isolation.Kind, procs int) float64 {
		w := faas.Workload{
			Name:      regex.Name,
			ComputeNs: at(regexIdx, hi, mi).Nanos * scale,
			Pages:     48,
		}
		cfg := faas.KindConfig(w, kind, procs)
		cfg.Scheme = o.Scheme
		cfg.ArrivalsPerEpoch = 250
		cfg.DurationNs = 0.5e9
		return o.simulate(cfg).ThroughputRPS
	}
	backends := []struct {
		kind  isolation.Kind
		procs int
	}{
		{isolation.GuardPage, 1},
		{isolation.ColorGuard, 1},
		{isolation.MTE, 1},
		{isolation.MultiProc, 8},
	}
	for _, b := range backends {
		baseGuard := rps(int(sfi.HardenNone), guardIdx, b.kind, b.procs)
		baseSegue := rps(int(sfi.HardenNone), segueIdx, b.kind, b.procs)
		for hi := range hardens {
			g := rps(hi, guardIdx, b.kind, b.procs)
			s := rps(hi, segueIdx, b.kind, b.procs)
			t.Rows = append(t.Rows, []string{
				"faas/" + string(b.kind),
				hardens[hi].String(),
				fmt.Sprintf("%.3f", g/baseGuard),
				fmt.Sprintf("%.3f", s/baseSegue),
				fmt.Sprintf("%.3f", s/g),
			})
		}
	}
	return t, nil
}

// indirectDispatchKernel builds the Swivel-SFI worst case: a loop whose
// every iteration makes an indirect call through the function table
// (one BTB flush at the call, another at the callee's return).
func indirectDispatchKernel() workloads.Kernel {
	build := func(bool) *ir.Module {
		m := ir.NewModule("indirect-dispatch", 1, 1)
		sig := ir.Sig([]ir.ValType{ir.I32}, []ir.ValType{ir.I32})
		mix := m.NewFunc("step_mix", sig)
		mix.Get(0).I32(-0x61C88647).I32Mul().Get(0).I32(13).I32ShrU().I32Xor()
		mix.MustBuild()
		add := m.NewFunc("step_add", sig)
		add.Get(0).I32(40503).I32Mul().I32(60493).I32Add()
		add.MustBuild()
		mi, _ := m.FuncIndex("step_mix")
		ai, _ := m.FuncIndex("step_add")
		m.Table = []uint32{mi, ai}

		// run(n): acc = 1; n times: acc = table[acc & 1](acc)
		f := m.NewFunc("run", ir.Sig([]ir.ValType{ir.I32}, []ir.ValType{ir.I32}), ir.I32, ir.I32)
		const acc, i = 1, 2
		f.I32(1).Set(acc)
		f.LoopNDyn(i, 0, 0, 1, func() {
			f.Get(acc)
			f.Get(acc).I32(1).I32And()
			f.CallIndirect(sig)
			f.Set(acc)
		})
		f.Get(acc)
		f.MustBuild()
		m.MustExport("run")
		return m
	}
	return workloads.Kernel{
		Name:     "indirect-dispatch",
		Build:    build,
		Entry:    "run",
		Args:     []uint64{4000},
		TestArgs: []uint64{200},
	}
}

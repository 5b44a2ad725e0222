package exp

import (
	"fmt"

	"repro/internal/faas"
	"repro/internal/isolation"
	"repro/internal/mem"
	"repro/internal/report"
	"repro/internal/rt"
	"repro/internal/sfi"
)

// TransitionSchemes crosses the four transition schemes with the four
// isolation backends: the §6.4.1 microbenchmark re-run under each
// calling convention, next to the FaaS throughput the convention buys.
// Three views per cell agree on the same cost model:
//
//   - model ns: TransitionForScheme's enter+leave round trip — the
//     convention cost plus the mechanism tax the kind cannot shed
//   - rt ns: the runtime's measured per-transition cost on a placed
//     instance (convention cycles + segment-base write + WRPKRU)
//   - faas rps: a synthetic FaaS mix simulated under the scheme
//
// The scheme only prices the convention half of a crossing, so
// ColorGuard keeps its WRPKRU gap over guardpage in every row, and
// multiproc's context-switch and cache-refill costs never move.
func (o Options) TransitionSchemes() (*report.Table, error) {
	kinds := []struct {
		kind  isolation.Kind
		procs int
	}{
		{isolation.GuardPage, 1},
		{isolation.ColorGuard, 1},
		{isolation.MTE, 1},
		{isolation.MultiProc, 8},
	}

	type cell struct {
		scheme isolation.Scheme
		kind   isolation.Kind
		procs  int
	}
	var cells []cell
	for _, s := range isolation.Schemes() {
		for _, k := range kinds {
			cells = append(cells, cell{s, k.kind, k.procs})
		}
	}

	// Synthetic per-request cost (as in FaultSweep): no emulator
	// measurement, so the golden depends only on the simulator and the
	// isolation cost models. The kernel is small (5 µs) and the offered
	// load saturating, so the throughput column is overhead-bound and
	// the convention choice is visible in it.
	w := faas.Workload{Name: "synthetic", ComputeNs: 5_000, Pages: 16}

	rows, errs := parallelMap(o, cells, func(c cell) ([]string, error) {
		model := isolation.TransitionForScheme(c.scheme, c.kind)
		rtNs, err := o.measureSchemeTransition(c.scheme, c.kind)
		if err != nil {
			return nil, err
		}
		cfg := faas.KindConfig(w, c.kind, c.procs)
		cfg.Scheme = c.scheme
		cfg.ArrivalsPerEpoch = 250
		cfg.DurationNs = 0.5e9
		r := o.simulate(cfg)
		return []string{
			string(c.scheme),
			string(c.kind),
			fmt.Sprintf("%.2f", model.RoundTripNs()),
			fmt.Sprintf("%.2f", rtNs),
			fmt.Sprintf("%.0f", r.ThroughputRPS),
		}, nil
	})
	if err := firstErr(errs); err != nil {
		return nil, err
	}

	// Self-check the headline claim before pinning it into the golden:
	// the zero-cost convention must beat the default round trip on every
	// same-process backend.
	roundTrip := func(s isolation.Scheme, k isolation.Kind) float64 {
		return isolation.TransitionForScheme(s, k).RoundTripNs()
	}
	for _, k := range []isolation.Kind{isolation.GuardPage, isolation.ColorGuard, isolation.MTE} {
		if zc, def := roundTrip(isolation.SchemeZeroCost, k), roundTrip(isolation.SchemeDefault, k); zc >= def {
			return nil, fmt.Errorf("exp: zerocost round trip %.2f ns >= default %.2f ns on %s", zc, def, k)
		}
	}

	t := &report.Table{
		ID: "transitions", Title: "Transition schemes across isolation backends (§6.4.1 + FaaS mix)",
		Headers: []string{"scheme", "backend", "model rt ns", "rt ns/trans", "faas rps"},
		Notes: []string{
			"model rt ns: enter+leave round trip from the isolation cost model; rt ns/trans: measured per transition on a placed runtime instance",
			"faas rps: synthetic 5 µs/request mix at saturating load (250 arrivals/ms epoch); multiproc simulated at 8 processes",
			"schemes price the calling convention only: ColorGuard keeps its WRPKRU tax and multiproc its switch+refill costs under every scheme",
		},
	}
	t.Rows = append(t.Rows, rows...)
	return t, nil
}

// measureSchemeTransition runs the nop microbenchmark on an instance
// placed in a backend of the kind and charged under the scheme, and
// returns the measured ns per transition (two transitions per invoke).
func (o Options) measureSchemeTransition(scheme isolation.Scheme, kind isolation.Kind) (float64, error) {
	mod, err := rt.CompileModuleCached(
		rt.ModuleKey{Name: "nop", Cfg: o.config(sfi.ModeSegue)},
		nopModule)
	if err != nil {
		return 0, err
	}
	// 16 slots so ColorGuard's striping has room for its 15 keys — a
	// single-slot pool collapses to one stripe and the slot loses its
	// color (and with it the WRPKRU this microbenchmark measures).
	cfg := isolation.Config{
		Slots:          16,
		MaxMemoryBytes: 1 << 20,
		GuardBytes:     1 << 20,
	}
	if kind == isolation.ColorGuard {
		cfg.Keys = 15
	}
	b, err := isolation.NewReserved(kind, mem.NewAS(47), cfg)
	if err != nil {
		return 0, err
	}
	defer b.Release()
	slot, err := b.Allocate(1 << 16)
	if err != nil {
		return 0, err
	}
	inst, err := o.instance(mod, rt.InstanceOptions{
		FSGSBASE: true,
		Place:    isolation.Place(b, slot),
		Scheme:   scheme,
	})
	if err != nil {
		return 0, err
	}
	defer inst.Close()
	const reps = 10
	for i := 0; i < reps; i++ {
		if _, err := inst.Invoke("nop"); err != nil {
			return 0, err
		}
	}
	return inst.Mach.Stats.Nanos(&inst.Mach.Cost) / (2 * reps), nil
}

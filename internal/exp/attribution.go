package exp

import (
	"fmt"
	"math"

	"repro/internal/faas"
	"repro/internal/isolation"
	"repro/internal/report"
	"repro/internal/telemetry"
)

// Attribution decomposes the simulated serving latency into the fixed
// observability phases, per transition scheme × isolation backend: the
// table form of the paper's central claim that a scheme or mechanism
// improves a *specific* phase of a sandboxed call. Each row is the mean
// virtual nanoseconds a completed request spends in each phase, so
// "zerocost removes X ns of the transition phase, not the queue phase"
// is directly readable: between schemes on the same backend, only the
// trans column moves; between backends under one scheme, the exec and
// place columns carry the mechanism differences.
//
// The load is deliberately non-saturating (the queue column must be a
// stable property of the configuration, not of queue blow-up), and
// cold starts are on so the placement phase is populated.
func (o Options) Attribution() (*report.Table, error) {
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

	w := faas.Workload{Name: "synthetic", ComputeNs: 5_000, Pages: 16}
	run := func(c cell) faas.Result {
		cfg := faas.KindConfig(w, c.kind, c.procs)
		cfg.Scheme = c.scheme
		cfg.ArrivalsPerEpoch = 2
		cfg.DurationNs = 0.5e9
		cfg.ColdStart = true
		cfg.InstanceBytes = 4 << 10
		cfg.RecordPhases = true
		return o.simulate(cfg)
	}

	// mean phase shares per completed request, with entry+exit folded
	// into one transition column.
	type shares struct {
		io, queue, place, trans, exec, total float64
	}
	phaseShares := func(r faas.Result) shares {
		n := float64(r.Completed)
		p := r.PhaseTotalsNs
		s := shares{
			io:    p[telemetry.PhaseIO] / n,
			queue: p[telemetry.PhaseQueue] / n,
			place: p[telemetry.PhasePlacement] / n,
			trans: (p[telemetry.PhaseTransitionIn] + p[telemetry.PhaseTransitionOut]) / n,
			exec:  p[telemetry.PhaseExec] / n,
		}
		s.total = s.io + s.queue + s.place + s.trans + s.exec
		return s
	}

	rows, errs := parallelMap(o, cells, func(c cell) ([]string, error) {
		r := run(c)
		if r.Completed == 0 {
			return nil, fmt.Errorf("exp: attribution %s/%s completed no requests", c.scheme, c.kind)
		}
		s := phaseShares(r)
		return []string{
			string(c.scheme),
			string(c.kind),
			fmt.Sprintf("%.1f", s.io),
			fmt.Sprintf("%.1f", s.queue),
			fmt.Sprintf("%.1f", s.place),
			fmt.Sprintf("%.2f", s.trans),
			fmt.Sprintf("%.1f", s.exec),
			fmt.Sprintf("%.1f", s.total),
		}, nil
	})
	if err := firstErr(errs); err != nil {
		return nil, err
	}

	// Self-check the headline claim before pinning it: on every
	// same-process backend, moving default → zerocost must shift the
	// transition phase by about the cost-model delta while leaving the
	// exec phase essentially untouched.
	for _, k := range []isolation.Kind{isolation.GuardPage, isolation.ColorGuard, isolation.MTE} {
		def := phaseShares(run(cell{isolation.SchemeDefault, k, 1}))
		zc := phaseShares(run(cell{isolation.SchemeZeroCost, k, 1}))
		modelDelta := isolation.TransitionForScheme(isolation.SchemeDefault, k).RoundTripNs() -
			isolation.TransitionForScheme(isolation.SchemeZeroCost, k).RoundTripNs()
		transDelta := def.trans - zc.trans
		if transDelta < 0.9*modelDelta || transDelta > 1.1*modelDelta {
			return nil, fmt.Errorf("exp: attribution %s: transition delta %.2f ns vs model %.2f ns", k, transDelta, modelDelta)
		}
		if execDelta := math.Abs(def.exec - zc.exec); execDelta > 0.1*modelDelta {
			return nil, fmt.Errorf("exp: attribution %s: exec phase moved %.2f ns across schemes", k, execDelta)
		}
	}

	t := &report.Table{
		ID: "attribution", Title: "Per-request latency attribution by phase (scheme × backend)",
		Headers: []string{"scheme", "backend", "io ns", "queue ns", "place ns", "trans ns", "exec ns", "total ns"},
		Notes: []string{
			"mean virtual ns per completed request in each phase; trans = transition_in + transition_out; total = their sum (conserves arrival-to-completion latency)",
			"synthetic 5 µs/request mix at non-saturating load (2 arrivals/ms epoch), cold starts on 4 KiB instances (MTE tag-zeroing makes larger instances saturate); multiproc simulated at 8 processes",
			"between schemes on one backend only the trans column moves (self-checked against the cost-model delta); mechanism taxes stay in place/exec",
		},
	}
	t.Rows = append(t.Rows, rows...)
	return t, nil
}

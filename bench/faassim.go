package main

import (
	"fmt"
	"reflect"
	"time"

	"repro/internal/faas"
	"repro/internal/fault"
	"repro/internal/isolation"
	"repro/internal/rt"
	"repro/internal/sfi"
	"repro/internal/workloads"
)

// faasDefs are the per-request batches and page footprints the paper's
// FaaS experiments measure the three handlers at (exp.faasWorkloads).
var faasDefs = []struct {
	kernel string
	batch  uint64
	pages  int
}{
	{"html-templating", 10, 24},
	{"hash-load-balance", 256, 40},
	{"regex-filtering", 280, 48},
}

var faasProcesses = []int{1, 4, 8, 15}

// simRun is one configuration of a pass.
type simRun struct {
	name  string
	group string // which faas.run_ms.* row it feeds
	cfg   faas.Config
	insts uint64 // simulated instructions one completed request stands for

	first    faas.Result // the first measured pass's outcome
	hasFirst bool
}

type faassim struct {
	cfg   runConfig
	runs  []*simRun
	opSeq int64
	lat   []float64

	groupNs map[string][]float64 // per-run host ms, traced windows
}

func newFaassim(cfg runConfig) *faassim { return &faassim{cfg: cfg} }

func (f *faassim) setup(rec *recorder) error {
	// Per-request compute cost, measured once on the emulator exactly as
	// the experiments do, and checked against the interpreter.
	var ws []faas.Workload
	var insts []uint64
	for _, d := range faasDefs {
		k, err := workloads.FaaS().Find(d.kernel)
		if err != nil {
			return err
		}
		m := k.Build(false)
		want, _, _, err := interpRef(m, k.Entry, []uint64{d.batch})
		if err != nil {
			return fmt.Errorf("reference for %s: %w", k.Name, err)
		}
		mod, err := rt.CompileModule(m, sfi.DefaultConfig(sfi.ModeSegue))
		if err != nil {
			return err
		}
		inst, err := rt.NewInstance(mod, rt.InstanceOptions{FSGSBASE: true})
		if err != nil {
			return err
		}
		out, err := inst.Invoke(k.Entry, d.batch)
		if err != nil || len(out) != 1 || out[0] != want {
			rec.fail("%s batch %d: %v %v, reference %d", k.Name, d.batch, out, err, want)
		} else {
			rec.ok()
		}
		ws = append(ws, faas.Workload{Name: d.kernel, ComputeNs: inst.Mach.Stats.Nanos(&inst.Mach.Cost), Pages: d.pages})
		insts = append(insts, inst.Mach.Stats.Insts)
	}

	duration := 2e9 // faas.DefaultConfig's simulated two seconds
	if f.cfg.smoke {
		duration = 2e7
	}
	f.runs = nil
	add := func(name, group string, cfg faas.Config, insts uint64) {
		cfg.Seed = f.cfg.seed*1000 + uint64(len(f.runs))
		cfg.DurationNs = duration
		f.runs = append(f.runs, &simRun{name: name, group: group, cfg: cfg, insts: insts})
	}
	for wi, w := range ws {
		for _, p := range faasProcesses {
			add(fmt.Sprintf("%s colorguard p%d", w.Name, p), "colorguard", faas.KindConfig(w, isolation.ColorGuard, p), insts[wi])
			add(fmt.Sprintf("%s multiproc p%d", w.Name, p), "multiproc", faas.KindConfig(w, isolation.MultiProc, p), insts[wi])
		}
	}
	// One faultsweep row: the synthetic cold-start workload at a 5 %
	// fault rate on that experiment's three backends.
	synthetic := faas.Workload{Name: "synthetic", ComputeNs: 30_000, Pages: 48}
	for _, b := range []struct {
		kind  isolation.Kind
		procs int
	}{{isolation.GuardPage, 1}, {isolation.ColorGuard, 1}, {isolation.MultiProc, 8}} {
		cfg := faas.KindConfig(synthetic, b.kind, b.procs)
		cfg.ColdStart = true
		cfg.InstanceBytes = 64 << 10
		cfg.ArrivalsPerEpoch = 5
		cfg.Faults = fault.Config{
			Seed:        1789,
			Rates:       fault.RatesFor(string(b.kind), 0.05),
			MaxAttempts: 4,
			Retry:       fault.Backoff{BaseNs: 200_000, Factor: 2, MaxNs: 8e6},
			TimeoutNs:   100e6,
			QueueLimit:  512,
			Breaker:     fault.BreakerConfig{FailureThreshold: 64, OpenNs: 5e6},
		}
		add(fmt.Sprintf("faults %s", b.kind), "faults", cfg, 0)
	}
	for wi, w := range ws {
		cfg := faas.KindConfig(w, isolation.ColorGuard, 1)
		cfg.RecordPhases = true
		cfg.RecordLatency = true
		add(fmt.Sprintf("%s phases", w.Name), "phases", cfg, insts[wi])
	}
	f.groupNs = make(map[string][]float64)
	return nil
}

func (f *faassim) teardown() { f.runs = nil }

func (f *faassim) window(d time.Duration, tr *tracer, rec *recorder) {
	var simInsts, simReqs float64
	var runNs int64
	ops, elapsed := passLoop(d, f.cfg.smoke, func() int64 {
		for _, r := range f.runs {
			f.opSeq++
			root := tr.begin("op", nil, f.opSeq)
			sp := tr.begin("faas.Run", root, f.opSeq)
			t0 := time.Now()
			res := faas.Run(r.cfg)
			dt := time.Since(t0)
			tr.end(sp)
			f.verify(r, res, rec)
			tr.end(root)
			runNs += int64(dt)
			simInsts += float64(res.Completed) * float64(r.insts)
			simReqs += float64(res.Completed)
			f.lat = append(f.lat, float64(dt)/1e6)
			if tr.active() {
				f.groupNs[r.group] = append(f.groupNs[r.group], float64(dt)/1e6)
			}
		}
		return int64(len(f.runs))
	})
	rec.add("ops_per_s", float64(ops)/elapsed.Seconds(), ops)
	// No instruction is emulated here: sim_mips is the simulated
	// instructions the completed requests stand for, per host second
	// inside faas.Run.
	rec.add("sim_mips", simInsts/float64(runNs)*1e3, ops)
	rec.add("faas.sim_req_per_host_s", simReqs/(float64(runNs)/1e9), ops)
}

// verify checks one simulation outcome: it must conserve requests the
// way the faas tests pin it, and it must equal the first pass's outcome
// for the same configuration.
func (f *faassim) verify(r *simRun, res faas.Result, rec *recorder) {
	acct := res.Completed + res.Shed + res.Failed + res.TimedOut
	switch {
	case res.Completed <= 0:
		rec.fail("%s: nothing completed", r.name)
	case acct > res.Offered:
		rec.fail("%s: outcomes %d exceed offered %d", r.name, acct, res.Offered)
	case res.Offered-acct > res.MaxConcurrent:
		rec.fail("%s: %d requests unaccounted for, more than the %d ever in flight", r.name, res.Offered-acct, res.MaxConcurrent)
	case r.hasFirst && !reflect.DeepEqual(res, r.first):
		rec.fail("%s: result differs from the first pass's", r.name)
	default:
		rec.ok()
	}
	if !r.hasFirst {
		r.first, r.hasFirst = res, true
	}
}

func (f *faassim) finish(rec *recorder) {
	n := int64(len(f.lat))
	rec.set("p50_ms", quantile(f.lat, 0.50), n)
	rec.set("p99_ms", quantile(f.lat, 0.99), n)
	for group, xs := range f.groupNs {
		rec.set("faas.run_ms."+group, median(xs), int64(len(xs)))
	}

	// Exact: the counters behind Figures 6 and 7, summed over the pass,
	// and the ColorGuard-over-15-processes gain of the first handler.
	var ctx, dtlb, trans, shed, retried float64
	var cg1, mp15 float64
	for _, r := range f.runs {
		if !r.hasFirst {
			return
		}
		ctx += float64(r.first.CtxSwitches)
		dtlb += float64(r.first.DTLBMisses)
		trans += float64(r.first.Transitions)
		shed += float64(r.first.Shed)
		retried += float64(r.first.Retried)
		switch r.name {
		case faasDefs[0].kernel + " colorguard p1":
			cg1 = r.first.ThroughputRPS
		case faasDefs[0].kernel + " multiproc p15":
			mp15 = r.first.ThroughputRPS
		}
	}
	runs := int64(len(f.runs))
	rec.set("faas.ctx_switches", ctx, runs)
	rec.set("faas.dtlb_misses", dtlb, runs)
	rec.set("faas.transitions", trans, runs)
	rec.set("faas.shed", shed, runs)
	rec.set("faas.retried", retried, runs)
	if mp15 > 0 {
		rec.set("faas.gain_pct.p15", (cg1/mp15-1)*100, 2)
	}
}

func (f *faassim) probes(*recorder) {}

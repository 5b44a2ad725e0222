package main

import (
	"fmt"
	"math"
	"slices"
	"sort"
	"time"

	"repro/internal/cache"
	"repro/internal/cpu"
	"repro/internal/ir"
	"repro/internal/mem"
	"repro/internal/rt"
	"repro/internal/sfi"
	"repro/internal/workloads"
)

// emulateKernels is the fixed kernel set of the emulate workload with
// the iteration count each runs at. The issue asked for a seeded draw of
// 12 kernels; the contract measures the spread of every metric across
// seeds, and a draw that changes the instruction mix moves sim_mips by
// more than any bound, so the set is fixed and the seed draws the order
// of operations and the iteration counts (up to +1/16). The set spans
// the footprints the issue names: L1-resident (444_namd, 458_sjeng,
// fib2, switch2), L2-resident (401_bzip2, 464_h264ref, 473_astar, gemm),
// streaming over 1 MiB (433_milc) and dTLB-thrashing pointer chasing
// over 4 MiB (429_mcf), plus the vectorised pair shape (memmove) and
// dhrystone. The profile kernels initialise their working set on every
// call, which is why 429_mcf (28 M instructions before its first chase)
// is the only 4 MiB kernel: the iteration counts put the others near
// 2.5-4 M simulated instructions, about 20 ms, an operation.
var emulateKernels = []struct {
	suite func() workloads.Suite
	name  string
	iters uint64
}{
	{workloads.Spec2006, "401_bzip2", 26000},
	{workloads.Spec2006, "429_mcf", 30000},
	{workloads.Spec2006, "433_milc", 40000},
	{workloads.Spec2006, "444_namd", 25000},
	{workloads.Spec2006, "458_sjeng", 23000},
	{workloads.Spec2006, "464_h264ref", 25000},
	{workloads.Spec2006, "473_astar", 51000},
	{workloads.Sightglass, "fib2", 208000},
	{workloads.Sightglass, "memmove", 400},
	{workloads.Sightglass, "switch2", 143000},
	{workloads.Polybench, "gemm", 48},
	{workloads.Polybench, "dhrystone", 8300},
}

// smokeKernels is how many kernels, from the end of the table, a smoke
// run keeps: the ones without a large working set to initialise.
const smokeKernels = 5

var emulateModes = []sfi.Mode{sfi.ModeNative, sfi.ModeGuard, sfi.ModeSegue}

// emuOp is one operation of a pass: a kernel under a mode, on its own
// pre-built instance.
type emuOp struct {
	kernel, mode int
	name         string
	entry        string
	args         []uint64
	want         uint64
	inst         *rt.Instance

	// ref is the simulated cost of the operation in the first measured
	// pass; every later pass must repeat it bit for bit.
	ref    cpu.Stats
	hasRef bool
	tlb    [2]uint64 // dTLB hits, misses of the reference pass
	l1d    [2]uint64
}

type emulate struct {
	cfg   runConfig
	ops   []*emuOp // in seeded pass order
	opSeq int64

	interpSteps uint64
	interpNs    int64

	lat []float64 // every measured op's Invoke time, ms
}

func newEmulate(cfg runConfig) *emulate { return &emulate{cfg: cfg} }

func (e *emulate) setup(rec *recorder) error {
	r := newRNG(e.cfg.seed)
	e.ops = nil
	e.interpSteps, e.interpNs = 0, 0
	var ops []*emuOp
	for ki, ek := range emulateKernels {
		if e.cfg.smoke && ki < len(emulateKernels)-smokeKernels {
			continue
		}
		k, err := ek.suite().Find(ek.name)
		if err != nil {
			return err
		}
		args := []uint64{ek.iters + uint64(r.intn(int(ek.iters/16)+1))}
		if e.cfg.smoke {
			args = k.TestArgs
		}
		// The native build of a pointer-heavy kernel is a different
		// program (8-byte links), so it gets its own reference.
		refs := map[bool]uint64{}
		for _, variant := range []bool{false, true} {
			if variant && !k.PtrSensitive {
				continue
			}
			want, steps, ns, err := interpRef(k.Build(variant), k.Entry, args)
			if err != nil {
				return fmt.Errorf("reference for %s: %w", k.Name, err)
			}
			refs[variant] = want
			e.interpSteps += steps
			e.interpNs += ns
		}
		for mi, mode := range emulateModes {
			variant := mode == sfi.ModeNative && k.PtrSensitive
			mod, err := rt.CompileModule(k.Build(variant), sfi.DefaultConfig(mode))
			if err != nil {
				return fmt.Errorf("compiling %s/%v: %w", k.Name, mode, err)
			}
			inst, err := rt.NewInstance(mod, rt.InstanceOptions{FSGSBASE: true})
			if err != nil {
				return fmt.Errorf("instantiating %s/%v: %w", k.Name, mode, err)
			}
			ops = append(ops, &emuOp{
				kernel: ki, mode: mi, name: fmt.Sprintf("%s/%v", k.Name, mode),
				entry: k.Entry, args: args, want: refs[variant], inst: inst,
			})
		}
	}
	for _, i := range r.perm(len(ops)) {
		e.ops = append(e.ops, ops[i])
	}
	// Untimed warm-up pass: fused-tier compilation happens here, and the
	// simulated caches reach the state every measured pass starts from.
	for _, op := range e.ops {
		e.run(op, nil, rec, false)
	}
	return nil
}

func (e *emulate) teardown() { e.ops = nil }

// interpRef runs the reference interpreter, which shares no code with
// the compilers or the emulator, and returns the checksum with the
// interpreter's step count and time.
func interpRef(m *ir.Module, entry string, args []uint64) (want, steps uint64, ns int64, err error) {
	ip, err := ir.NewInterp(m, nil)
	if err != nil {
		return 0, 0, 0, err
	}
	ip.StepLimit = math.MaxUint64 // counts steps; never reached
	t0 := time.Now()
	out, err := ip.Invoke(entry, args...)
	ns = int64(time.Since(t0))
	if err != nil {
		return 0, 0, 0, err
	}
	if len(out) != 1 {
		return 0, 0, 0, fmt.Errorf("%s returned %d values", entry, len(out))
	}
	return out[0] + refSkew, ip.Steps, ns, nil
}

// refSkew is added to every reference checksum. Only the tests set it,
// to show that a wrong reference does not go unnoticed.
var refSkew uint64

// run performs one operation and verifies it; it returns the time spent
// inside Invoke and the instructions simulated.
func (e *emulate) run(op *emuOp, tr *tracer, rec *recorder, measured bool) (time.Duration, uint64) {
	e.opSeq++
	m := op.inst.Mach
	// Zeroing the counters makes each operation's simulated cost start
	// from the same float64 accumulator, so it can repeat exactly.
	m.Stats = cpu.Stats{}
	takeRef := measured && !op.hasRef
	var tlb0, l1d0 [2]uint64
	if takeRef {
		tlb0 = [2]uint64{m.Hier.DTLB.Hits(), m.Hier.DTLB.Misses()}
		l1d0 = [2]uint64{m.Hier.L1D.Hits(), m.Hier.L1D.Misses()}
	}
	root := tr.begin("op", nil, e.opSeq)
	sp := tr.begin("rt.Invoke", root, e.opSeq)
	t0 := time.Now()
	out, err := op.inst.Invoke(op.entry, op.args...)
	dt := time.Since(t0)
	tr.end(sp)
	st := op.inst.Mach.Stats
	switch {
	case err != nil:
		rec.fail("%s: %v", op.name, err)
	case len(out) != 1 || out[0] != op.want:
		rec.fail("%s: checksum %v, reference %d", op.name, out, op.want)
	case op.hasRef && st != op.ref:
		rec.fail("%s: simulated counts moved between passes: %+v, first pass %+v", op.name, st, op.ref)
	default:
		rec.ok()
	}
	if takeRef {
		op.ref, op.hasRef = st, true
		op.tlb = [2]uint64{m.Hier.DTLB.Hits() - tlb0[0], m.Hier.DTLB.Misses() - tlb0[1]}
		op.l1d = [2]uint64{m.Hier.L1D.Hits() - l1d0[0], m.Hier.L1D.Misses() - l1d0[1]}
	}
	tr.end(root)
	return dt, st.Insts
}

func (e *emulate) window(d time.Duration, tr *tracer, rec *recorder) {
	var insts uint64
	var invokeNs int64
	var modeInsts, modeNs [3]float64
	kInsts := make([]float64, len(emulateKernels))
	kNs := make([]float64, len(emulateKernels))
	ops, elapsed := passLoop(d, e.cfg.smoke, func() int64 {
		for _, op := range e.ops {
			dt, n := e.run(op, tr, rec, true)
			insts += n
			invokeNs += int64(dt)
			modeInsts[op.mode] += float64(n)
			modeNs[op.mode] += float64(dt)
			kInsts[op.kernel] += float64(n)
			kNs[op.kernel] += float64(dt)
			e.lat = append(e.lat, dt.Seconds()*1e3)
		}
		return int64(len(e.ops))
	})
	rec.add("ops_per_s", float64(ops)/elapsed.Seconds(), ops)
	mips := func(insts, ns float64) float64 { return insts / ns * 1e3 }
	rec.add("sim_mips", mips(float64(insts), float64(invokeNs)), ops)
	rec.add("cpu.ns_per_inst", float64(invokeNs)/float64(insts), ops)
	for mi, mode := range emulateModes {
		rec.add("cpu.mips."+mode.String(), mips(modeInsts[mi], modeNs[mi]), ops/3)
	}
	slowest, fastest := math.Inf(1), 0.0
	for ki := range kInsts {
		if kNs[ki] == 0 {
			continue // a smoke run leaves kernels out
		}
		v := mips(kInsts[ki], kNs[ki])
		slowest, fastest = math.Min(slowest, v), math.Max(fastest, v)
	}
	rec.add("cpu.mips.slowest_kernel", slowest, ops)
	rec.add("cpu.mips.fastest_kernel", fastest, ops)
}

func (e *emulate) finish(rec *recorder) {
	n := int64(len(e.lat))
	rec.set("p50_ms", quantile(e.lat, 0.50), n)
	rec.set("p99_ms", quantile(e.lat, 0.99), n)
	if e.interpNs > 0 {
		rec.set("ir.interp_mips", float64(e.interpSteps)/float64(e.interpNs)*1e3, int64(len(emulateKernels)))
	}

	// Exact counts: one pass, summed in the fixed kernel order so the
	// float64 cycle total does not depend on the seeded op order.
	var tot cpu.Stats
	var tlb, l1d [2]uint64
	cyc := make([][3]float64, len(emulateKernels))
	ordered := append([]*emuOp(nil), e.ops...)
	sort.Slice(ordered, func(i, j int) bool {
		a, b := ordered[i], ordered[j]
		return a.kernel < b.kernel || a.kernel == b.kernel && a.mode < b.mode
	})
	for _, op := range ordered {
		tot.Insts += op.ref.Insts
		tot.Cycles += op.ref.Cycles
		tot.MemReads += op.ref.MemReads
		tot.MemWrites += op.ref.MemWrites
		tot.Branches += op.ref.Branches
		tot.Mispredicts += op.ref.Mispredicts
		tot.BytesFetched += op.ref.BytesFetched
		for i := 0; i < 2; i++ {
			tlb[i] += op.tlb[i]
			l1d[i] += op.l1d[i]
		}
		cyc[op.kernel][op.mode] = op.ref.Cycles
	}
	ops := int64(len(e.ops))
	rec.set("cpu.insts", float64(tot.Insts), ops)
	rec.set("cpu.sim_cycles", tot.Cycles, ops)
	rec.set("cpu.mem_reads", float64(tot.MemReads), ops)
	rec.set("cpu.mem_writes", float64(tot.MemWrites), ops)
	rec.set("cpu.branches", float64(tot.Branches), ops)
	rec.set("cpu.mispredicts", float64(tot.Mispredicts), ops)
	rec.set("cpu.bytes_fetched", float64(tot.BytesFetched), ops)
	rec.set("cpu.sim_ipc", float64(tot.Insts)/tot.Cycles, ops)
	rec.set("cache.dtlb_miss_share", float64(tlb[1])/float64(tlb[0]+tlb[1]), ops)
	rec.set("cache.l1d_miss_share", float64(l1d[1])/float64(l1d[0]+l1d[1]), ops)

	// Share of the guard-page overhead Segue removes, as the paper
	// states it: geomean slowdowns against native over the kernels.
	var guard, segue []float64
	for _, c := range cyc {
		if c[0] == 0 {
			continue // a smoke run leaves kernels out
		}
		guard = append(guard, c[1]/c[0])
		segue = append(segue, c[2]/c[0])
	}
	g, s := geomean(guard), geomean(segue)
	removed := 0.0
	if g > 1 {
		removed = 100 * (g - s) / (g - 1)
	}
	rec.set("cpu.segue_overhead_removed_pct", removed, int64(len(cyc)))
}

// tierKernels is the subset the lower tiers are priced on: one
// cache-missing, one floating-point and one branchy kernel.
var tierKernels = []string{"429_mcf", "444_namd", "switch2"}

func (e *emulate) probes(rec *recorder) {
	// One pass of a three-kernel subset on each lower tier.
	for _, tier := range []struct {
		t    cpu.Tier
		name string
	}{{cpu.TierFast, "cpu.mips.fast_tier"}, {cpu.TierSlow, "cpu.mips.slow_tier"}} {
		var insts, ns float64
		for _, op := range e.ops {
			if emulateModes[op.mode] != sfi.ModeSegue || !slices.Contains(tierKernels, emulateKernels[op.kernel].name) {
				continue
			}
			inst, err := rt.NewInstance(op.inst.Mod, rt.InstanceOptions{FSGSBASE: true})
			if err != nil {
				rec.fail("tier probe %s: %v", op.name, err)
				continue
			}
			inst.Mach.Tier = tier.t
			t0 := time.Now()
			out, err := inst.Invoke(op.entry, op.args...)
			dt := time.Since(t0)
			if err != nil || len(out) != 1 || out[0] != op.want {
				rec.fail("tier probe %s on %v: %v %v, reference %d", op.name, tier.t, out, err, op.want)
				continue
			}
			rec.ok()
			insts += float64(inst.Mach.Stats.Insts)
			ns += float64(dt)
		}
		if ns > 0 {
			rec.set(tier.name, insts/ns*1e3, int64(len(tierKernels)))
		}
	}
	memAccessProbes(rec, e.cfg.seed, e.cfg.smoke)
	cacheProbes(rec, e.cfg.seed, e.cfg.smoke)
}

// probeTrace is a seeded address trace over a region: mostly sequential
// 8-byte steps with a jump to a random page now and then, which is the
// shape the kernels give the memory path.
func probeTrace(seed uint64, base, size uint64, n int) []uint64 {
	r := newRNG(seed ^ 0xa5a5)
	out := make([]uint64, n)
	addr := base
	for i := range out {
		if r.intn(16) == 0 {
			addr = base + uint64(r.intn(int(size/mem.PageSize)))*mem.PageSize
		}
		out[i] = addr
		addr += 8
		if addr+8 > base+size {
			addr = base
		}
	}
	return out
}

// probeReps runs f over the trace several times and returns the median
// cost per access in ns.
func probeReps(reps, n int, f func()) float64 {
	var per []float64
	for i := 0; i < reps; i++ {
		t0 := time.Now()
		f()
		per = append(per, float64(time.Since(t0))/float64(n))
	}
	return median(per)
}

var probeSink uint64

// memAccessProbes prices the mem load/store path on a mapped region
// outside the emulator.
func memAccessProbes(rec *recorder, seed uint64, smoke bool) {
	const size = 4 << 20
	n, reps := 1<<18, 7
	if smoke {
		n, reps = 1<<10, 1
	}
	as := mem.NewAS(47)
	base, err := as.MmapAnywhere(size, mem.ProtRead|mem.ProtWrite)
	if err != nil {
		rec.fail("mem probe: %v", err)
		return
	}
	trace := probeTrace(seed, base, size, n)
	for _, a := range trace { // fault every page in first
		as.Store(a, 8, a)
	}
	rec.set("mem.store_ns", probeReps(reps, n, func() {
		for _, a := range trace {
			as.Store(a, 8, a)
		}
	}), int64(n*reps))
	rec.set("mem.load_ns", probeReps(reps, n, func() {
		var s uint64
		for _, a := range trace {
			s += as.Load(a, 8)
		}
		probeSink += s
	}), int64(n*reps))
	rec.set("mem.check_access_ns", probeReps(reps, n, func() {
		for _, a := range trace {
			if as.CheckAccess(a, 8, false, mem.PkruAllowAll) != nil {
				probeSink++
			}
		}
	}), int64(n*reps))
}

// cacheProbes prices the simulated cache hierarchy's lookups.
func cacheProbes(rec *recorder, seed uint64, smoke bool) {
	n, reps := 1<<18, 7
	if smoke {
		n, reps = 1<<10, 1
	}
	trace := probeTrace(seed+1, 1<<32, 8<<20, n)
	h := cache.NewHierarchy()
	rec.set("cache.access_ns", probeReps(reps, n, func() {
		for _, a := range trace {
			if hit, _ := h.Access(a); hit {
				probeSink++
			}
		}
	}), int64(n*reps))
	tlb := cache.NewTLB(64, 4)
	rec.set("cache.tlb_access_ns", probeReps(reps, n, func() {
		for _, a := range trace {
			if tlb.Access(a) {
				probeSink++
			}
		}
	}), int64(n*reps))
}

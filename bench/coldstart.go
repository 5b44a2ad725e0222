package main

import (
	"fmt"
	"time"

	"repro/internal/ir"
	"repro/internal/isolation"
	"repro/internal/mem"
	"repro/internal/pool"
	"repro/internal/rt"
	"repro/internal/sfi"
	"repro/internal/workloads"
	"repro/internal/x86"
)

// workerSlots is server.Config's default SlotsPerWorker: the slabs here
// are reserved the way a server worker reserves its own.
const workerSlots = 4

// faasKernel is one FaaS handler with its reference checksum.
type faasKernel struct {
	k    workloads.Kernel
	args []uint64
	want uint64 // ir.Interp's result for args
	mod  *rt.Module
	need uint64 // initial linear-memory bytes
}

// coldBatch is the batch a cold start's one invocation runs: a single
// URL or page. The issue sized the op with the handlers' TestArgs
// (3, 40 and 30), but at those Invoke is half of the traced op time,
// and the workload exists to price what surrounds the execution.
var coldBatch = []uint64{1}

// loadFaasKernels builds, references and compiles the three FaaS
// handlers under the serving configuration (Segue). args nil means each
// handler's TestArgs, the server's default batch.
func loadFaasKernels(args []uint64) ([]*faasKernel, uint64, error) {
	var out []*faasKernel
	var maxBytes uint64
	for _, k := range workloads.FaaS().Kernels {
		m := k.Build(false)
		args := args
		if args == nil {
			args = k.TestArgs
		}
		want, _, _, err := interpRef(m, k.Entry, args)
		if err != nil {
			return nil, 0, fmt.Errorf("reference for %s: %w", k.Name, err)
		}
		mod, err := rt.CompileModule(m, sfi.DefaultConfig(sfi.ModeSegue))
		if err != nil {
			return nil, 0, fmt.Errorf("compiling %s: %w", k.Name, err)
		}
		if n := uint64(m.MemMax) * ir.PageSize; n > maxBytes {
			maxBytes = n
		}
		out = append(out, &faasKernel{k: k, args: args, want: want, mod: mod, need: uint64(m.MemMin) * ir.PageSize})
	}
	return out, maxBytes, nil
}

// workerSlabConfig is the geometry server.worker.backend reserves.
func workerSlabConfig(kind isolation.Kind, maxBytes uint64) isolation.Config {
	cfg := isolation.Config{Slots: workerSlots, MaxMemoryBytes: maxBytes, GuardBytes: 1 << 20}
	switch kind {
	case isolation.ColorGuard:
		cfg.Keys = 15
	case isolation.MultiProc:
		cfg.Processes = workerSlots
	}
	return cfg
}

// coldOp is one (kernel, backend) combination of the rotation.
type coldOp struct {
	kern *faasKernel
	kind int // index into isolation.Kinds()
}

type coldstart struct {
	cfg      runConfig
	kernels  []*faasKernel
	maxBytes uint64
	backends []isolation.Backend // by kind index
	combos   []coldOp            // seeded order
	opSeq    int64

	transNs, transN float64 // simulated transition ns of the reference pass
	refDone         bool
	vmas, pages     int // mappings and resident pages of the four slabs after one pass

	// per-kind span durations of the traced windows, us
	allocUs, instUs, closeUs [][]float64
	invokeUs, buildUs        []float64
	compileUs                []float64
	compileNs, compileInsts  float64
}

func newColdstart(cfg runConfig) *coldstart { return &coldstart{cfg: cfg} }

func (c *coldstart) setup(rec *recorder) error {
	var err error
	c.kernels, c.maxBytes, err = loadFaasKernels(coldBatch)
	if err != nil {
		return err
	}
	kinds := isolation.Kinds()
	if err := c.reserve(); err != nil {
		return err
	}
	for _, b := range c.backends {
		if err := b.CheckIsolation(); err != nil {
			return fmt.Errorf("%s slot layout unsafe: %w", b.Kind(), err)
		}
	}
	c.combos = nil
	var combos []coldOp
	for _, k := range c.kernels {
		for ki := range kinds {
			combos = append(combos, coldOp{kern: k, kind: ki})
		}
	}
	for _, i := range newRNG(c.cfg.seed).perm(len(combos)) {
		c.combos = append(c.combos, combos[i])
	}
	c.allocUs = make([][]float64, len(kinds))
	c.instUs = make([][]float64, len(kinds))
	c.closeUs = make([][]float64, len(kinds))
	c.pass(nil, rec, nil) // untimed warm-up
	c.vmas, c.pages = 0, 0
	for _, b := range c.backends {
		c.vmas += b.AS().VMACount()
		c.pages += b.AS().ResidentPages()
	}
	return c.reserve()
}

// reserve replaces the four slabs with fresh ones in fresh address
// spaces, as a server worker reserves its own. It runs in set-up and
// again before every pass: rt.Instance.Close recycles the slot but
// leaves the instance's stack and context pages mapped in the slab's
// address space (two resident pages an instance: mem.resident_pages
// reads 96 after one pass of 48), so on long-lived slabs memory would
// grow with the number of operations and peak_rss_mb would measure how
// many operations the run managed, not what one costs.
func (c *coldstart) reserve() error {
	c.teardown()
	for _, kind := range isolation.Kinds() {
		b, err := isolation.NewReserved(kind, mem.NewAS(47), workerSlabConfig(kind, c.maxBytes))
		if err != nil {
			return fmt.Errorf("reserving %s: %w", kind, err)
		}
		c.backends = append(c.backends, b)
	}
	return nil
}

func (c *coldstart) teardown() {
	for _, b := range c.backends {
		_ = b.Release() // the slab's address space is dropped with it
	}
	c.backends = nil
}

// pass runs the rotation four times, shifted by one each time, so that
// with every fourth operation a deploy each combination deploys exactly
// once per pass. lat, when non-nil, receives each op's latency in ms.
func (c *coldstart) pass(tr *tracer, rec *recorder, lat *[]float64) (ops int64, insts uint64, invokeNs int64) {
	n := len(c.combos)
	for rep := 0; rep < 4; rep++ {
		for p := 0; p < n; p++ {
			op := c.combos[(p+rep)%n]
			t0 := time.Now()
			i, ns := c.run(op, p%4 == 3, tr, rec)
			if lat != nil {
				*lat = append(*lat, float64(time.Since(t0))/1e6)
			}
			insts += i
			invokeNs += ns
			ops++
		}
	}
	return ops, insts, invokeNs
}

// run performs one cold start, preceded by a build and an uncached
// compile when deploy is set.
func (c *coldstart) run(op coldOp, deploy bool, tr *tracer, rec *recorder) (insts uint64, invokeNs int64) {
	c.opSeq++
	id := c.opSeq
	k, b := op.kern, c.backends[op.kind]
	name := func() string { return fmt.Sprintf("%s on %s", k.k.Name, b.Kind()) }
	traced := tr.active()
	root := tr.begin("op", nil, id)
	defer tr.end(root)

	mod := k.mod
	if deploy {
		sp := tr.begin("ir.build", root, id)
		m := k.k.Build(false)
		if d := tr.end(sp); traced {
			c.buildUs = append(c.buildUs, us(d))
		}
		sp = tr.begin("rt.CompileModule", root, id)
		var err error
		mod, err = rt.CompileModule(m, sfi.DefaultConfig(sfi.ModeSegue))
		d := tr.end(sp)
		if err != nil {
			rec.fail("deploying %s: %v", name(), err)
			return 0, 0
		}
		if traced {
			c.compileUs = append(c.compileUs, us(d))
			c.compileNs += float64(d)
			c.compileInsts += float64(instsEmitted(mod))
		}
	}

	sp := tr.begin("isolation.Allocate", root, id)
	slot, err := b.Allocate(k.need)
	if d := tr.end(sp); traced {
		c.allocUs[op.kind] = append(c.allocUs[op.kind], us(d))
	}
	if err != nil {
		rec.fail("allocating for %s: %v", name(), err)
		return 0, 0
	}
	sp = tr.begin("rt.NewInstance", root, id)
	inst, err := rt.NewInstance(mod, rt.InstanceOptions{FSGSBASE: true, Place: isolation.Place(b, slot)})
	if d := tr.end(sp); traced {
		c.instUs[op.kind] = append(c.instUs[op.kind], us(d))
	}
	if err != nil {
		_ = b.Recycle(slot) // already failing; the slot goes back either way
		rec.fail("instantiating %s: %v", name(), err)
		return 0, 0
	}
	sp = tr.begin("rt.Invoke", root, id)
	t0 := time.Now()
	out, err := inst.Invoke(k.k.Entry, k.args...)
	invokeNs = int64(time.Since(t0))
	if tr.end(sp); traced {
		c.invokeUs = append(c.invokeUs, float64(invokeNs)/1e3)
	}
	insts = inst.Mach.Stats.Insts
	if !c.refDone {
		in, outNs := inst.TransitionNs()
		c.transNs += in + outNs
		c.transN++
	}
	sp = tr.begin("rt.Close", root, id)
	cerr := inst.Close()
	if d := tr.end(sp); traced {
		c.closeUs[op.kind] = append(c.closeUs[op.kind], us(d))
	}
	switch {
	case err != nil:
		rec.fail("%s: %v", name(), err)
	case cerr != nil:
		rec.fail("closing %s: %v", name(), cerr)
	case len(out) != 1 || out[0] != k.want:
		rec.fail("%s: checksum %v, reference %d", name(), out, k.want)
	default:
		rec.ok()
	}
	return insts, invokeNs
}

func us(d time.Duration) float64 { return float64(d) / 1e3 }

func instsEmitted(mod *rt.Module) int {
	n := 0
	for _, f := range mod.Prog.Funcs {
		n += len(f.Insts)
	}
	return n
}

func (c *coldstart) window(d time.Duration, tr *tracer, rec *recorder) {
	var lat []float64
	var insts uint64
	var invokeNs int64
	ops, elapsed := passLoop(d, c.cfg.smoke, func() int64 {
		if err := c.reserve(); err != nil {
			rec.fail("%v", err)
			return 0
		}
		n, i, ns := c.pass(tr, rec, &lat)
		c.refDone = true
		insts += i
		invokeNs += ns
		return n
	})
	rec.add("ops_per_s", float64(ops)/elapsed.Seconds(), ops)
	rec.add("sim_mips", float64(insts)/float64(invokeNs)*1e3, ops)
	rec.add("p50_ms", quantile(lat, 0.50), ops)
	if c.cfg.smoke || beyond(len(lat), 0.99) >= 10 {
		rec.add("p99_ms", quantile(lat, 0.99), ops)
	}
}

func (c *coldstart) finish(rec *recorder) {
	// Exact: what the compiler emits for the three handlers, the shape
	// of the worker slabs after set-up, and the simulated transition
	// cost of one pass.
	var insts, bytes int
	for _, k := range c.kernels {
		insts += instsEmitted(k.mod)
		bytes += k.mod.Prog.CodeBytes()
	}
	rec.set("sfi.insts_emitted", float64(insts), int64(len(c.kernels)))
	rec.set("sfi.code_bytes", float64(bytes), int64(len(c.kernels)))
	rec.set("mem.vma_count", float64(c.vmas), int64(len(c.backends)))
	rec.set("mem.resident_pages", float64(c.pages), int64(len(c.backends)))
	if c.transN > 0 {
		rec.set("rt.transition_sim_ns", c.transNs/c.transN, int64(c.transN))
	}
	for _, s := range []struct {
		kind isolation.Kind
		name string
	}{{isolation.GuardPage, "isolation.slots.guardpage"}, {isolation.ColorGuard, "isolation.slots.colorguard"}} {
		l, err := isolation.PlanLayout(s.kind, paperSlotConfig(s.kind))
		if err != nil {
			rec.fail("%s: %v", s.name, err)
			continue
		}
		rec.set(s.name, float64(l.NumSlots), 1)
	}

	// Timed, from the spans of the traced windows.
	setMedian := func(name string, xs []float64) {
		if len(xs) > 0 {
			rec.set(name, median(xs), int64(len(xs)))
		}
	}
	for ki, kind := range isolation.Kinds() {
		setMedian("isolation.allocate_us."+string(kind), c.allocUs[ki])
		setMedian("rt.instantiate_us."+string(kind), c.instUs[ki])
		setMedian("rt.close_us."+string(kind), c.closeUs[ki])
	}
	setMedian("rt.invoke_us", c.invokeUs)
	setMedian("ir.build_us", c.buildUs)
	setMedian("sfi.compile_us", c.compileUs)
	if c.compileInsts > 0 {
		rec.set("sfi.compile_ns_per_inst", c.compileNs/c.compileInsts, int64(len(c.compileUs)))
	}
}

// paperSlotConfig is §6.4.2's density configuration: 408 MB linear
// memories, 6 GiB between slots, in an 85 TiB reservation.
func paperSlotConfig(kind isolation.Kind) isolation.Config {
	maxMem := uint64(408) << 20
	cfg := isolation.Config{MaxMemoryBytes: maxMem, GuardBytes: uint64(6)<<30 - maxMem, TotalBytes: uint64(85) << 40}
	if kind == isolation.ColorGuard {
		cfg.Keys = 15
	}
	return cfg
}

// timeMedianUs times f reps times and returns the median in us.
func timeMedianUs(reps int, f func()) float64 {
	var xs []float64
	for i := 0; i < reps; i++ {
		t0 := time.Now()
		f()
		xs = append(xs, us(time.Since(t0)))
	}
	return median(xs)
}

func (c *coldstart) probes(rec *recorder) {
	reps := 200
	if c.cfg.smoke {
		reps = 3
	}
	// Slab reservation and a bare allocate/recycle pair, per backend.
	for ki, kind := range isolation.Kinds() {
		kind := kind
		rec.set("isolation.reserve_us."+string(kind), timeMedianUs(reps/10+1, func() {
			b, err := isolation.NewReserved(kind, mem.NewAS(47), workerSlabConfig(kind, c.maxBytes))
			if err != nil {
				rec.fail("reserve probe %s: %v", kind, err)
				return
			}
			_ = b.Release() // timing the reservation; the slab is dropped
		}), int64(reps/10+1))
		b, need := c.backends[ki], c.kernels[0].need
		var recycle []float64
		for i := 0; i < reps; i++ {
			slot, err := b.Allocate(need)
			if err != nil {
				rec.fail("recycle probe %s: %v", kind, err)
				break
			}
			t0 := time.Now()
			err = b.Recycle(slot)
			recycle = append(recycle, us(time.Since(t0)))
			if err != nil {
				rec.fail("recycle probe %s: %v", kind, err)
				break
			}
		}
		if len(recycle) > 0 {
			rec.set("isolation.recycle_us."+string(kind), median(recycle), int64(len(recycle)))
		}
	}
	rec.set("pool.layout_us", timeMedianUs(reps, func() {
		if _, err := pool.ComputeLayout(pool.Config{NumSlots: workerSlots, MaxMemoryBytes: c.maxBytes, GuardBytes: 1 << 20, Keys: 15}); err != nil {
			rec.fail("layout probe: %v", err)
		}
	}), int64(reps))

	// rt: a standalone (unpooled) instantiation, and the fixed cost of
	// an Invoke — a trivial export on a warm instance is transition plus
	// dispatch and nothing else.
	k := c.kernels[0]
	rec.set("rt.instantiate_us.standalone", timeMedianUs(reps, func() {
		if _, err := rt.NewInstance(k.mod, rt.InstanceOptions{FSGSBASE: true}); err != nil {
			rec.fail("standalone probe: %v", err)
		}
	}), int64(reps))
	if nop, err := nopInstance(); err != nil {
		rec.fail("invoke-overhead probe: %v", err)
	} else {
		rec.set("rt.invoke_overhead_us", timeMedianUs(reps*10, func() {
			if out, err := nop.Invoke("nop"); err != nil || len(out) != 1 || out[0] != 1 {
				rec.fail("nop export returned %v, %v", out, err)
			}
		}), int64(reps*10))
	}

	// x86: encoding the handlers' instruction streams.
	var n int
	for _, k := range c.kernels {
		n += instsEmitted(k.mod)
	}
	encUs := timeMedianUs(reps/10+1, func() {
		for _, k := range c.kernels {
			for _, f := range k.mod.Prog.Funcs {
				_, _, total := x86.EncodeFunc(f.Insts)
				probeSink += uint64(total)
			}
		}
	})
	rec.set("x86.encode_ns_per_inst", encUs*1e3/float64(n), int64(n))

	vmaProbes(rec, c.cfg.smoke)
}

// nopInstance instantiates a module whose only export returns 1.
func nopInstance() (*rt.Instance, error) {
	m := ir.NewModule("nop", 1, 1)
	fb := m.NewFunc("nop", ir.Sig(nil, []ir.ValType{ir.I32}))
	fb.I32(1)
	fb.MustBuild()
	m.MustExport("nop")
	mod, err := rt.CompileModule(m, sfi.DefaultConfig(sfi.ModeSegue))
	if err != nil {
		return nil, err
	}
	inst, err := rt.NewInstance(mod, rt.InstanceOptions{FSGSBASE: true})
	if err != nil {
		return nil, err
	}
	_, err = inst.Invoke("nop") // warm
	return inst, err
}

// vmaProbes prices the mapping operations a cold start is made of, on a
// slot-sized region of an address space that already holds a slab's
// worth of mappings.
func vmaProbes(rec *recorder, smoke bool) {
	reps := 400
	if smoke {
		reps = 3
	}
	const region = 1 << 20
	as := mem.NewAS(47)
	for i := 0; i < 16; i++ { // neighbours, so splits and merges have company
		if _, err := as.MmapAnywhere(region, mem.ProtNone); err != nil {
			rec.fail("vma probe: %v", err)
			return
		}
	}
	var mmap, mprotect, pkey, madvise, munmap []float64
	for i := 0; i < reps; i++ {
		t0 := time.Now()
		base, err := as.MmapAnywhere(region, mem.ProtNone)
		t1 := time.Now()
		if err != nil {
			rec.fail("vma probe: mmap: %v", err)
			return
		}
		err1 := as.Mprotect(base, region/4, mem.ProtRead|mem.ProtWrite)
		t2 := time.Now()
		err2 := as.PkeyMprotect(base, region/4, mem.ProtRead|mem.ProtWrite, 5)
		t3 := time.Now()
		as.Store(base, 8, 1) // one resident page for madvise to drop
		t4 := time.Now()
		err3 := as.MadviseDontneed(base, region/4)
		t5 := time.Now()
		err4 := as.Munmap(base, region)
		t6 := time.Now()
		if err1 != nil || err2 != nil || err3 != nil || err4 != nil {
			rec.fail("vma probe: %v %v %v %v", err1, err2, err3, err4)
			return
		}
		mmap = append(mmap, us(t1.Sub(t0)))
		mprotect = append(mprotect, us(t2.Sub(t1)))
		pkey = append(pkey, us(t3.Sub(t2)))
		madvise = append(madvise, us(t5.Sub(t4)))
		munmap = append(munmap, us(t6.Sub(t5)))
	}
	n := int64(reps)
	rec.set("mem.mmap_us", median(mmap), n)
	rec.set("mem.mprotect_us", median(mprotect), n)
	rec.set("mem.pkey_mprotect_us", median(pkey), n)
	rec.set("mem.madvise_us", median(madvise), n)
	rec.set("mem.munmap_us", median(munmap), n)
}

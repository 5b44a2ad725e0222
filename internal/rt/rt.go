// Package rt is the Wasm runtime over the simulated machine: it lays
// out instance memory (linear memory, guard regions, stack, context),
// instantiates compiled modules, performs transitions into and out of
// sandboxes (setting the segment base for Segue, PKRU for ColorGuard,
// and charging the §6.4.1 transition costs), and provides host-call
// plumbing including the memory.grow/copy/fill builtins.
package rt

import (
	"errors"
	"fmt"

	"repro/internal/cpu"
	"repro/internal/ir"
	"repro/internal/isolation"
	"repro/internal/mem"
	"repro/internal/sfi"
	"repro/internal/telemetry"
	"repro/internal/x86"
)

// Per-backend transition counters (rt.transitions.<kind>), resolved
// once here so transitionIn pays at most one atomic add per counter.
// Instances without a backend count under "standalone".
var transCounters = func() map[isolation.Kind]*telemetry.Counter {
	m := map[isolation.Kind]*telemetry.Counter{
		"": telemetry.Default.Counter("rt.transitions.standalone"),
	}
	for _, k := range isolation.Kinds() {
		m[k] = telemetry.Default.Counter("rt.transitions." + string(k))
	}
	return m
}()

// Per-scheme transition counters (rt.transitions.scheme.<name>): which
// calling convention the crossings ran under. Resolved once here and
// cached on the instance, so the hot path never does a map lookup.
var schemeCounters = func() map[isolation.Scheme]*telemetry.Counter {
	m := make(map[isolation.Scheme]*telemetry.Counter, 4)
	for _, s := range isolation.Schemes() {
		m[s] = telemetry.Default.Counter("rt.transitions.scheme." + string(s))
	}
	return m
}()

// Module is a compiled module ready for instantiation.
type Module struct {
	IR   *ir.Module
	Prog *cpu.Program
	Meta *sfi.Meta
	Cfg  sfi.Config
}

// CompileModule validates and compiles an IR module under cfg.
func CompileModule(m *ir.Module, cfg sfi.Config) (*Module, error) {
	prog, meta, err := sfi.Compile(m, cfg)
	if err != nil {
		return nil, err
	}
	return &Module{IR: m, Prog: prog, Meta: meta, Cfg: cfg}, nil
}

// HostCall carries the arguments of a host-function invocation.
type HostCall struct {
	Inst *Instance
	Args []uint64
}

// MemWrite copies data into linear memory at addr, failing on
// out-of-bounds like a trapping access would.
func (hc *HostCall) MemWrite(addr uint32, data []byte) error {
	if uint64(addr)+uint64(len(data)) > hc.Inst.MemBytes {
		return &cpu.Trap{Kind: cpu.TrapPageFault, Addr: hc.Inst.HeapBase + uint64(addr)}
	}
	hc.Inst.AS.WriteBytes(hc.Inst.HeapBase+uint64(addr), data)
	return nil
}

// HostFunc implements an imported function at the runtime level.
type HostFunc func(hc *HostCall) (uint64, error)

// InstanceOptions tunes instantiation.
type InstanceOptions struct {
	// Hosts binds import names to implementations.
	Hosts map[string]HostFunc

	// FSGSBASE selects user-level segment-base writes (post-IvyBridge);
	// when false, transitions pay the arch_prctl system-call cost, the
	// fallback Firefox needs on older CPUs (§4.1).
	FSGSBASE bool

	// GuardBytes is the guard-region size reserved after the maximum
	// linear memory; 0 selects the classic 4 GiB. Ignored for pooled
	// placements, whose backend owns the guard geometry.
	GuardBytes uint64

	// PreGuardBytes reserves an additional guard region BEFORE the
	// linear memory — required by the signed-offset compilation scheme
	// (sfi.Config.SignedOffset), whose corrupt indices go negative.
	PreGuardBytes uint64

	// Stack size for the machine stack; 0 selects 256 KiB.
	StackBytes uint64

	// Place, when non-nil, puts the instance under an isolation domain:
	// either a slot allocated from an isolation.Backend (Placement.AS
	// set; the backend owns guard geometry and recycling) or a
	// standalone reservation carrying a domain marking such as an MPK
	// color (isolation.Colored). Nil means an unmarked standalone
	// reservation — plain guard-page SFI.
	Place *isolation.Placement

	// Scheme selects the transition calling-convention scheme the
	// instance's crossings are charged under; empty means
	// SchemeDefault. It is independent of the placement: instances under
	// different schemes share one backend's slab.
	Scheme isolation.Scheme
}

// Transition cost model (§6.4.1): beyond the instructions the sandbox
// itself executes, each transition pays its calling convention's cost —
// stack switching, ABI adjustment, exception-handler setup under the
// default scheme (66.7 cycles ≈ 30.34 ns at 2.2 GHz), down to a bare
// call/ret under the zero-cost scheme. The per-scheme convention charge
// lives in isolation.Scheme.BaseCycles; what stays here is the
// mechanism fallback cost.
const (
	syscallCycles = 330.0 // arch_prctl fallback for %gs writes
)

// Instance is an instantiated module bound to machine state.
type Instance struct {
	Mod  *Module
	AS   *mem.AS
	Mach *cpu.Machine

	HeapBase uint64
	MemBytes uint64 // current linear-memory size
	MaxBytes uint64
	CtxBase  uint64
	StackTop uint64

	FSGSBASE bool

	// place is the instance's isolation domain: the slot marking drives
	// the transition and teardown behavior uniformly across backends.
	place isolation.Placement

	// scheme is the resolved transition scheme; transCycles is its
	// per-crossing convention charge, resolved once at instantiation so
	// transitionIn/Out touch no map or switch.
	scheme      isolation.Scheme
	transCycles float64

	// ctrKind/ctrScheme are the instance's pre-resolved transition
	// counters (nil-free: resolved for every kind and scheme).
	ctrKind   *telemetry.Counter
	ctrScheme *telemetry.Counter

	// Transitions counts sandbox entries (Invoke and host-call
	// returns re-enter; each entry has a matching exit).
	Transitions uint64

	// transInCycles/transOutCycles accumulate the simulated cycles the
	// instance has charged to sandbox entry and exit respectively —
	// convention charge plus mechanism work (segment-base write, PKRU
	// switches). They are plain unconditional adds of values already
	// computed on the transition path, so they cost nothing extra and
	// stay exact under any scheme or backend.
	transInCycles  float64
	transOutCycles float64

	// initMemBytes/stackBase/ctxBytes remember the instantiation-time
	// geometry so Reset can restore it without re-reserving anything.
	initMemBytes uint64
	stackBase    uint64
	ctxBytes     uint64

	hosts map[string]HostFunc
}

// NewInstance lays out and initializes an instance of mod.
func NewInstance(mod *Module, opts InstanceOptions) (*Instance, error) {
	inst := &Instance{
		Mod:      mod,
		FSGSBASE: opts.FSGSBASE,
		hosts:    opts.Hosts,
	}
	if opts.Place != nil {
		inst.place = *opts.Place
	}
	// The per-crossing charge and the telemetry counters are resolved
	// here, once, so each transition pays plain adds.
	var kind isolation.Kind
	if b := inst.place.Backend; b != nil {
		kind = b.Kind()
	}
	inst.scheme = isolation.ResolveScheme(opts.Scheme)
	inst.transCycles = inst.scheme.BaseCycles()
	inst.ctrKind = transCounters[kind]
	inst.ctrScheme = schemeCounters[inst.scheme]
	guard := opts.GuardBytes
	if guard == 0 {
		guard = 4 << 30
	}
	stackBytes := opts.StackBytes
	if stackBytes == 0 {
		stackBytes = 256 << 10
	}

	m := mod.IR
	inst.MemBytes = uint64(m.MemMin) * ir.PageSize
	inst.MaxBytes = uint64(m.MemMax) * ir.PageSize

	if inst.place.AS != nil {
		// Pooled placement: the backend owns heap/guard geometry.
		inst.AS = inst.place.AS
		inst.HeapBase = inst.place.Slot.Addr
	} else {
		inst.AS = mem.NewAS(47)
		// Reserve [pre-guard][max memory + guard] as PROT_NONE, then
		// open the initial memory. The reservation is generous so
		// folded 33-bit effective addresses always land inside it.
		pre := pageUp(opts.PreGuardBytes)
		resv := inst.MaxBytes + guard
		if resv < inst.MemBytes+ir.PageSize {
			resv = inst.MemBytes + ir.PageSize
		}
		resv = pageUp(resv) + pre
		base, err := inst.AS.MmapAnywhere(resv, mem.ProtNone)
		if err != nil {
			return nil, fmt.Errorf("rt: reserving linear memory: %w", err)
		}
		inst.HeapBase = base + pre
	}
	if inst.MemBytes > 0 {
		if err := inst.AS.Mprotect(inst.HeapBase, pageUp(inst.MemBytes), mem.ProtRead|mem.ProtWrite); err != nil {
			return nil, fmt.Errorf("rt: opening linear memory: %w", err)
		}
	}
	if pkey := inst.place.Slot.Pkey; pkey != 0 {
		if err := inst.AS.PkeyMprotect(inst.HeapBase, pageUp(inst.MemBytes), mem.ProtRead|mem.ProtWrite, pkey); err != nil {
			return nil, fmt.Errorf("rt: coloring linear memory: %w", err)
		}
	}

	// Runtime areas: machine stack and context block (key 0).
	sb, err := inst.AS.MmapAnywhere(pageUp(stackBytes), mem.ProtRead|mem.ProtWrite)
	if err != nil {
		return nil, fmt.Errorf("rt: allocating stack: %w", err)
	}
	inst.StackTop = sb + pageUp(stackBytes)
	inst.stackBase = sb
	ctx, err := inst.AS.MmapAnywhere(pageUp(sfi.CtxSize), mem.ProtRead|mem.ProtWrite)
	if err != nil {
		return nil, fmt.Errorf("rt: allocating context: %w", err)
	}
	inst.CtxBase = ctx
	inst.ctxBytes = pageUp(sfi.CtxSize)
	inst.initMemBytes = inst.MemBytes

	// Initialize context fields and data segments (shared
	// with Reset, which replays exactly this on a recycled instance).
	inst.initMemory()

	inst.Mach = cpu.NewMachine(inst.AS, mod.Prog)
	inst.bindHosts()
	return inst, nil
}

func pageUp(n uint64) uint64 {
	return (n + mem.PageSize - 1) &^ uint64(mem.PageSize-1)
}

// transitionIn charges the cost of entering the sandbox and sets up
// the machine registers the compiled code expects.
func (inst *Instance) transitionIn() {
	m := inst.Mach
	c0 := m.Stats.Cycles
	m.Stats.Cycles += inst.transCycles
	cfg := inst.Mod.Cfg

	// Segment base (Segue modes) — user instruction or syscall.
	if cfg.Mode == sfi.ModeSegue || cfg.Mode == sfi.ModeBoundsSegue || cfg.Mode == sfi.ModeLFISegue {
		if inst.FSGSBASE {
			m.Stats.Cycles += m.Cost.WRGSBASE
		} else {
			m.Stats.Cycles += syscallCycles
		}
		m.GSBase = inst.HeapBase
	} else {
		// Guard/bounds/native: the base travels in a register (or the
		// implicit native base); a plain move.
		m.Stats.Cycles += m.Cost.ALU
		m.GSBase = inst.HeapBase // SegImplicit (native) reads this
	}
	// R15 carries the base whenever the mode pins it (including the
	// loads-only Segue tuning, whose stores still use it). It must NOT
	// be touched otherwise: under full Segue it is a live allocatable
	// register, and Resume re-enters mid-execution.
	if cfg.PinsR15() {
		m.Regs[x86.R15] = inst.HeapBase
	}
	m.Regs[x86.R14] = inst.CtxBase

	// ColorGuard: restrict PKRU to the instance's color.
	if pkey := inst.place.Slot.Pkey; pkey != 0 {
		m.Stats.Cycles += m.Cost.WRPKRU
		m.PKRU = mem.PkruAllowOnly(pkey)
	}
	inst.Transitions++
	inst.transInCycles += m.Stats.Cycles - c0
	if telemetry.Enabled() {
		inst.ctrKind.Inc()
		inst.ctrScheme.Inc()
	}
}

// transitionOut charges the cost of leaving the sandbox and lifts the
// PKRU restriction.
func (inst *Instance) transitionOut() {
	m := inst.Mach
	c0 := m.Stats.Cycles
	m.Stats.Cycles += inst.transCycles
	if inst.place.Slot.Pkey != 0 {
		m.Stats.Cycles += m.Cost.WRPKRU
		m.PKRU = mem.PkruAllowAll
	}
	inst.transOutCycles += m.Stats.Cycles - c0
}

// TransitionNs returns the simulated wall-time the instance has spent
// entering and leaving the sandbox, under its machine's cost model.
// Together with Stats.Nanos this splits an invocation's simulated time
// into transition-in, execution, and transition-out shares for phase
// attribution.
func (inst *Instance) TransitionNs() (inNs, outNs float64) {
	c := &inst.Mach.Cost
	return c.CyclesToNanos(inst.transInCycles), c.CyclesToNanos(inst.transOutCycles)
}

// Close tears the instance down and is idempotent. Its machine goes
// back to cpu's free list (Mach is nil afterwards: read Mach.Stats and
// TransitionNs before closing, never after). A pooled instance also
// unmaps its machine stack and context block — they live in the slab's
// address space, outside the slot, so nothing else would ever release
// them — and then recycles the slot to the owning backend, charging the
// backend's teardown cost. The slot is recycled even when an unmap
// fails; the first error is returned. A standalone instance owns its
// whole address space, which becomes unreachable with it.
func (inst *Instance) Close() error {
	if inst.Mach != nil {
		inst.Mach.Release()
		inst.Mach = nil
	}
	b := inst.place.Backend
	if b == nil {
		return nil
	}
	inst.place.Backend = nil
	err := inst.AS.Munmap(inst.stackBase, inst.StackTop-inst.stackBase)
	if err != nil {
		err = fmt.Errorf("rt: unmapping stack: %w", err)
	}
	if cerr := inst.AS.Munmap(inst.CtxBase, inst.ctxBytes); cerr != nil && err == nil {
		err = fmt.Errorf("rt: unmapping context: %w", cerr)
	}
	if rerr := b.Recycle(inst.place.Slot); rerr != nil && err == nil {
		err = rerr
	}
	return err
}

// ErrNoExport is returned by Invoke for unknown export names.
var ErrNoExport = errors.New("rt: no such export")

// Invoke calls an exported function. Results are masked to their
// declared types.
func (inst *Instance) Invoke(name string, args ...uint64) ([]uint64, error) {
	fnIdx, ok := inst.Mod.Meta.Exports[name]
	if !ok {
		return nil, fmt.Errorf("%w: %q", ErrNoExport, name)
	}
	irIdx := inst.Mod.IR.Exports[name]
	sig, err := inst.Mod.IR.TypeOf(irIdx)
	if err != nil {
		return nil, err
	}
	if len(args) != len(sig.Params) {
		return nil, fmt.Errorf("rt: %q takes %d args, got %d", name, len(sig.Params), len(args))
	}

	m := inst.Mach
	m.Regs[x86.RSP] = inst.StackTop
	inst.transitionIn()

	// Place arguments per the internal ABI. The compiler rejects more
	// parameters than there are argument registers, so the integer ones
	// fit a fixed array and Invoke allocates nothing for them.
	var intArgs [len(cpu.ArgRegs)]uint64
	ipos, fpos := 0, 0
	for i, p := range sig.Params {
		if p == ir.F64 {
			m.XmmLo[fpos] = args[i]
			fpos++
		} else {
			intArgs[ipos] = args[i]
			ipos++
		}
	}
	err = m.Call(fnIdx, intArgs[:ipos]...)
	inst.transitionOut()
	if err != nil {
		return nil, err
	}
	if len(sig.Results) == 0 {
		return nil, nil
	}
	var res uint64
	switch sig.Results[0] {
	case ir.F64:
		res = m.XmmLo[0]
	case ir.I32:
		res = uint64(uint32(m.Result()))
	default:
		res = m.Result()
	}
	return []uint64{res}, nil
}

// Resume continues execution after an epoch interrupt.
func (inst *Instance) Resume() error {
	inst.transitionIn()
	err := inst.Mach.Run()
	inst.transitionOut()
	return err
}

package rt

import (
	"errors"
	"math"

	"repro/internal/cpu"
	"repro/internal/ir"
	"repro/internal/sfi"
	"repro/internal/telemetry"
)

// ErrGrownInstance is returned by Reset for an instance whose linear
// memory grew past its instantiation size: shrinking a slot back is a
// backend decision, so grown instances are torn down, not kept warm.
var ErrGrownInstance = errors.New("rt: instance grew; cannot reset")

var resetCounter = telemetry.Default.Counter("rt.resets")

// initMemory writes the module-defined initial state: context fields,
// globals, and data segments. Everything else an execution can observe
// (linear memory, the machine stack, the spill area of the context
// block) must already be zero — fresh mappings guarantee that at
// instantiation, MadviseDontneed restores it under Reset.
func (inst *Instance) initMemory() {
	m := inst.Mod.IR
	ctx := inst.CtxBase
	inst.AS.Store(ctx+sfi.CtxHeapBaseOff, 8, inst.HeapBase)
	inst.AS.Store(ctx+sfi.CtxMemLimitOff, 8, inst.MemBytes)
	inst.AS.Store(ctx+sfi.CtxMemPagesOff, 8, inst.MemBytes/ir.PageSize)
	for i, g := range m.Globals {
		v := uint64(g.Init)
		if g.Type == ir.F64 {
			v = math.Float64bits(g.InitF)
		}
		inst.AS.Store(ctx+sfi.CtxGlobalsOff+8*uint64(i), 8, v)
	}
	for _, seg := range m.Data {
		inst.AS.WriteBytes(inst.HeapBase+uint64(seg.Offset), seg.Bytes)
	}
}

// Reset returns the instance to its just-instantiated state without
// releasing its slot, so a keep-warm pool can reuse the placement and
// skip the whole cold-start path (slot allocation, address-space
// reservation, machine construction bookkeeping). The contract is
// bit-exactness: an Invoke after Reset returns exactly what the same
// Invoke returns on a fresh instance of the same module in the same
// slot.
//
// Mechanically that is MADV_DONTNEED over the linear memory, machine
// stack, and context block (zero-on-next-touch, so an idle warm
// instance also drops its dirty pages — the density lever), a replay of
// the module's initial state, and a recycled machine: the old one is
// released and cpu.NewMachine hands back one indistinguishable from
// new (on the same goroutine, normally the very same one, its cost
// tables for this program still valid). The host bindings close over
// the instance, not the machine, so they carry over. VMA protections and
// MPK colors are properties of the mappings, not the pages, so they
// survive untouched; MTE granule tags live in the owning slab, which
// Reset deliberately never touches (no teardown/re-tag charge — that
// is the point of keeping the slot).
//
// An instance whose linear memory grew is rejected with
// ErrGrownInstance: callers should Close it and cold-start the next
// request instead.
func (inst *Instance) Reset() error {
	if inst.MemBytes != inst.initMemBytes {
		return ErrGrownInstance
	}
	if inst.MemBytes > 0 {
		if err := inst.AS.MadviseDontneed(inst.HeapBase, pageUp(inst.MemBytes)); err != nil {
			return err
		}
	}
	if err := inst.AS.MadviseDontneed(inst.stackBase, inst.StackTop-inst.stackBase); err != nil {
		return err
	}
	if err := inst.AS.MadviseDontneed(inst.CtxBase, inst.ctxBytes); err != nil {
		return err
	}
	inst.initMemory()
	hosts := inst.Mach.Hosts
	inst.Mach.Release()
	inst.Mach = cpu.NewMachine(inst.AS, inst.Mod.Prog)
	inst.Mach.Hosts = hosts
	inst.Transitions = 0
	inst.transInCycles = 0
	inst.transOutCycles = 0
	if telemetry.Enabled() {
		resetCounter.Inc()
	}
	return nil
}

package rt

import (
	"fmt"

	"repro/internal/cpu"
	"repro/internal/ir"
	"repro/internal/mem"
	"repro/internal/sfi"
	"repro/internal/x86"
)

// bindHosts installs the import wrappers and memory builtins into the
// instance's machine. The bindings close over the instance, so they go
// into a fresh Machine.Hosts slice — never into the compiled Program,
// which stays immutable and shareable across instances (the module-
// compile cache depends on this). Each host call is a transition out of
// the sandbox and back in (§6.4.1), so the wrappers charge both
// directions.
func (inst *Instance) bindHosts() {
	meta := inst.Mod.Meta
	m := inst.Mod.IR
	hosts := make([]cpu.HostFunc, len(inst.Mod.Prog.Hosts))
	for i, imp := range m.Imports {
		idx := meta.HostIndex(uint32(i))
		impl, ok := inst.hosts[imp.Name]
		if !ok {
			// Leave a diagnostic stub; calling it is an error.
			name := imp.Name
			hosts[idx] = func(*cpu.Machine) error {
				return fmt.Errorf("rt: import %q not bound", name)
			}
			continue
		}
		sig := imp.Type
		hosts[idx] = inst.wrapHost(sig, impl)
	}
	hosts[meta.BuiltinIndex(sfi.BuiltinGrow)] = inst.builtinGrow
	hosts[meta.BuiltinIndex(sfi.BuiltinFill)] = inst.builtinFill
	inst.Mach.Hosts = hosts
}

// wrapHost adapts a runtime HostFunc to the machine-level convention:
// arguments in the ABI registers, integer result in RAX (f64 in xmm0).
func (inst *Instance) wrapHost(sig ir.FuncType, impl HostFunc) cpu.HostFunc {
	return func(mach *cpu.Machine) error {
		inst.transitionOut() // leaving the sandbox to run host code

		args := make([]uint64, len(sig.Params))
		ipos, fpos := 0, 0
		for i, p := range sig.Params {
			if p == ir.F64 {
				args[i] = mach.XmmLo[fpos]
				fpos++
			} else {
				args[i] = mach.Regs[cpu.ArgRegs[ipos]]
				if p == ir.I32 {
					args[i] = uint64(uint32(args[i]))
				}
				ipos++
			}
		}
		res, err := impl(&HostCall{Inst: inst, Args: args})
		if err != nil {
			return err
		}
		if len(sig.Results) == 1 {
			if sig.Results[0] == ir.F64 {
				mach.XmmLo[0] = res
			} else {
				mach.Regs[x86.RAX] = res
			}
		}
		inst.transitionIn() // back into the sandbox
		return nil
	}
}

// builtinGrow implements memory.grow: extend the open region of the
// reservation by delta pages, returning the previous size in pages (or
// -1 on failure), and refresh the context fields the compiled code
// reads.
func (inst *Instance) builtinGrow(mach *cpu.Machine) error {
	delta := uint64(uint32(mach.Regs[cpu.ArgRegs[0]]))
	oldPages := inst.MemBytes / ir.PageSize
	newBytes := inst.MemBytes + delta*ir.PageSize
	fail := func() {
		mach.Regs[x86.RAX] = uint64(uint32(0xFFFFFFFF))
	}
	if newBytes > inst.MaxBytes {
		fail()
		return nil
	}
	if delta > 0 {
		// Open the next chunk of the reservation. Pooled slots grow
		// through their backend (which re-applies the slot's color);
		// standalone reservations mprotect the delta directly.
		start := pageUp(inst.MemBytes)
		end := pageUp(newBytes)
		if end > start {
			var err error
			if b := inst.place.Backend; b != nil {
				err = b.Grow(inst.place.Slot, newBytes)
			} else if pkey := inst.place.Slot.Pkey; pkey != 0 {
				err = inst.AS.PkeyMprotect(inst.HeapBase+start, end-start, mem.ProtRead|mem.ProtWrite, pkey)
			} else {
				err = inst.AS.Mprotect(inst.HeapBase+start, end-start, mem.ProtRead|mem.ProtWrite)
			}
			if err != nil {
				fail()
				return nil
			}
		}
		// An mprotect is a system call.
		mach.Stats.Cycles += syscallCycles
	}
	inst.MemBytes = newBytes
	inst.AS.Store(inst.CtxBase+sfi.CtxMemLimitOff, 8, inst.MemBytes)
	inst.AS.Store(inst.CtxBase+sfi.CtxMemPagesOff, 8, inst.MemBytes/ir.PageSize)
	mach.Regs[x86.RAX] = oldPages
	return nil
}

// bulkCost charges the cycle cost of an n-byte bulk operation at
// linear-memory address a at a vectorized 16 B/cycle, plus cache
// traffic per line touched.
func (inst *Instance) bulkCost(mach *cpu.Machine, a, n uint64) {
	mach.Stats.Cycles += 2 + float64(n)/16
	for off := uint64(0); off < n; off += 64 {
		switch mach.Hier.AccessL1(inst.HeapBase + a + off) {
		case 1:
			mach.Stats.Cycles += mach.Cost.L2Hit
		case 2:
			mach.Stats.Cycles += mach.Cost.MemAccess
		}
	}
}

// builtinFill implements memory.fill.
func (inst *Instance) builtinFill(mach *cpu.Machine) error {
	dst := uint64(uint32(mach.Regs[cpu.ArgRegs[0]]))
	val := byte(mach.Regs[cpu.ArgRegs[1]])
	n := uint64(uint32(mach.Regs[cpu.ArgRegs[2]]))
	if dst+n > inst.MemBytes {
		return &cpu.Trap{Kind: cpu.TrapPageFault, Addr: inst.HeapBase + dst + n}
	}
	if n == 0 {
		return nil
	}
	buf := make([]byte, n)
	for i := range buf {
		buf[i] = val
	}
	inst.AS.WriteBytes(inst.HeapBase+dst, buf)
	inst.bulkCost(mach, dst, n)
	return nil
}

// Package cpu emulates the modeled x86-64 subset with a calibrated cycle
// cost model. It executes programs produced by the SFI compilers in
// internal/sfi against a simulated address space (internal/mem) and
// memory hierarchy (internal/cache), enforcing segment-relative
// addressing, PKRU protection-key checks, guard-page traps, and epoch
// interruption — everything the paper's measurements depend on.
package cpu

import (
	"fmt"
	"sync"

	"repro/internal/x86"
)

// Func is one compiled function.
type Func struct {
	Name  string
	Insts []x86.Inst

	// ByteLen is the encoded size of the function; InstLens holds the
	// per-instruction encoded lengths used for front-end fetch cost.
	ByteLen  int
	InstLens []int
}

// Encode fills ByteLen and InstLens from the x86 encoder. Compilers call
// this once after emission.
func (f *Func) Encode() {
	_, offsets, total := x86.EncodeFunc(f.Insts)
	f.ByteLen = total
	f.InstLens = make([]int, len(f.Insts))
	for i := range f.Insts {
		f.InstLens[i] = offsets[i+1] - offsets[i]
	}
}

// TableEntry is one call_indirect table slot: the callee function index
// and its signature id (interned by the compiler).
type TableEntry struct {
	FuncIdx int
	SigID   int
}

// NullTableEntry marks an uninitialized slot.
const NullTableEntry = -1

// HostFunc implements an imported function at the machine level. It may
// inspect and modify machine state (registers, memory). The integer
// result convention is RAX; the host reads arguments from the argument
// registers per the internal ABI.
type HostFunc func(m *Machine) error

// Program is a compiled module image: functions, the indirect-call
// table, and host-import slots. After compilation a Program is
// immutable — runtimes bind per-instance host implementations into
// Machine.Hosts, never into Program.Hosts — so one compiled Program is
// safely shared by any number of concurrent Machines (the module-
// compile cache in internal/rt relies on this).
type Program struct {
	Funcs []*Func
	Table []TableEntry
	Hosts []HostFunc

	// HostNames parallels Hosts, for diagnostics.
	HostNames []string

	// The decoded stream (decode.go), built lazily once and shared by
	// all Machines executing this Program.
	decOnce sync.Once
	dec     []decFunc

	// The fused overlay of dec (fuse.go), built for the whole program
	// once, the first time a fused-tier Machine runs it, and shared like
	// dec: a module fused once serves every later Machine (the module
	// cache in internal/rt shares Programs across instances for exactly
	// this amortization). Only fusedStream reads it, after fuseOnce.
	fuseOnce sync.Once
	fused    *fusedProg
}

// CodeBytes returns the total encoded size of all functions — the
// "compiled binary size" metric of Table 2.
func (p *Program) CodeBytes() int {
	n := 0
	for _, f := range p.Funcs {
		n += f.ByteLen
	}
	return n
}

// TrapKind classifies machine traps.
type TrapKind uint8

// Machine trap kinds.
const (
	TrapPageFault TrapKind = iota // unmapped/PROT_NONE access (guard hit)
	TrapPkey                      // MPK violation (SEGV_PKUERR)
	TrapProt                      // permission violation on a mapped page
	TrapDivZero                   // integer division by zero
	TrapOverflow                  // INT_MIN / -1
	TrapBounds                    // explicit bounds check failed (trapif)
	TrapEpoch                     // epoch deadline reached (resumable)
	TrapCallDepth                 // call stack exhausted
	TrapTableOOB                  // indirect call table index out of range
	TrapTableNull                 // indirect call to a null slot
	TrapTableSig                  // indirect call signature mismatch
)

var trapKindNames = [...]string{
	"page fault", "protection-key fault", "protection fault",
	"divide by zero", "integer overflow",
	"bounds check failed", "epoch interrupt", "call depth exceeded",
	"table index out of bounds", "null table entry", "indirect signature mismatch",
}

// Trap is the error produced when the machine traps. TrapEpoch is
// special: the machine remains resumable via Run.
type Trap struct {
	Kind TrapKind
	Addr uint64 // faulting address for memory traps
	Fn   int    // function index
	PC   int    // instruction index within the function
}

// Error implements error.
func (t *Trap) Error() string {
	name := "trap"
	if int(t.Kind) < len(trapKindNames) {
		name = trapKindNames[t.Kind]
	}
	if t.Kind == TrapPageFault || t.Kind == TrapPkey || t.Kind == TrapProt {
		return fmt.Sprintf("cpu: %s at %#x (fn %d pc %d)", name, t.Addr, t.Fn, t.PC)
	}
	return fmt.Sprintf("cpu: %s (fn %d pc %d)", name, t.Fn, t.PC)
}

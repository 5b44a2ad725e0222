// Package sfi implements the SFI compilers at the heart of the
// reproduction: lowering of the Wasm-like IR to the modeled x86-64 ISA
// under several isolation schemes.
//
// The modes mirror the toolchains the paper studies:
//
//   - ModeNative — no isolation; the baseline every figure normalizes to.
//   - ModeGuard — classic guard-page SFI (Wasm2c/Wasmtime default): a
//     pinned heap-base register (R15), explicit truncation of
//     64-bit-derived addresses, and address arithmetic that cannot use
//     the base+index*scale operand slot because the base slot is taken.
//   - ModeSegue — the paper's Segue: heap base in %gs, full
//     addressing-mode folding, free truncation via the address-size
//     override, and R15 returned to the register allocator.
//   - ModeBoundsCheck / ModeBoundsSegue — explicit bounds checks per
//     access (engines without guard regions, e.g. memory64), optionally
//     with Segue addressing.
//   - ModeLFI / ModeLFISegue — LFI-style assembly-level SFI: data
//     accesses as in Guard/Segue, plus control-flow instrumentation on
//     returns and indirect calls that keeps R15 pinned even under Segue
//     (§4.3 of the paper).
//
// Config tuning knobs reproduce WAMR's deployment constraints (§4.2):
// SegueLoadsOnly applies Segue to loads only, FoldOperandSlot=false
// models WAMR's "register-only" Segue, and Vectorize enables the
// store-rooted vectorization pass whose pattern matcher is defeated by
// segment prefixes — the source of the memmove/sieve regressions.
package sfi

import (
	"fmt"

	"repro/internal/cpu"
	"repro/internal/ir"
	"repro/internal/telemetry"
)

// Mode selects the isolation scheme.
type Mode uint8

// Compilation modes.
const (
	ModeNative Mode = iota
	ModeGuard
	ModeSegue
	ModeBoundsCheck
	ModeBoundsSegue
	ModeLFI
	ModeLFISegue
)

var modeNames = [...]string{
	"native", "guard", "segue", "boundscheck", "boundssegue", "lfi", "lfisegue",
}

// String returns the mode name.
func (m Mode) String() string {
	if int(m) < len(modeNames) {
		return modeNames[m]
	}
	return fmt.Sprintf("mode(%d)", uint8(m))
}

// usesSegment reports whether memory accesses go through a segment
// register (and thus carry prefix bytes).
func (m Mode) usesSegment() bool {
	return m == ModeSegue || m == ModeBoundsSegue || m == ModeLFISegue
}

// pinsHeapBase reports whether R15 stays reserved for the heap base.
// LFI pins it even under Segue because control-flow instrumentation
// needs it (§4.3).
func (m Mode) pinsHeapBase() bool {
	switch m {
	case ModeGuard, ModeBoundsCheck, ModeLFI, ModeLFISegue:
		return true
	default:
		return false
	}
}

// boundsChecked reports whether explicit bounds checks are emitted.
func (m Mode) boundsChecked() bool {
	return m == ModeBoundsCheck || m == ModeBoundsSegue
}

// controlFlowSFI reports whether LFI-style control-flow instrumentation
// is emitted.
func (m Mode) controlFlowSFI() bool { return m == ModeLFI || m == ModeLFISegue }

// Config parameterizes compilation.
type Config struct {
	Mode Mode

	// Harden selects the Spectre-hardening scheme, orthogonal to Mode.
	// HardenNone (the zero value) emits nothing and compiles
	// byte-identical code to a pre-hardening build. Ignored under
	// ModeNative, which models trusted code.
	Harden Harden

	// SegueLoadsOnly applies segment addressing to loads only; stores
	// use the classic scheme (WAMR's tuning knob from §4.2/§6.2).
	SegueLoadsOnly bool

	// FoldOperandSlot, when false under Segue, disables the extra
	// addressing-operand folding — WAMR's "register-only" Segue, which
	// frees R15 and uses gs-relative access but does not reduce the
	// instruction count for computed addresses.
	FoldOperandSlot bool

	// Vectorize enables the WAMR-style post-pass that fuses adjacent
	// 64-bit copy/store pairs into 128-bit operations. Its matcher
	// roots at store instructions and rejects segment-prefixed stores.
	Vectorize bool

	// EpochChecks inserts an epoch-interruption check at every loop
	// header (Wasmtime's epoch_interruption).
	EpochChecks bool

	// SignedOffset implements Wasmtime's 2+2 GiB guard scheme (§5.1):
	// for memories capped at 2 GiB, untrusted 64-bit-derived addresses
	// are SIGN-extended instead of zero-extended, so a corrupt index
	// traps in the pre-guard region as a negative offset. Halves the
	// guard requirement; needs the runtime to reserve a pre-guard.
	SignedOffset bool

	// ReserveR15 keeps R15 (and the rewriter's R11 scratch) out of the
	// register allocator even in modes that would free them — what
	// LFI's binary rewriter requires of its input (the -ffixed-reg
	// compilation contract, §4.3).
	ReserveR15 bool

	// Hybrid, with ModeSegue, implements the paper's proposed future
	// work (§6.1 outliers): a per-access cost function that uses
	// segment-relative addressing only where it removes an instruction
	// (computed addresses, dirty truncations) and the classic pinned-
	// base form where Segue would only add prefix bytes. The heap-base
	// register stays pinned.
	Hybrid bool

	// FoldDispLimit bounds the static offsets folded into addressing
	// modes; real engines fold any offset their guard regions cover
	// (Wasmtime: up to 2 GiB). The runtime's default guard is 4 GiB,
	// so the 1 GiB default is always sound.
	FoldDispLimit uint32
}

// DefaultConfig returns a Config for the given mode with folding
// enabled, a 1 GiB disp-fold limit (covered by the runtime's default
// guard regions), and no hardening (HardenNone).
func DefaultConfig(mode Mode) Config {
	return Config{
		Mode:            mode,
		FoldOperandSlot: true,
		FoldDispLimit:   1 << 30,
	}
}

// PinsR15 reports whether compiled code expects the heap base in R15
// at entry. Under full Segue (and the native baseline) R15 is an
// allocatable register instead and must not be written by transitions.
func (c Config) PinsR15() bool {
	if c.Mode == ModeNative {
		return false
	}
	return c.Mode.pinsHeapBase() || c.SegueLoadsOnly || c.Hybrid
}

// Context-region layout: R14 points at a per-instance context block in
// runtime (key 0) memory.
const (
	CtxHeapBaseOff = 0  // heap base (informational; code uses R15/GS)
	CtxMemLimitOff = 8  // linear memory size in bytes (bounds checks)
	CtxMemPagesOff = 16 // linear memory size in pages (memory.size)
	CtxSize        = 32 // the context region's size
)

// Builtin host slots appended after the module's imports.
const (
	BuiltinGrow = iota // memory.grow(delta_pages) -> old_pages
	BuiltinFill        // memory.fill(dst, val, n)
	NumBuiltins
)

// Meta describes the compiled image to the runtime.
type Meta struct {
	Module *ir.Module
	Cfg    Config

	// NumImports is the count of module imports; builtin host slots
	// follow them in the program's host table.
	NumImports int

	// Exports maps export names to cpu function indices.
	Exports map[string]int
}

// HostIndex returns the program host index for IR import index i.
func (mt *Meta) HostIndex(i uint32) int { return int(i) }

// BuiltinIndex returns the program host index for a builtin.
func (mt *Meta) BuiltinIndex(b int) int { return mt.NumImports + b }

// FuncIndex maps an IR function index (combined space) to a cpu
// function index, or -1 for imports.
func (mt *Meta) FuncIndex(irIdx uint32) int {
	d := int(irIdx) - mt.NumImports
	if d < 0 {
		return -1
	}
	return d
}

// Compile lowers every function in the module under cfg. The module
// must validate. Host slots in the returned program are left nil; the
// runtime binds them.
// ctrCompiles counts every Compile invocation; together with
// rt.modcache.hits it shows how much work the compile cache saves.
var ctrCompiles = telemetry.Default.Counter("sfi.compiles")

func Compile(m *ir.Module, cfg Config) (*cpu.Program, *Meta, error) {
	ctrCompiles.Inc()
	if cfg.Harden >= numHardens {
		return nil, nil, fmt.Errorf("sfi: unknown harden mode %d", uint8(cfg.Harden))
	}
	ctrHardens[cfg.Harden].Inc()
	if !m.Validated() {
		if err := m.Validate(); err != nil {
			return nil, nil, err
		}
	}
	if cfg.FoldDispLimit == 0 {
		cfg.FoldDispLimit = 1 << 30
	}
	meta := &Meta{
		Module:     m,
		Cfg:        cfg,
		NumImports: len(m.Imports),
		Exports:    make(map[string]int),
	}
	prog := &cpu.Program{
		Hosts:     make([]cpu.HostFunc, len(m.Imports)+NumBuiltins),
		HostNames: make([]string, len(m.Imports)+NumBuiltins),
	}
	for i, imp := range m.Imports {
		prog.HostNames[i] = imp.Name
	}
	prog.HostNames[meta.BuiltinIndex(BuiltinGrow)] = "builtin.memory.grow"
	prog.HostNames[meta.BuiltinIndex(BuiltinFill)] = "builtin.memory.fill"

	for fi, f := range m.Funcs {
		fc := newFnCompiler(m, f, cfg, meta)
		cf, err := fc.compile()
		if err != nil {
			return nil, nil, fmt.Errorf("sfi: function %d (%q): %w", fi, f.Name, err)
		}
		if cfg.Vectorize {
			cf.Insts = vectorize(cf.Insts, cfg)
		}
		cf.Encode()
		prog.Funcs = append(prog.Funcs, cf)
	}

	// Indirect-call table: IR table slots to cpu entries.
	for _, slot := range m.Table {
		if slot == ir.NullFunc {
			prog.Table = append(prog.Table, cpu.TableEntry{FuncIdx: cpu.NullTableEntry})
			continue
		}
		cpuIdx := meta.FuncIndex(slot)
		if cpuIdx < 0 {
			return nil, nil, fmt.Errorf("sfi: table entry references import %d (unsupported)", slot)
		}
		sig, err := m.TypeOf(slot)
		if err != nil {
			return nil, nil, err
		}
		prog.Table = append(prog.Table, cpu.TableEntry{FuncIdx: cpuIdx, SigID: m.InternType(sig)})
	}

	for name, idx := range m.Exports {
		ci := meta.FuncIndex(idx)
		if ci < 0 {
			return nil, nil, fmt.Errorf("sfi: export %q is an import", name)
		}
		meta.Exports[name] = ci
	}
	return prog, meta, nil
}

// Disassemble renders a compiled function as annotated assembly, used
// by cmd/sfic to show the Figure 1 comparison.
func Disassemble(f *cpu.Func) string {
	out := fmt.Sprintf("%s:  ; %d bytes\n", f.Name, f.ByteLen)
	for i, in := range f.Insts {
		out += fmt.Sprintf("  %3d: %s\n", i, in.String())
	}
	return out
}

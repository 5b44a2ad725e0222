// Package ir defines the WebAssembly-like intermediate representation
// that every benchmark kernel in this repository is written in, together
// with a builder API, a structural validator, and a reference interpreter.
//
// The IR is a structured stack machine modeled on core Wasm: i32/i64/f64
// value types, linear memory addressed by a 32-bit index plus a static
// offset, structured control (block/loop/if with relative branch
// depths), direct and indirect calls, and host imports. Its opcodes are
// the ones the benchmark kernels emit plus memory.size/memory.grow,
// measured by the op census test in internal/exp. The SFI compilers in internal/sfi
// lower this IR to the x86 model; the interpreter provides the semantics
// they are differentially tested against.
package ir

import "fmt"

// ValType is an IR value type.
type ValType uint8

// Value types.
const (
	I32 ValType = iota
	I64
	F64
)

// String returns the Wasm-style type name.
func (t ValType) String() string {
	switch t {
	case I32:
		return "i32"
	case I64:
		return "i64"
	case F64:
		return "f64"
	default:
		return fmt.Sprintf("valtype(%d)", uint8(t))
	}
}

// FuncType is a function signature.
type FuncType struct {
	Params  []ValType
	Results []ValType
}

// Sig builds a FuncType from parameter and result type lists.
func Sig(params, results []ValType) FuncType {
	return FuncType{Params: params, Results: results}
}

// Equal reports signature equality (used by call_indirect checks).
func (f FuncType) Equal(o FuncType) bool {
	if len(f.Params) != len(o.Params) || len(f.Results) != len(o.Results) {
		return false
	}
	for i, p := range f.Params {
		if o.Params[i] != p {
			return false
		}
	}
	for i, r := range f.Results {
		if o.Results[i] != r {
			return false
		}
	}
	return true
}

// String renders the signature as "(i32, i32) -> (i64)".
func (f FuncType) String() string {
	s := "("
	for i, p := range f.Params {
		if i > 0 {
			s += ", "
		}
		s += p.String()
	}
	s += ") -> ("
	for i, r := range f.Results {
		if i > 0 {
			s += ", "
		}
		s += r.String()
	}
	return s + ")"
}

// Op is an IR opcode.
type Op uint8

// Opcodes: the instruction surface the benchmark kernels use, as the op
// census test in internal/exp measures it. Ordering groups related
// operations; the compiler and interpreter switch on these.
const (
	// Structured control. Block/Loop/If regions are closed by OpEnd;
	// OpElse separates the arms of an if.
	OpBlock Op = iota
	OpLoop
	OpIf
	OpElse
	OpEnd
	OpBr           // Imm = relative depth
	OpBrIf         // Imm = relative depth
	OpBrTable      // Targets = depths, Imm = default depth
	OpCall         // Imm = function index (imports first)
	OpCallIndirect // Imm = type index; callee table slot from stack

	OpLocalGet // Imm = local index
	OpLocalSet // Imm = local index
	OpLocalTee // Imm = local index

	// Memory access: address (i32) from the stack, plus static Offset.
	OpI32Load
	OpI64Load
	OpF64Load
	OpI32Load8U
	OpI32Load16U
	OpI32Store
	OpI64Store
	OpF64Store
	OpI32Store8

	OpMemorySize
	OpMemoryGrow
	OpMemoryFill // dst, byte, len (i32) from stack

	OpI32Const // Imm
	OpI64Const // Imm
	OpF64Const // Fimm

	// i32 comparisons (result i32 0/1).
	OpI32Eqz
	OpI32Eq
	OpI32Ne
	OpI32LtS
	OpI32LtU
	OpI32GtS
	OpI32LeS
	OpI32GeS
	OpI32GeU

	// i32 arithmetic.
	OpI32Add
	OpI32Sub
	OpI32Mul
	OpI32DivS
	OpI32RemS
	OpI32RemU
	OpI32And
	OpI32Or
	OpI32Xor
	OpI32Shl
	OpI32ShrS
	OpI32ShrU
	OpI32Rotl

	// i64 arithmetic.
	OpI64Add
	OpI64Mul
	OpI64ShrU
	OpI64Popcnt

	// f64 arithmetic.
	OpF64Add
	OpF64Mul
	OpF64Div
	OpF64Abs
	OpF64Min

	// Conversions.
	OpI32WrapI64
	OpI64ExtendI32U
	OpF64ConvertI32S
	OpI64ReinterpretF64

	opCount
)

var opNames = [opCount]string{
	OpBlock: "block", OpLoop: "loop", OpIf: "if", OpElse: "else", OpEnd: "end",
	OpBr: "br", OpBrIf: "br_if", OpBrTable: "br_table", OpCall: "call",
	OpCallIndirect: "call_indirect",
	OpLocalGet:     "local.get", OpLocalSet: "local.set", OpLocalTee: "local.tee",
	OpI32Load: "i32.load", OpI64Load: "i64.load", OpF64Load: "f64.load",
	OpI32Load8U: "i32.load8_u", OpI32Load16U: "i32.load16_u",
	OpI32Store: "i32.store", OpI64Store: "i64.store", OpF64Store: "f64.store",
	OpI32Store8:  "i32.store8",
	OpMemorySize: "memory.size", OpMemoryGrow: "memory.grow", OpMemoryFill: "memory.fill",
	OpI32Const: "i32.const", OpI64Const: "i64.const", OpF64Const: "f64.const",
	OpI32Eqz: "i32.eqz", OpI32Eq: "i32.eq", OpI32Ne: "i32.ne", OpI32LtS: "i32.lt_s",
	OpI32LtU: "i32.lt_u", OpI32GtS: "i32.gt_s", OpI32LeS: "i32.le_s",
	OpI32GeS: "i32.ge_s", OpI32GeU: "i32.ge_u",
	OpI32Add: "i32.add", OpI32Sub: "i32.sub", OpI32Mul: "i32.mul",
	OpI32DivS: "i32.div_s", OpI32RemS: "i32.rem_s", OpI32RemU: "i32.rem_u",
	OpI32And: "i32.and", OpI32Or: "i32.or", OpI32Xor: "i32.xor", OpI32Shl: "i32.shl",
	OpI32ShrS: "i32.shr_s", OpI32ShrU: "i32.shr_u", OpI32Rotl: "i32.rotl",
	OpI64Add: "i64.add", OpI64Mul: "i64.mul", OpI64ShrU: "i64.shr_u",
	OpI64Popcnt: "i64.popcnt",
	OpF64Add:    "f64.add", OpF64Mul: "f64.mul", OpF64Div: "f64.div",
	OpF64Abs: "f64.abs", OpF64Min: "f64.min",
	OpI32WrapI64: "i32.wrap_i64", OpI64ExtendI32U: "i64.extend_i32_u",
	OpF64ConvertI32S: "f64.convert_i32_s", OpI64ReinterpretF64: "i64.reinterpret_f64",
}

// String returns the Wasm-style mnemonic for the opcode.
func (o Op) String() string {
	if o < opCount {
		return opNames[o]
	}
	return fmt.Sprintf("op(%d)", uint8(o))
}

// Inst is one IR instruction. Imm carries integer immediates (constants,
// indices, branch depths), Fimm float constants, Offset the static
// memory-access offset, and Targets the br_table depth list.
type Inst struct {
	Op      Op
	Imm     int64
	Fimm    float64
	Offset  uint32
	Targets []uint32
	// BlockType is the single result type of a block/loop/if region,
	// or NoResult for an empty region type.
	BlockType int8
}

// NoResult marks a block with no result value.
const NoResult int8 = -1

// String renders the instruction.
func (i Inst) String() string {
	switch i.Op {
	case OpI32Const, OpI64Const:
		return fmt.Sprintf("%s %d", i.Op, i.Imm)
	case OpF64Const:
		return fmt.Sprintf("%s %g", i.Op, i.Fimm)
	case OpBr, OpBrIf, OpCall, OpCallIndirect, OpLocalGet, OpLocalSet, OpLocalTee:
		return fmt.Sprintf("%s %d", i.Op, i.Imm)
	case OpBrTable:
		return fmt.Sprintf("%s %v default=%d", i.Op, i.Targets, i.Imm)
	case OpI32Load, OpI64Load, OpF64Load, OpI32Load8U, OpI32Load16U,
		OpI32Store, OpI64Store, OpF64Store, OpI32Store8:
		return fmt.Sprintf("%s offset=%d", i.Op, i.Offset)
	default:
		return i.Op.String()
	}
}

// IsLoad reports whether the opcode is a memory load.
func (o Op) IsLoad() bool { return o >= OpI32Load && o <= OpI32Load16U }

// IsStore reports whether the opcode is a memory store.
func (o Op) IsStore() bool { return o >= OpI32Store && o <= OpI32Store8 }

// AccessSize returns the memory footprint in bytes of a load/store
// opcode, or 0 for other ops.
func (o Op) AccessSize() uint32 {
	switch o {
	case OpI32Load8U, OpI32Store8:
		return 1
	case OpI32Load16U:
		return 2
	case OpI32Load, OpI32Store:
		return 4
	case OpI64Load, OpI64Store, OpF64Load, OpF64Store:
		return 8
	default:
		return 0
	}
}

// PageSize is the Wasm linear-memory page size (64 KiB).
const PageSize = 64 * 1024

// TrapKind classifies an execution trap.
type TrapKind uint8

// Trap kinds.
const (
	TrapOOB TrapKind = iota
	TrapDivByZero
	TrapIntOverflow
	TrapIndirectOOB
	TrapIndirectSig
	TrapIndirectNull
	TrapStackExhausted
)

var trapNames = [...]string{
	"out-of-bounds memory access", "integer divide by zero",
	"integer overflow", "table index out of bounds", "indirect call signature mismatch",
	"uninitialized table element", "call stack exhausted",
}

// Trap is the error returned when IR execution traps.
type Trap struct {
	Kind TrapKind
	// Addr is the faulting linear-memory address for TrapOOB.
	Addr uint64
}

// Error implements error.
func (t *Trap) Error() string {
	name := "trap"
	if int(t.Kind) < len(trapNames) {
		name = trapNames[t.Kind]
	}
	if t.Kind == TrapOOB {
		return fmt.Sprintf("trap: %s at 0x%x", name, t.Addr)
	}
	return "trap: " + name
}

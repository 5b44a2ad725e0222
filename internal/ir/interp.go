package ir

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"math/bits"
)

// HostFunc implements an imported function for the interpreter. It
// receives the instance's linear memory and the raw argument values
// (i32/i64 zero-extended, f64 as bits) and returns a result value (used
// only when the import signature declares one).
type HostFunc func(mem []byte, args []uint64) (uint64, error)

// ErrStepLimit is returned when execution exceeds Interp.StepLimit.
var ErrStepLimit = errors.New("ir: interpreter step limit exceeded")

// maxCallDepth bounds recursion, producing TrapStackExhausted like a
// real engine's guarded stack.
const maxCallDepth = 2000

// Interp is the reference interpreter: the executable semantics that the
// SFI compilers are differentially tested against. It is deliberately
// simple and unoptimized.
type Interp struct {
	m     *Module
	Mem   []byte
	hosts []HostFunc

	// StepLimit bounds the total instruction count; 0 means no limit.
	StepLimit uint64
	Steps     uint64

	depth int
}

// NewInterp instantiates the module: validates (if not yet validated),
// allocates and initializes linear memory, and binds host
// imports by name. Missing host bindings are an error.
func NewInterp(m *Module, hosts map[string]HostFunc) (*Interp, error) {
	if !m.validated {
		if err := m.Validate(); err != nil {
			return nil, err
		}
	}
	ip := &Interp{m: m, Mem: make([]byte, int(m.MemMin)*PageSize)}
	for _, seg := range m.Data {
		copy(ip.Mem[seg.Offset:], seg.Bytes)
	}
	for _, imp := range m.Imports {
		h, ok := hosts[imp.Name]
		if !ok {
			return nil, fmt.Errorf("ir: no host binding for import %q", imp.Name)
		}
		ip.hosts = append(ip.hosts, h)
	}
	return ip, nil
}

// Invoke calls the exported function by name with raw argument values.
func (ip *Interp) Invoke(name string, args ...uint64) ([]uint64, error) {
	idx, ok := ip.m.Exports[name]
	if !ok {
		return nil, fmt.Errorf("ir: no export %q", name)
	}
	return ip.CallIndex(idx, args...)
}

// CallIndex calls the function at the given index in the combined index
// space.
func (ip *Interp) CallIndex(idx uint32, args ...uint64) ([]uint64, error) {
	sig, err := ip.m.TypeOf(idx)
	if err != nil {
		return nil, err
	}
	if len(args) != len(sig.Params) {
		return nil, fmt.Errorf("ir: call with %d args, want %d", len(args), len(sig.Params))
	}
	return ip.call(idx, args)
}

func (ip *Interp) call(idx uint32, args []uint64) ([]uint64, error) {
	if int(idx) < len(ip.m.Imports) {
		res, err := ip.hosts[idx](ip.Mem, args)
		if err != nil {
			return nil, err
		}
		if len(ip.m.Imports[idx].Type.Results) == 1 {
			return []uint64{res}, nil
		}
		return nil, nil
	}
	ip.depth++
	defer func() { ip.depth-- }()
	if ip.depth > maxCallDepth {
		return nil, &Trap{Kind: TrapStackExhausted}
	}
	f := ip.m.Funcs[int(idx)-len(ip.m.Imports)]
	return ip.exec(f, args)
}

// ictrl is an interpreter control-stack entry.
type ictrl struct {
	start  int // instruction index of the opener
	end    int
	isLoop bool
	height int // value-stack height at entry
	arity  int // branch arity (0 or 1)
}

func (ip *Interp) exec(f *Func, args []uint64) ([]uint64, error) {
	locals := make([]uint64, f.NumLocals())
	copy(locals, args)
	var stack []uint64
	var ctrls []ictrl

	push := func(v uint64) { stack = append(stack, v) }
	pop := func() uint64 {
		v := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		return v
	}
	pushF := func(v float64) { push(math.Float64bits(v)) }
	popF := func() float64 { return math.Float64frombits(pop()) }
	pushB := func(b bool) {
		if b {
			push(1)
		} else {
			push(0)
		}
	}

	// branchTo implements br to relative depth d: unwind control frames,
	// preserve the label-arity values, and set pc. It returns the new pc.
	branchTo := func(d int, pc int) int {
		idx := len(ctrls) - 1 - d
		if idx < 0 {
			// Branch out of the function body: behave like return.
			return len(f.Body)
		}
		target := ctrls[idx]
		arity := target.arity
		if target.isLoop {
			arity = 0
		}
		saved := make([]uint64, arity)
		copy(saved, stack[len(stack)-arity:])
		stack = stack[:target.height]
		stack = append(stack, saved...)
		if target.isLoop {
			ctrls = ctrls[:idx+1]
			return target.start + 1
		}
		ctrls = ctrls[:idx+1]
		return target.end // the End instruction pops the frame
	}

	body := f.Body
	pc := 0
	for pc < len(body) {
		if ip.StepLimit != 0 {
			ip.Steps++
			if ip.Steps > ip.StepLimit {
				return nil, ErrStepLimit
			}
		}
		in := body[pc]
		switch in.Op {
		case OpBlock, OpLoop:
			ci := f.ctrl[pc]
			arity := 0
			if in.BlockType != NoResult {
				arity = 1
			}
			ctrls = append(ctrls, ictrl{start: pc, end: ci.end, isLoop: in.Op == OpLoop, height: len(stack), arity: arity})
		case OpIf:
			cond := pop()
			ci := f.ctrl[pc]
			arity := 0
			if in.BlockType != NoResult {
				arity = 1
			}
			ctrls = append(ctrls, ictrl{start: pc, end: ci.end, height: len(stack), arity: arity})
			if cond == 0 {
				if ci.els != -1 {
					pc = ci.els // fall into the else arm
				} else {
					pc = ci.end - 1 // the End pops the frame
				}
			}
		case OpElse:
			// Reached by fall-through from the true arm: skip to End.
			fr := ctrls[len(ctrls)-1]
			pc = fr.end - 1
		case OpEnd:
			fr := ctrls[len(ctrls)-1]
			ctrls = ctrls[:len(ctrls)-1]
			_ = fr

		case OpBr:
			pc = branchTo(int(in.Imm), pc)
			continue
		case OpBrIf:
			if pop() != 0 {
				pc = branchTo(int(in.Imm), pc)
				continue
			}
		case OpBrTable:
			i := uint32(pop())
			d := uint32(in.Imm)
			if int(i) < len(in.Targets) {
				d = in.Targets[i]
			}
			pc = branchTo(int(d), pc)
			continue

		case OpCall:
			if err := ip.doCall(uint32(in.Imm), &stack); err != nil {
				return nil, err
			}
		case OpCallIndirect:
			slot := uint32(pop())
			if int(slot) >= len(ip.m.Table) {
				return nil, &Trap{Kind: TrapIndirectOOB}
			}
			callee := ip.m.Table[slot]
			if callee == NullFunc {
				return nil, &Trap{Kind: TrapIndirectNull}
			}
			want := ip.m.sigTable[in.Imm]
			got, err := ip.m.TypeOf(callee)
			if err != nil {
				return nil, err
			}
			if !got.Equal(want) {
				return nil, &Trap{Kind: TrapIndirectSig}
			}
			if err := ip.doCall(callee, &stack); err != nil {
				return nil, err
			}

		case OpLocalGet:
			push(locals[in.Imm])
		case OpLocalSet:
			locals[in.Imm] = pop()
		case OpLocalTee:
			locals[in.Imm] = stack[len(stack)-1]

		case OpI32Const:
			push(uint64(uint32(in.Imm)))
		case OpI64Const:
			push(uint64(in.Imm))
		case OpF64Const:
			pushF(in.Fimm)

		case OpI32Load, OpI64Load, OpF64Load, OpI32Load8U, OpI32Load16U:
			addr := uint32(pop())
			v, err := ip.load(in.Op, addr, in.Offset)
			if err != nil {
				return nil, err
			}
			push(v)
		case OpI32Store, OpI64Store, OpF64Store, OpI32Store8:
			val := pop()
			addr := uint32(pop())
			if err := ip.store(in.Op, addr, in.Offset, val); err != nil {
				return nil, err
			}

		case OpMemorySize:
			push(uint64(len(ip.Mem) / PageSize))
		case OpMemoryGrow:
			delta := uint32(pop())
			old := uint32(len(ip.Mem) / PageSize)
			if uint64(old)+uint64(delta) > uint64(ip.m.MemMax) {
				push(uint64(uint32(0xFFFFFFFF)))
			} else {
				ip.Mem = append(ip.Mem, make([]byte, int(delta)*PageSize)...)
				push(uint64(old))
			}
		case OpMemoryFill:
			n := uint32(pop())
			val := byte(pop())
			dst := uint32(pop())
			if uint64(dst)+uint64(n) > uint64(len(ip.Mem)) {
				return nil, &Trap{Kind: TrapOOB, Addr: uint64(dst) + uint64(n)}
			}
			for i := uint32(0); i < n; i++ {
				ip.Mem[dst+i] = val
			}

		// --- i32 ---
		case OpI32Eqz:
			pushB(uint32(pop()) == 0)
		case OpI32Eq, OpI32Ne, OpI32LtS, OpI32LtU, OpI32GtS, OpI32LeS, OpI32GeS, OpI32GeU:
			b32 := uint32(pop())
			a32 := uint32(pop())
			pushB(cmp32(in.Op, a32, b32))
		case OpI32Add:
			b32, a32 := uint32(pop()), uint32(pop())
			push(uint64(a32 + b32))
		case OpI32Sub:
			b32, a32 := uint32(pop()), uint32(pop())
			push(uint64(a32 - b32))
		case OpI32Mul:
			b32, a32 := uint32(pop()), uint32(pop())
			push(uint64(a32 * b32))
		case OpI32DivS:
			b32, a32 := int32(pop()), int32(pop())
			if b32 == 0 {
				return nil, &Trap{Kind: TrapDivByZero}
			}
			if a32 == math.MinInt32 && b32 == -1 {
				return nil, &Trap{Kind: TrapIntOverflow}
			}
			push(uint64(uint32(a32 / b32)))
		case OpI32RemS:
			b32, a32 := int32(pop()), int32(pop())
			if b32 == 0 {
				return nil, &Trap{Kind: TrapDivByZero}
			}
			if a32 == math.MinInt32 && b32 == -1 {
				push(0)
			} else {
				push(uint64(uint32(a32 % b32)))
			}
		case OpI32RemU:
			b32, a32 := uint32(pop()), uint32(pop())
			if b32 == 0 {
				return nil, &Trap{Kind: TrapDivByZero}
			}
			push(uint64(a32 % b32))
		case OpI32And:
			push(uint64(uint32(pop()) & uint32(pop())))
		case OpI32Or:
			push(uint64(uint32(pop()) | uint32(pop())))
		case OpI32Xor:
			push(uint64(uint32(pop()) ^ uint32(pop())))
		case OpI32Shl:
			b32, a32 := uint32(pop()), uint32(pop())
			push(uint64(a32 << (b32 & 31)))
		case OpI32ShrS:
			b32, a32 := uint32(pop()), int32(pop())
			push(uint64(uint32(a32 >> (b32 & 31))))
		case OpI32ShrU:
			b32, a32 := uint32(pop()), uint32(pop())
			push(uint64(a32 >> (b32 & 31)))
		case OpI32Rotl:
			b32, a32 := uint32(pop()), uint32(pop())
			push(uint64(bits.RotateLeft32(a32, int(b32&31))))

		// --- i64 ---
		case OpI64Add:
			b64, a64 := pop(), pop()
			push(a64 + b64)
		case OpI64Mul:
			b64, a64 := pop(), pop()
			push(a64 * b64)
		case OpI64ShrU:
			b64, a64 := pop(), pop()
			push(a64 >> (b64 & 63))
		case OpI64Popcnt:
			push(uint64(bits.OnesCount64(pop())))

		// --- f64 ---
		case OpF64Add:
			b, a := popF(), popF()
			pushF(a + b)
		case OpF64Mul:
			b, a := popF(), popF()
			pushF(a * b)
		case OpF64Div:
			b, a := popF(), popF()
			pushF(a / b)
		case OpF64Abs:
			pushF(math.Abs(popF()))
		case OpF64Min:
			b, a := popF(), popF()
			pushF(math.Min(a, b))

		// --- conversions ---
		case OpI32WrapI64:
			push(uint64(uint32(pop())))
		case OpI64ExtendI32U:
			push(uint64(uint32(pop())))
		case OpF64ConvertI32S:
			pushF(float64(int32(pop())))
		case OpI64ReinterpretF64:
			// Raw bits already; no-op on our representation.

		default:
			return nil, fmt.Errorf("ir: interpreter: unimplemented opcode %v", in.Op)
		}
		pc++
	}

	n := len(f.Type.Results)
	res := make([]uint64, n)
	copy(res, stack[len(stack)-n:])
	return res, nil
}

func (ip *Interp) doCall(idx uint32, stack *[]uint64) error {
	sig, err := ip.m.TypeOf(idx)
	if err != nil {
		return err
	}
	n := len(sig.Params)
	s := *stack
	args := make([]uint64, n)
	copy(args, s[len(s)-n:])
	s = s[:len(s)-n]
	res, err := ip.call(idx, args)
	if err != nil {
		return err
	}
	s = append(s, res...)
	*stack = s
	return nil
}

func (ip *Interp) load(op Op, addr uint32, offset uint32) (uint64, error) {
	ea := uint64(addr) + uint64(offset)
	sz := uint64(op.AccessSize())
	if ea+sz > uint64(len(ip.Mem)) {
		return 0, &Trap{Kind: TrapOOB, Addr: ea}
	}
	switch op {
	case OpI32Load8U:
		return uint64(ip.Mem[ea]), nil
	case OpI32Load16U:
		return uint64(binary.LittleEndian.Uint16(ip.Mem[ea:])), nil
	case OpI32Load:
		return uint64(binary.LittleEndian.Uint32(ip.Mem[ea:])), nil
	case OpI64Load, OpF64Load:
		return binary.LittleEndian.Uint64(ip.Mem[ea:]), nil
	default:
		return 0, fmt.Errorf("ir: bad load op %v", op)
	}
}

func (ip *Interp) store(op Op, addr uint32, offset uint32, val uint64) error {
	ea := uint64(addr) + uint64(offset)
	sz := uint64(op.AccessSize())
	if ea+sz > uint64(len(ip.Mem)) {
		return &Trap{Kind: TrapOOB, Addr: ea}
	}
	switch op {
	case OpI32Store8:
		ip.Mem[ea] = byte(val)
	case OpI32Store:
		binary.LittleEndian.PutUint32(ip.Mem[ea:], uint32(val))
	case OpI64Store, OpF64Store:
		binary.LittleEndian.PutUint64(ip.Mem[ea:], val)
	default:
		return fmt.Errorf("ir: bad store op %v", op)
	}
	return nil
}

func cmp32(op Op, a, b uint32) bool {
	switch op {
	case OpI32Eq:
		return a == b
	case OpI32Ne:
		return a != b
	case OpI32LtS:
		return int32(a) < int32(b)
	case OpI32LtU:
		return a < b
	case OpI32GtS:
		return int32(a) > int32(b)
	case OpI32LeS:
		return int32(a) <= int32(b)
	case OpI32GeS:
		return int32(a) >= int32(b)
	default:
		return a >= b
	}
}

package ir

import "fmt"

// Import declares a host function the module calls. Imported functions
// occupy the front of the function index space, as in Wasm.
type Import struct {
	Name string
	Type FuncType
}

// DataSeg initializes a region of linear memory at instantiation.
type DataSeg struct {
	Offset uint32
	Bytes  []byte
}

// Func is a defined function.
type Func struct {
	Name   string
	Type   FuncType
	Locals []ValType // additional locals beyond the parameters
	Body   []Inst

	// ctrl caches control-structure resolution computed by Validate:
	// for each Block/Loop/If instruction index, the matching End (and
	// Else) indices.
	ctrl map[int]ctrlInfo
}

type ctrlInfo struct {
	end int // index of matching OpEnd
	els int // index of OpElse, or -1
}

// NumLocals returns the total local count (params + extra locals).
func (f *Func) NumLocals() int { return len(f.Type.Params) + len(f.Locals) }

// LocalType returns the type of local index i.
func (f *Func) LocalType(i int) ValType {
	if i < len(f.Type.Params) {
		return f.Type.Params[i]
	}
	return f.Locals[i-len(f.Type.Params)]
}

// Module is a compilation unit: imports, functions, one linear memory,
// a function table for call_indirect, and data segments.
type Module struct {
	Name    string
	Imports []Import
	Funcs   []*Func

	// MemMin and MemMax are the linear memory limits in 64 KiB pages.
	MemMin, MemMax uint32

	// Table holds function indices for call_indirect. The sentinel
	// NullFunc marks an uninitialized element.
	Table []uint32

	// Data segments copied into memory at instantiation.
	Data []DataSeg

	// Exports maps export names to function indices.
	Exports map[string]uint32

	// sigTable interns signatures referenced by call_indirect.
	sigTable []FuncType

	validated bool
}

// NullFunc is the uninitialized table element sentinel.
const NullFunc = ^uint32(0)

// NewModule returns an empty module with the given name and memory
// limits in pages.
func NewModule(name string, memMin, memMax uint32) *Module {
	return &Module{
		Name:    name,
		MemMin:  memMin,
		MemMax:  memMax,
		Exports: map[string]uint32{},
	}
}

// NumFuncs returns the size of the function index space.
func (m *Module) NumFuncs() int { return len(m.Imports) + len(m.Funcs) }

// FuncIndex returns the function index of the defined function with the
// given name, or false.
func (m *Module) FuncIndex(name string) (uint32, bool) {
	for i, f := range m.Funcs {
		if f.Name == name {
			return uint32(len(m.Imports) + i), true
		}
	}
	return 0, false
}

// TypeOf returns the signature of the function at index idx in the
// combined index space.
func (m *Module) TypeOf(idx uint32) (FuncType, error) {
	if int(idx) < len(m.Imports) {
		return m.Imports[idx].Type, nil
	}
	d := int(idx) - len(m.Imports)
	if d < len(m.Funcs) {
		return m.Funcs[d].Type, nil
	}
	return FuncType{}, fmt.Errorf("ir: function index %d out of range", idx)
}

// AddImport appends a host-function import and returns its function
// index. Imports must be added before any defined function is referenced
// by index, since imports occupy the front of the index space.
func (m *Module) AddImport(name string, t FuncType) uint32 {
	m.Imports = append(m.Imports, Import{Name: name, Type: t})
	return uint32(len(m.Imports) - 1)
}

// AddData appends a data segment.
func (m *Module) AddData(offset uint32, bytes []byte) {
	m.Data = append(m.Data, DataSeg{Offset: offset, Bytes: bytes})
}

// Export marks the named defined function as exported.
func (m *Module) Export(name string) error {
	idx, ok := m.FuncIndex(name)
	if !ok {
		return fmt.Errorf("ir: export of unknown function %q", name)
	}
	m.Exports[name] = idx
	return nil
}

// MustExport is Export that panics on error, for use in kernel builders.
func (m *Module) MustExport(name string) {
	if err := m.Export(name); err != nil {
		panic(err)
	}
}

package cpu

import (
	"reflect"
	"testing"

	"repro/internal/mem"
	"repro/internal/x86"
)

// scrubKeeps are the Machine fields scrub carries over: storage, and
// tables keyed by what they were computed from.
var scrubKeeps = map[string]bool{
	"Hier": true, "bpred": true, "frames": true,
	"costTab": true, "costTabFor": true, "costTabOK": true,
	"dcost": true, "dcostFor": true, "dcostProg": true,
}

// TestScrubLeavesBlankMachine dirties every field of a machine, scrubs
// it, and requires every field scrub does not deliberately keep to be
// zero, the predictor table and frame stack to be empty, and the
// hierarchy to be reset. The differential in recycle_test.go shows a
// recycled machine behaves like a new one on the kernels it runs; this
// shows there is no state left for some other program to trip over
// (leftover predictor counters, for one, happen to cost those kernels
// the same mispredicts as a clean table). A field added to Machine
// fails the first loop until the test dirties it too.
func TestScrubLeavesBlankMachine(t *testing.T) {
	loop := &Func{Name: "loop", Insts: []x86.Inst{
		{Op: x86.MOV, W: x86.W64, Dst: x86.M(x86.Mem{Base: x86.RDX}), Src: x86.R(x86.RDI)},
		{Op: x86.SUB, W: x86.W64, Dst: x86.R(x86.RDI), Src: x86.Imm(1)},
		{Op: x86.JCC, Cond: x86.CondNE, Dst: x86.Operand{Kind: x86.KindLabel, Label: 0}},
		{Op: x86.RET},
	}}
	m, heap := testEnv(t, loop)
	m.Tier = TierFused // profile warmup: per-pc counts on the machine
	m.Regs[x86.RDX] = heap
	if err := m.Call(0, 9); err != nil {
		t.Fatal(err)
	}
	// What a run of this program does not touch.
	m.XmmLo[1], m.XmmHi[2], m.FSBase, m.GSBase, m.PKRU = 1, 2, 3, 4, 5
	m.zf, m.sf, m.cf, m.of = true, true, true, true
	m.EpochEnabled, m.EpochDeadline = true, 1e9
	m.Hosts = []HostFunc{func(*Machine) error { return nil }}
	m.frames = append(m.frames, frame{fn: 1, pc: 2})
	m.profLeft = 7

	v := reflect.ValueOf(m).Elem()
	for i := 0; i < v.NumField(); i++ {
		if v.Field(i).IsZero() {
			t.Fatalf("field %s is still zero: dirty it above so the scrub check means something", v.Type().Field(i).Name)
		}
	}
	as, hier := m.AS, m.Hier
	m.scrub()
	for i := 0; i < v.NumField(); i++ {
		if name := v.Type().Field(i).Name; !scrubKeeps[name] && !v.Field(i).IsZero() {
			t.Errorf("field %s survives scrub", name)
		}
	}
	if m.Hier != hier || len(m.frames) != 0 || len(m.bpred) != 1<<14 {
		t.Fatalf("scrub dropped storage it should keep: frames %d, bpred %d", len(m.frames), len(m.bpred))
	}
	for i, c := range m.bpred {
		if c != 0 {
			t.Fatalf("predictor counter %d = %d after scrub", i, c)
		}
	}
	if h := m.Hier; h.DTLB.Hits()+h.DTLB.Misses()+h.L1D.Hits()+h.L1D.Misses() != 0 {
		t.Fatal("hierarchy counters survive scrub")
	}
	// The machine the free list would hand out next.
	b := m.bind(mem.NewAS(47), &Program{Funcs: []*Func{loop}})
	if b.AS == as || b.Cost != DefaultCostModel() || b.MaxCallDepth != 10000 || b.Tier != DefaultTier() {
		t.Fatalf("bind: %+v", b.Cost)
	}
}

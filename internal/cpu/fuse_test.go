package cpu

import (
	"errors"
	"fmt"
	"testing"

	"repro/internal/telemetry"
	"repro/internal/x86"
)

// fuseLoop is the sum-0..n-1 loop from TestLoop: a two-instruction
// prologue, a compare+branch pair at the loop head (a branch target),
// and a three-instruction body ending in the back-edge jump.
func fuseLoop() *Func {
	return &Func{Name: "sum", Insts: []x86.Inst{
		{Op: x86.XOR, W: x86.W64, Dst: x86.R(x86.RAX), Src: x86.R(x86.RAX)}, // 0
		{Op: x86.XOR, W: x86.W64, Dst: x86.R(x86.RCX), Src: x86.R(x86.RCX)}, // 1
		{Op: x86.CMP, W: x86.W64, Dst: x86.R(x86.RCX), Src: x86.R(x86.RDI)}, // 2
		{Op: x86.JCC, Cond: x86.CondGE, Dst: x86.Label(7)},                  // 3
		{Op: x86.ADD, W: x86.W64, Dst: x86.R(x86.RAX), Src: x86.R(x86.RCX)}, // 4
		{Op: x86.ADD, W: x86.W64, Dst: x86.R(x86.RCX), Src: x86.Imm(1)},     // 5
		{Op: x86.JMP, Dst: x86.Label(2)},                                    // 6
		{Op: x86.RET},                                                       // 7
	}}
}

// fuseWalk sums 8-byte words from rdi+8 upward until it traps: on the
// bounds check once the pointer passes rsi, or on the load once it
// leaves mapped memory. Both trapping instructions sit in the middle of
// the loop body's one group (pcs 2-7).
func fuseWalk() *Func {
	return &Func{Name: "walk", Insts: []x86.Inst{
		{Op: x86.XOR, W: x86.W64, Dst: x86.R(x86.RAX), Src: x86.R(x86.RAX)},                // 0
		{Op: x86.MOV, W: x86.W64, Dst: x86.R(x86.RCX), Src: x86.R(x86.RDI)},                // 1
		{Op: x86.ADD, W: x86.W64, Dst: x86.R(x86.RCX), Src: x86.Imm(8)},                    // 2
		{Op: x86.CMP, W: x86.W64, Dst: x86.R(x86.RCX), Src: x86.R(x86.RSI)},                // 3
		{Op: x86.TRAPIF, Cond: x86.CondA},                                                  // 4
		{Op: x86.MOV, W: x86.W64, Dst: x86.R(x86.RDX), Src: x86.M(x86.Mem{Base: x86.RCX})}, // 5
		{Op: x86.ADD, W: x86.W64, Dst: x86.R(x86.RAX), Src: x86.R(x86.RDX)},                // 6
		{Op: x86.JMP, Dst: x86.Label(2)},                                                   // 7
	}}
}

// TestFuseFormerShapes pins the former's group layout on the loop:
// greedy non-overlapping groups that never span a leader, keep a
// branch only in final position, and leave interior entries as intact
// singletons.
func TestFuseFormerShapes(t *testing.T) {
	f := fuseLoop()
	f.Encode()
	p := &Program{Funcs: []*Func{f}}
	fp := fuseProgram(p.decoded())

	insts := fp.funcs[0].insts
	type g struct{ pc, n int }
	var got []g
	for pc := range insts {
		if insts[pc].op == opGroup {
			got = append(got, g{pc, len(insts[pc].steps)})
		}
	}
	// {0,1} stops at the loop head (pc 2 is a branch target); {2,3}
	// ends with the conditional branch; {4,5,6} ends with the jump;
	// RET at 7 is not fusable.
	want := []g{{0, 2}, {2, 2}, {4, 3}}
	if len(got) != len(want) {
		t.Fatalf("groups = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("group %d = %v, want %v", i, got[i], want[i])
		}
	}
	if fp.blocks != len(want) {
		t.Fatalf("blocks = %d, want %d", fp.blocks, len(want))
	}

	// Branches are final constituents only.
	steps := insts[2].steps
	if steps[len(steps)-1].kind != fsJcc {
		t.Fatalf("group at 2 does not end in fsJcc: %v", steps)
	}
	steps = insts[4].steps
	if steps[len(steps)-1].kind != fsJmp {
		t.Fatalf("group at 4 does not end in fsJmp: %v", steps)
	}

	// Interior entries stay valid singletons: branching into the middle
	// of a group must execute the original instruction.
	dec := p.decoded()[0].insts
	for _, pc := range []int{1, 3, 5, 6} {
		if insts[pc].op != dec[pc].op {
			t.Fatalf("interior pc %d op rewritten: %v != %v", pc, insts[pc].op, dec[pc].op)
		}
		if insts[pc].steps != nil {
			t.Fatalf("interior pc %d carries steps", pc)
		}
	}

	// gxBytes counts the constituents' encoded bytes beyond the head.
	wantX := uint32(dec[5].ilen) + uint32(dec[6].ilen)
	if insts[4].gxBytes != wantX {
		t.Fatalf("gxBytes = %d, want %d", insts[4].gxBytes, wantX)
	}
}

// TestFuseTelemetry checks the tier-2 counters: cpu.fuse.blocks records
// the one build of the overlay, on the Program's first fused-tier run,
// and cpu.dispatch.{slow,fast,fused} say which engine and stream each
// Run used — fast a run of the decoded stream, fused a run of the
// overlay.
func TestFuseTelemetry(t *testing.T) {
	telemetry.SetEnabled(true)
	defer telemetry.SetEnabled(false)

	names := [...]string{"cpu.dispatch.slow", "cpu.dispatch.fast", "cpu.dispatch.fused", "cpu.fuse.blocks"}
	load := func() (v [len(names)]uint64) {
		for i, n := range names {
			v[i] = telemetry.Default.Counter(n).Load()
		}
		return v
	}
	f := fuseLoop()
	f.Encode()
	prog := &Program{Funcs: []*Func{f}}
	for _, step := range []struct {
		what string
		tier Tier
		n    uint64
		want [len(names)]uint64 // deltas
	}{
		{"first fused-tier run: build, then run the overlay", TierFused, 10, [...]uint64{0, 0, 1, 3}},
		{"next fused-tier run: the same overlay", TierFused, 10, [...]uint64{0, 0, 1, 0}},
		{"fast tier on the fused Program", TierFast, 10, [...]uint64{0, 1, 0, 0}},
		{"slow tier", TierSlow, 10, [...]uint64{1, 0, 0, 0}},
	} {
		before := load()
		m, _ := testEnvProg(t, prog)
		m.Tier = step.tier
		if err := m.Call(0, step.n); err != nil {
			t.Fatal(err)
		}
		after := load()
		for i := range names {
			if got := after[i] - before[i]; got != step.want[i] {
				t.Errorf("%s: %s advanced by %d, want %d", step.what, names[i], got, step.want[i])
			}
		}
	}
}

// TestDecodedStreamStaysUnfused guards the one hazard of the decoded
// stream and its overlay sharing a type: fuseProgram must rewrite a
// clone. After fused-tier runs have built the overlay, the Program's
// decoded stream still holds no group, and a fast-tier machine on that
// Program still retires exactly what the oracle does.
func TestDecodedStreamStaysUnfused(t *testing.T) {
	// The overlay is built on a Program's first fused-tier run, which
	// is the eager case; there is no other way to build it.
	t.Run("eager=true", func(t *testing.T) {
		loop, walk := fuseLoop(), fuseWalk()
		loop.Encode()
		walk.Encode()
		prog := &Program{Funcs: []*Func{loop, walk}}
		run := func(tier Tier, fn int) (*Machine, error) {
			m, heap := testEnvProg(t, prog)
			m.Tier = tier
			args := []uint64{100} // fuseLoop's n
			if fn == 1 {
				args = []uint64{heap + 1<<20 - 64, ^uint64(0)} // fuseWalk, into the guard page
			}
			err := m.Call(fn, args...)
			return m, err
		}
		for fn := range prog.Funcs {
			run(TierFused, fn)
		}
		if prog.fused == nil || prog.fused.blocks == 0 {
			t.Fatal("no fused overlay after fused-tier runs")
		}
		for fn, df := range prog.decoded() {
			for pc := range df.insts {
				if in := &df.insts[pc]; in.op == opGroup || in.steps != nil || in.gxBytes != 0 {
					t.Fatalf("decoded stream fn %d pc %d was fused in place: %+v", fn, pc, in)
				}
			}
		}
		for fn := range prog.Funcs {
			slow, errS := run(TierSlow, fn)
			fast, errF := run(TierFast, fn)
			sameRun(t, fmt.Sprintf("fn=%d fast", fn), fast, errF, slow, errS)
		}
	})
}

// TestFusedTrapAttribution traps inside fused groups and checks the
// fused run equals the slow-path oracle's field for field: the trap
// carries the constituent's original function and instruction indices,
// and Insts/BytesFetched, which a group charges for all its
// constituents up front, are taken back for the ones after the trap.
// The trapping pc is asserted to be an interior constituent of an
// overlay group, so the cases really trap mid-group; the non-final
// ones are what exercise the take-back.
func TestFusedTrapAttribution(t *testing.T) {
	store := func() *Func {
		return &Func{Name: "fault", Insts: []x86.Inst{
			{Op: x86.MOV, W: x86.W64, Dst: x86.R(x86.RCX), Src: x86.R(x86.RDI)},                // 0
			{Op: x86.ADD, W: x86.W64, Dst: x86.R(x86.RCX), Src: x86.Imm(8)},                    // 1
			{Op: x86.MOV, W: x86.W64, Dst: x86.M(x86.Mem{Base: x86.RCX}), Src: x86.R(x86.RSI)}, // 2
			{Op: x86.RET}, // 3
		}}
	}
	for _, c := range []struct {
		name  string
		fn    func() *Func
		args  func(heap uint64) []uint64
		pc    int  // the trapping instruction
		final bool // whether it is its group's last constituent
		kind  TrapKind
	}{
		// heap+1MiB+8 lands in the guard page.
		{"store-final", store, func(h uint64) []uint64 { return []uint64{h + 1<<20, 7} }, 2, true, TrapPageFault},
		// Seven words below the end of the 1 MiB heap: the bounds check
		// fires at the fourth, or the guard page at the eighth.
		{"trapif", fuseWalk, func(h uint64) []uint64 { return []uint64{h + 1<<20 - 64, h + 1<<20 - 40} }, 4, false, TrapBounds},
		{"fault", fuseWalk, func(h uint64) []uint64 { return []uint64{h + 1<<20 - 64, ^uint64(0)} }, 5, false, TrapPageFault},
	} {
		t.Run(c.name, func(t *testing.T) {
			run := func(tier Tier) (*Machine, error) {
				m, heap := testEnv(t, c.fn())
				m.Tier = tier
				for i := uint64(0); i < 64; i += 8 {
					m.AS.Store(heap+1<<20-64+i, 8, i+1)
				}
				return m, m.Call(0, c.args(heap)...)
			}
			fused, errF := run(TierFused)
			var trap *Trap
			if !errors.As(errF, &trap) {
				t.Fatalf("fused run returned %v, want a trap", errF)
			}
			if trap.Kind != c.kind || trap.Fn != 0 || trap.PC != c.pc {
				t.Fatalf("%v at fn %d pc %d, want %v at fn 0 pc %d", trap.Kind, trap.Fn, trap.PC, c.kind, c.pc)
			}
			interior := false
			insts := fused.Prog.fused.funcs[0].insts
			for h := range insts {
				if n := len(insts[h].steps); insts[h].op == opGroup && h < c.pc && c.pc < h+n {
					interior = true
					if final := c.pc == h+n-1; final != c.final {
						t.Fatalf("pc %d final in group %d+%d is %v, want %v", c.pc, h, n, final, c.final)
					}
				}
			}
			if !interior {
				t.Fatalf("pc %d is not an interior constituent of any group", c.pc)
			}
			slow, errS := run(TierSlow)
			sameRun(t, "fused", fused, errF, slow, errS)
		})
	}
}

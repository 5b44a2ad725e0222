// Quickstart: build a module with the IR builder, compile it with and
// without Segue, run it in a sandbox, and see what the optimization
// buys — the five-minute tour of the library.
package main

import (
	"fmt"

	"repro/internal/ir"
	"repro/internal/rt"
	"repro/internal/sfi"
)

// buildChecksum returns a module computing a rolling checksum over a
// buffer in linear memory — a typical memory-bound library function.
func buildChecksum() *ir.Module {
	m := ir.NewModule("quickstart", 2, 2)

	// checksum(len): h = fnv(buf[0:len]) with a struct-array access
	// pattern thrown in.
	const (
		length = 0
		i      = 1
		h      = 2
		bp     = 3 // buffer pointer (a runtime value, like a C argument)
	)
	fb := m.NewFunc("checksum", ir.Sig([]ir.ValType{ir.I32}, []ir.ValType{ir.I32}), ir.I32, ir.I32, ir.I32)
	fb.I32(-2128831035).Set(h) // FNV offset basis
	fb.I32(0).Set(bp)
	fb.LoopNDyn(i, length, 0, 1, func() {
		// h ^= bp[i]; h *= prime — the struct/array access pattern of
		// Figure 1: base + index*4 + displacement.
		fb.Get(i).I32(2).I32Shl().Get(bp).I32Add().I32Load(0)
		fb.Get(h).I32Xor().I32(16777619).I32Mul().Set(h)
	})
	fb.Get(h)
	fb.MustBuild()
	m.MustExport("checksum")
	return m
}

func main() {
	module := buildChecksum()

	fmt.Println("quickstart: one module, three compilations")
	fmt.Println()

	variants := []struct {
		name string
		mode sfi.Mode
	}{
		{"classic SFI (guard pages)", sfi.ModeGuard},
		{"Segue", sfi.ModeSegue},
		{"explicit bounds checks", sfi.ModeBoundsCheck},
	}

	var first uint64
	var firstNs float64
	for vi, v := range variants {
		mod, err := rt.CompileModule(module, sfi.DefaultConfig(v.mode))
		if err != nil {
			panic(err)
		}
		inst, err := rt.NewInstance(mod, rt.InstanceOptions{FSGSBASE: true})
		if err != nil {
			panic(err)
		}
		// Stage input through the host-side memory accessor.
		buf := make([]byte, 64*1024)
		for i := range buf {
			buf[i] = byte(i * 31)
		}
		if err := (&rt.HostCall{Inst: inst}).MemWrite(0, buf); err != nil {
			panic(err)
		}

		res, err := inst.Invoke("checksum", 8000)
		if err != nil {
			panic(err)
		}
		ns := inst.Mach.Stats.Nanos(&inst.Mach.Cost)
		if vi == 0 {
			first, firstNs = res[0], ns
		} else if res[0] != first {
			panic("variants disagree on the checksum")
		}
		fmt.Printf("  %-28s checksum=%#x  code=%5d B  simulated=%8.1f µs  (%.2fx)\n",
			v.name, res[0], mod.Prog.CodeBytes(), ns/1e3, ns/firstNs)
	}

	fmt.Println()
	fmt.Println("Out-of-bounds accesses trap deterministically:")
	mod, _ := rt.CompileModule(buildChecksum(), sfi.DefaultConfig(sfi.ModeSegue))
	inst, _ := rt.NewInstance(mod, rt.InstanceOptions{FSGSBASE: true})
	_, err := inst.Invoke("checksum", 1<<29) // reads far past the 128 KiB memory
	fmt.Printf("  checksum(2^29) -> %v\n", err)
}

// faas-scaling demonstrates ColorGuard end to end (§3.2, §6.4): a pool
// packs many small sandboxes into the address space guard-page SFI
// would waste, each striped with an MPK color; cross-sandbox accesses
// trap; recycled slots come back zeroed with their colors intact; and
// the density matches §6.4.2's ≈15x.
package main

import (
	"fmt"

	"repro/internal/ir"
	"repro/internal/isolation"
	"repro/internal/mem"
	"repro/internal/pool"
	"repro/internal/rt"
	"repro/internal/sfi"
	"repro/internal/workloads"
)

func main() {
	// A ColorGuard slab of 64 MiB-max sandboxes with a 512 MiB guard
	// requirement, striped over the 15 usable MPK keys.
	b, err := isolation.NewReserved(isolation.ColorGuard, mem.NewAS(47), isolation.Config{
		MaxMemoryBytes: 64 << 20,
		GuardBytes:     512 << 20,
		Slots:          256,
		Keys:           15,
	})
	if err != nil {
		panic(err)
	}
	if err := b.CheckIsolation(); err != nil {
		panic(err)
	}
	fmt.Printf("pool: %d slots, %d MPK stripes, %d free\n", b.Capacity(), b.Layout().NumStripes, b.Available())

	// Serve "requests" with the paper's regex-filtering handler, each on
	// a fresh instance placed in its own colored slot.
	k, err := workloads.FaaS().Find("regex-filtering")
	if err != nil {
		panic(err)
	}
	mod, err := rt.CompileModule(k.Build(false), sfi.DefaultConfig(sfi.ModeSegue))
	if err != nil {
		panic(err)
	}

	var insts []*rt.Instance
	for i := 0; i < 10; i++ {
		slot, err := b.Allocate(uint64(mod.IR.MemMin) * ir.PageSize)
		if err != nil {
			panic(err)
		}
		inst, err := rt.NewInstance(mod, rt.InstanceOptions{FSGSBASE: true, Place: isolation.Place(b, slot)})
		if err != nil {
			panic(err)
		}
		res, err := inst.Invoke("run", 64)
		if err != nil {
			panic(err)
		}
		fmt.Printf("  request %2d: matched %d of 64 URLs (%.1f µs simulated)\n",
			i, res[0], inst.Mach.Stats.Nanos(&inst.Mach.Cost)/1e3)
		insts = append(insts, inst)
	}
	fmt.Printf("after 10 requests: %d slots free\n", b.Available())
	for _, inst := range insts {
		inst.Close() // recycles the slot: zeroed, color intact
	}
	fmt.Printf("after recycling:   %d slots free\n\n", b.Available())

	// The §6.4.2 density computation: 408 MB memories in an 85 TiB
	// budget, with and without striping.
	noCG, err := pool.ComputeLayout(pool.Config{
		MaxMemoryBytes: 408 << 20,
		GuardBytes:     6<<30 - 408<<20,
		TotalBytes:     85 << 40,
	})
	if err != nil {
		panic(err)
	}
	withCG, err := pool.ComputeLayout(pool.Config{
		MaxMemoryBytes: 408 << 20,
		GuardBytes:     6<<30 - 408<<20,
		TotalBytes:     85 << 40,
		Keys:           15,
	})
	if err != nil {
		panic(err)
	}
	fmt.Println("address-space density (408 MB linear memories, 85 TiB budget):")
	fmt.Printf("  guard regions only: %6d instances\n", noCG.NumSlots)
	fmt.Printf("  with ColorGuard:    %6d instances (%.1fx; paper: 14,582 -> 218,716)\n",
		withCG.NumSlots, float64(withCG.NumSlots)/float64(noCG.NumSlots))
}

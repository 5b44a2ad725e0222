// firefox-sandbox demonstrates the paper's motivating Firefox use case
// (§6.1): sandboxing a font-rendering library where every glyph is a
// separate sandbox invocation, so both per-access instrumentation and
// transition costs matter. It renders a page's worth of glyphs under
// native, classic SFI, and Segue, and reports the reflow-time style
// comparison — including the pre-IvyBridge syscall fallback Firefox
// has to support.
package main

import (
	"fmt"

	"repro/internal/rt"
	"repro/internal/sfi"
	"repro/internal/workloads"
)

func main() {
	k, err := workloads.Firefox().Find("font")
	if err != nil {
		panic(err)
	}
	const glyphs = 1200 // a text-heavy page reflow

	// render compiles the library under mode and returns the simulated
	// milliseconds one instance spends rendering the page. The
	// unsandboxed baseline still runs on the simulated machine: it is
	// the same library compiled without instrumentation (ModeNative).
	render := func(mode sfi.Mode, fsgsbase bool) float64 {
		mod, err := rt.CompileModule(k.Build(false), sfi.DefaultConfig(mode))
		if err != nil {
			panic(err)
		}
		inst, err := rt.NewInstance(mod, rt.InstanceOptions{FSGSBASE: fsgsbase})
		if err != nil {
			panic(err)
		}
		for g := 0; g < glyphs; g++ {
			if _, err := inst.Invoke("glyph", uint64(g)); err != nil {
				panic(err)
			}
		}
		return inst.Mach.Stats.Nanos(&inst.Mach.Cost) / 1e6
	}

	native := render(sfi.ModeNative, true)
	classic := render(sfi.ModeGuard, true)
	segue := render(sfi.ModeSegue, true)
	segueOld := render(sfi.ModeSegue, false)

	fmt.Printf("Rendering %d glyphs through the sandboxed font library:\n\n", glyphs)
	fmt.Printf("  %-36s %8.2f ms\n", "unsandboxed", native)
	fmt.Printf("  %-36s %8.2f ms  (+%.1f%%)\n", "Wasm sandbox (classic SFI)", classic, (classic/native-1)*100)
	fmt.Printf("  %-36s %8.2f ms  (+%.1f%%)\n", "Wasm sandbox + Segue", segue, (segue/native-1)*100)
	fmt.Printf("  %-36s %8.2f ms  (+%.1f%%)\n", "Segue, arch_prctl fallback (old CPU)", segueOld, (segueOld/native-1)*100)
	if classic > native {
		fmt.Printf("\nSegue eliminates %.0f%% of the sandboxing overhead on this page.\n",
			(classic-segue)/(classic-native)*100)
	}
	fmt.Println("(paper §6.1: 264 ms -> 356 ms sandboxed -> 287 ms with Segue, 75% eliminated)")
}

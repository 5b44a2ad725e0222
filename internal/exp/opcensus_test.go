package exp

import (
	"sort"
	"strings"
	"testing"

	"repro/internal/ir"
	"repro/internal/sfi"
	"repro/internal/workloads"
	"repro/internal/x86"
)

// irKeep lists the IR ops that stay although no producer below emits
// them, each with its reason.
var irKeep = map[string]string{
	"memory.grow": "the only path to rt's builtinGrow -> Backend.Grow -> slab.Grow: the ColorGuard slot growing inside its stripe (§5.1 invariant 2)",
	"memory.size": "reads back what memory.grow changed; rt's grow tests check both",
}

// x86Keep lists the x86 ops that stay although no compilation below
// emits them, each with its reason. It is empty: MOVSX, which only the
// SignedOffset lowering emits, is reached by fig1's pattern 1 (a dirty
// i64-derived index) under SignedOffset.
var x86Keep = map[string]string{}

// censusModules builds every IR module a non-test producer makes:
// every workloads suite, native variant and not, and this package's own
// modules. The examples and cmd/sfic call the builder directly, so a
// deleted op stops them compiling instead.
func censusModules() []*ir.Module {
	var mods []*ir.Module
	for _, s := range []workloads.Suite{
		workloads.Sightglass(), workloads.Spec2006(), workloads.Spec2017(),
		workloads.Polybench(), workloads.Firefox(), workloads.FaaS(),
	} {
		for _, k := range s.Kernels {
			mods = append(mods, k.Build(false), k.Build(true))
		}
	}
	return append(mods, fig1Module(), nopModule(), indirectDispatchKernel().Build(false))
}

// censusConfigs returns every sfi.Mode under every Harden, plus the
// configurations the experiments and examples add under each Harden.
func censusConfigs() []sfi.Config {
	var cfgs []sfi.Config
	for h := sfi.HardenNone; !strings.HasPrefix(h.String(), "harden("); h++ {
		o := Options{Harden: h}
		for m := sfi.ModeNative; !strings.HasPrefix(m.String(), "mode("); m++ {
			cfgs = append(cfgs, o.config(m))
		}
		cfgs = append(cfgs, o.wamrBase(), o.wamrNative(), o.wamrSegue(), o.wamrSegueLoads())
		signed := o.config(sfi.ModeGuard)
		signed.SignedOffset = true
		loadsOnly := o.config(sfi.ModeSegue)
		loadsOnly.SegueLoadsOnly = true
		hybrid := o.config(sfi.ModeSegue)
		hybrid.Hybrid = true
		epoch := o.config(sfi.ModeSegue)
		epoch.EpochChecks = true
		cfgs = append(cfgs, signed, loadsOnly, hybrid, epoch)
	}
	return cfgs
}

// TestOpCensus measures the instruction surface: the IR ops every
// producer emits and the x86 ops sfi emits for them under every
// configuration. Each op list must equal what is measured plus its
// keep-list, so an op defined but never emitted fails the test, and so
// does a kept op that is emitted.
func TestOpCensus(t *testing.T) {
	irUsed := map[string]bool{}
	x86Used := map[string]bool{}
	cfgs := censusConfigs()
	for _, m := range censusModules() {
		for _, f := range m.Funcs {
			for _, in := range f.Body {
				irUsed[in.Op.String()] = true
			}
		}
		for _, cfg := range cfgs {
			prog, _, err := sfi.Compile(m, cfg)
			if err != nil {
				t.Fatalf("%s: %v", m.Name, err)
			}
			for _, f := range prog.Funcs {
				for _, in := range f.Insts {
					x86Used[in.Op.String()] = true
				}
			}
		}
	}
	var irOps, x86Ops []string
	for o := ir.Op(0); !strings.HasPrefix(o.String(), "op("); o++ {
		irOps = append(irOps, o.String())
	}
	for o := x86.Op(0); int(o) < x86.OpCount; o++ {
		x86Ops = append(x86Ops, o.String())
	}
	checkSurface(t, "ir", irOps, irUsed, irKeep)
	checkSurface(t, "x86", x86Ops, x86Used, x86Keep)
}

// checkSurface reports every difference between the defined ops and
// the used ones plus the keep-list.
func checkSurface(t *testing.T, pkg string, defined []string, used map[string]bool, keep map[string]string) {
	t.Helper()
	isDefined := map[string]bool{}
	for _, op := range defined {
		isDefined[op] = true
		switch {
		case used[op] && keep[op] != "":
			t.Errorf("%s op %s is emitted; delete its keep-list entry", pkg, op)
		case !used[op] && keep[op] == "":
			t.Errorf("%s op %s is defined but never emitted; delete it everywhere it is stated, or keep-list it with its reason", pkg, op)
		}
	}
	var missing []string
	for op := range used {
		if !isDefined[op] {
			missing = append(missing, op)
		}
	}
	for op := range keep {
		if !isDefined[op] {
			missing = append(missing, op)
		}
	}
	sort.Strings(missing)
	for _, op := range missing {
		t.Errorf("%s op %s is emitted or keep-listed but missing from %s's op list", pkg, op, pkg)
	}
}

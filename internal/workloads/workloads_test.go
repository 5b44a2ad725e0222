package workloads

import (
	"testing"

	"repro/internal/ir"
	"repro/internal/rt"
	"repro/internal/sfi"
)

// suites under test; extended as suites are added.
func allSuites() []Suite {
	return []Suite{
		Sightglass(),
		Spec2006(),
		Spec2017(),
		Polybench(),
		Firefox(),
		FaaS(),
	}
}

var testModes = []sfi.Mode{
	sfi.ModeNative, sfi.ModeGuard, sfi.ModeSegue, sfi.ModeBoundsCheck, sfi.ModeLFI,
}

// TestKernelsDifferential runs every kernel with its TestArgs on the
// reference interpreter and under each compilation mode; checksums must
// agree. This is the main correctness gate for the workload corpus.
func TestKernelsDifferential(t *testing.T) {
	for _, suite := range allSuites() {
		suite := suite
		t.Run(suite.Name, func(t *testing.T) {
			for _, k := range suite.Kernels {
				k := k
				t.Run(k.Name, func(t *testing.T) {
					t.Parallel()
					ref := k.Build(false)
					interp, err := ir.NewInterp(ref, nil)
					if err != nil {
						t.Fatalf("interp: %v", err)
					}
					interp.StepLimit = 500_000_000
					want, err := interp.Invoke(k.Entry, k.TestArgs...)
					if err != nil {
						t.Fatalf("interp run: %v", err)
					}
					for _, mode := range testModes {
						native := mode == sfi.ModeNative
						mod, err := rt.CompileModule(k.Build(native), sfi.DefaultConfig(mode))
						if err != nil {
							t.Fatalf("%v compile: %v", mode, err)
						}
						inst, err := rt.NewInstance(mod, rt.InstanceOptions{FSGSBASE: true})
						if err != nil {
							t.Fatalf("%v instantiate: %v", mode, err)
						}
						got, err := inst.Invoke(k.Entry, k.TestArgs...)
						if err != nil {
							t.Fatalf("%v run: %v", mode, err)
						}
						if k.PtrSensitive && native {
							// The native variant is a different program
							// (8-byte pointers); only check it runs.
							continue
						}
						if want[0] != got[0] {
							t.Errorf("%v: checksum %#x, interpreter %#x", mode, got[0], want[0])
						}
					}
				})
			}
		})
	}
}

// TestKernelsVectorized re-runs the memory-movement kernels under the
// WAMR vectorizing configurations; results must not change.
func TestKernelsVectorized(t *testing.T) {
	sg := Sightglass()
	for _, name := range []string{"memmove", "sieve", "matrix", "base64"} {
		k, err := sg.Find(name)
		if err != nil {
			t.Fatal(err)
		}
		ref := k.Build(false)
		interp, _ := ir.NewInterp(ref, nil)
		interp.StepLimit = 500_000_000
		want, err := interp.Invoke(k.Entry, k.TestArgs...)
		if err != nil {
			t.Fatal(err)
		}
		for _, cfg := range []sfi.Config{
			{Mode: sfi.ModeGuard, FoldOperandSlot: true, Vectorize: true, FoldDispLimit: 65536},
			{Mode: sfi.ModeSegue, FoldOperandSlot: true, Vectorize: true, FoldDispLimit: 65536},
			{Mode: sfi.ModeSegue, SegueLoadsOnly: true, FoldOperandSlot: true, Vectorize: true, FoldDispLimit: 65536},
		} {
			mod, err := rt.CompileModule(k.Build(false), cfg)
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			inst, err := rt.NewInstance(mod, rt.InstanceOptions{FSGSBASE: true})
			if err != nil {
				t.Fatal(err)
			}
			got, err := inst.Invoke(k.Entry, k.TestArgs...)
			if err != nil {
				t.Fatalf("%s vectorized: %v", name, err)
			}
			if got[0] != want[0] {
				t.Errorf("%s under %v: %#x vs %#x", name, cfg.Mode, got[0], want[0])
			}
		}
	}
}

// TestVectorizerFires confirms the pass actually fuses the intended
// kernels in guard mode and is defeated by segment-prefixed stores.
func TestVectorizerFires(t *testing.T) {
	sg := Sightglass()
	for _, name := range []string{"memmove", "sieve"} {
		k, _ := sg.Find(name)
		count := func(cfg sfi.Config) int {
			prog, _, err := sfi.Compile(k.Build(false), cfg)
			if err != nil {
				t.Fatal(err)
			}
			n := 0
			for _, f := range prog.Funcs {
				for _, in := range f.Insts {
					if in.Op.String() == "movdqu" {
						n++
					}
				}
			}
			return n
		}
		guard := count(sfi.Config{Mode: sfi.ModeGuard, FoldOperandSlot: true, Vectorize: true, FoldDispLimit: 65536})
		segue := count(sfi.Config{Mode: sfi.ModeSegue, FoldOperandSlot: true, Vectorize: true, FoldDispLimit: 65536})
		if guard == 0 {
			t.Errorf("%s: vectorizer never fired in guard mode", name)
		}
		if segue != 0 {
			t.Errorf("%s: vectorizer fired %d times despite segment-prefixed stores", name, segue)
		}
	}
}

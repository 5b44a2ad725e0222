package exp

import (
	"testing"

	"repro/internal/rt"
	"repro/internal/sfi"
	"repro/internal/workloads"
)

// smallSuite is a fast multi-kernel suite for engine tests: a slice of
// Sightglass with reduced (TestArgs) workloads.
func smallSuite() workloads.Suite {
	s := workloads.Sightglass()
	if len(s.Kernels) > 4 {
		s.Kernels = s.Kernels[:4]
	}
	for i := range s.Kernels {
		if len(s.Kernels[i].TestArgs) > 0 {
			s.Kernels[i].Args = s.Kernels[i].TestArgs
		}
	}
	return s
}

// TestParallelMatchesSerial runs one multi-kernel experiment through
// the engine serially and with 4 workers and asserts the rendered table
// and every per-cell measurement — checksums included — are
// byte-identical. Run under -race this is also the engine's data-race
// gate (shared compile cache, sim-cycle counter, result collection).
func TestParallelMatchesSerial(t *testing.T) {
	suite := smallSuite()
	configs := []sfi.Config{sfi.DefaultConfig(sfi.ModeGuard), sfi.DefaultConfig(sfi.ModeSegue)}
	names := []string{"guard", "segue"}

	var cells []cell
	for _, k := range suite.Kernels {
		cells = append(cells, cell{k, sfi.DefaultConfig(sfi.ModeNative), k.Args})
		for _, cfg := range configs {
			cells = append(cells, cell{k, cfg, k.Args})
		}
	}

	run := func(workers int) ([]Measurement, string) {
		o := Options{Jobs: workers}
		ms, errs := o.measureCells(cells)
		if err := firstErr(errs); err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		tab, _, err := o.normalizedSuiteVs(suite, sfi.DefaultConfig(sfi.ModeNative), configs, names)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		return ms, tab.Text()
	}

	serialMs, serialTab := run(1)
	parMs, parTab := run(4)

	if parTab != serialTab {
		t.Fatalf("table differs between serial and parallel runs:\n--- serial ---\n%s\n--- parallel ---\n%s",
			serialTab, parTab)
	}
	for i := range serialMs {
		if serialMs[i] != parMs[i] {
			t.Fatalf("cell %d (%s/%v) differs:\nserial   %+v\nparallel %+v",
				i, cells[i].Kernel.Name, cells[i].Cfg.Mode, serialMs[i], parMs[i])
		}
	}
}

// TestParallelErrorDeterminism checks that the engine reports the error
// a serial run would hit first, regardless of worker count.
func TestParallelErrorDeterminism(t *testing.T) {
	suite := smallSuite()
	bad := suite.Kernels[1]
	bad.Entry = "no-such-export"
	suite.Kernels[1] = bad

	_, _, errSerial := Options{Jobs: 1}.normalizedSuiteVs(suite, sfi.DefaultConfig(sfi.ModeNative),
		[]sfi.Config{sfi.DefaultConfig(sfi.ModeSegue)}, []string{"segue"})
	_, _, errPar := Options{Jobs: 4}.normalizedSuiteVs(suite, sfi.DefaultConfig(sfi.ModeNative),
		[]sfi.Config{sfi.DefaultConfig(sfi.ModeSegue)}, []string{"segue"})

	if errSerial == nil || errPar == nil {
		t.Fatalf("expected errors, got serial=%v parallel=%v", errSerial, errPar)
	}
	if errSerial.Error() != errPar.Error() {
		t.Fatalf("error differs:\nserial   %v\nparallel %v", errSerial, errPar)
	}
}

// TestEngineUsesCompileCache asserts repeated measurements of one cell
// hit the compile cache instead of recompiling.
func TestEngineUsesCompileCache(t *testing.T) {
	rt.ResetModuleCache()
	defer rt.ResetModuleCache()
	suite := smallSuite()
	k := suite.Kernels[0]
	for i := 0; i < 3; i++ {
		if _, err := (Options{}).MeasureKernel(k, sfi.DefaultConfig(sfi.ModeSegue), k.Args); err != nil {
			t.Fatal(err)
		}
	}
	hits, misses := rt.ModuleCacheStats()
	if misses != 1 || hits != 2 {
		t.Fatalf("cache stats = %d hits / %d misses, want 2/1", hits, misses)
	}
}

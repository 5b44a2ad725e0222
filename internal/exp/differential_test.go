package exp

import (
	"os"
	"path/filepath"
	"testing"

	"repro/internal/cpu"
	"repro/internal/rt"
)

// The golden files under testdata/golden/ were captured from cmd/benchtab
// before the isolation-backend refactor (`benchtab -o <file> <id>`). The
// differential tests assert the refactored stack reproduces every table
// byte-for-byte: same layout math, same cost arithmetic, same float
// accumulation order — the acceptance bar for routing rt, faas, and exp
// through internal/isolation.

// checkGolden runs one experiment under o the way benchtab does (cold
// module cache) and compares its rendered table against the golden
// bytes.
func checkGolden(t *testing.T, id string, o Options) {
	t.Helper()
	golden, err := os.ReadFile(filepath.Join("testdata", "golden", id+".txt"))
	if err != nil {
		t.Fatalf("missing golden file: %v", err)
	}
	e, ok := ByID(id)
	if !ok {
		t.Fatalf("unknown experiment %q", id)
	}
	rt.ResetModuleCache()
	tab, err := e.Run(o)
	if err != nil {
		t.Fatalf("%s: %v", id, err)
	}
	got := tab.Text() + "\n" // benchtab prints the table plus one newline
	if got != string(golden) {
		t.Fatalf("%s: table differs from pre-refactor golden\n--- golden ---\n%s--- got ---\n%s", id, golden, got)
	}
}

// TestGoldenTables covers the §6.4/§7 tables the isolation layer feeds
// directly: transition and lifecycle costs, slot-density math, and the
// FaaS scaling figures. The five slowest tables (each 25 s to 2 min
// under the race detector) are skipped under -race: they run on the
// same parallelMap engine that transitions, attribution and faultsweep
// still exercise there, and the plain run checks them.
func TestGoldenTables(t *testing.T) {
	heavyUnderRace := map[string]bool{
		"fig6": true, "fig7a": true, "fig7b": true, "ablation-guards": true, "hardening": true,
	}
	for _, id := range []string{
		"transition",
		"transitions",
		"attribution",
		"scaling",
		"mte",
		"fig6",
		"fig7a",
		"fig7b",
		"ablation-guards",
		"ablation-stripes",
		"faultsweep",
		"backend-matrix",
		"hardening",
	} {
		id := id
		t.Run(id, func(t *testing.T) {
			if raceEnabled && heavyUnderRace[id] {
				t.Skip("skipped under -race (run without -race for full coverage)")
			}
			checkGolden(t, id, Options{})
		})
	}
}

// TestGoldenTablesSlowSerial: the slow tier (the differential oracle)
// on a serial engine renders the same table as the fused tier fanned out
// over every CPU. The slow tier is several times slower, so only the
// cheap tables run here, and the -race leg keeps the cheapest; the
// instruction-level tier differentials in cpu, rt and this package
// cover the rest.
func TestGoldenTablesSlowSerial(t *testing.T) {
	ids := []string{"transition"}
	if !raceEnabled {
		ids = append(ids, "transitions")
	}
	for _, id := range ids {
		id := id
		t.Run(id, func(t *testing.T) { checkGolden(t, id, Options{Tier: cpu.TierSlow, Jobs: 1}) })
	}
}

// TestGoldenTablesHeavy covers the full-suite figures (SPEC, Sightglass,
// binary sizes) — minutes of emulation, so they are skipped under the
// race detector to keep `go test -race ./...` fast; the plain tier-1 run
// still executes them.
func TestGoldenTablesHeavy(t *testing.T) {
	if raceEnabled {
		t.Skip("heavy golden tables skipped under -race (run without -race for full coverage)")
	}
	if testing.Short() {
		t.Skip("heavy golden tables skipped in -short mode")
	}
	for _, id := range []string{
		"fig3",
		"fig4",
		"fig5",
		"table2",
	} {
		id := id
		t.Run(id, func(t *testing.T) { checkGolden(t, id, Options{}) })
	}
}

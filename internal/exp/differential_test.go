package exp

import (
	"os"
	"path/filepath"
	"testing"

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
// FaaS scaling figures.
func TestGoldenTables(t *testing.T) {
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
		t.Run(id, func(t *testing.T) { checkGolden(t, id, Options{}) })
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

package exp

import (
	"os"
	"path/filepath"
	"testing"

	"repro/internal/cpu"
	"repro/internal/isolation"
	"repro/internal/sfi"
)

// TestOptionsAreValues: two configurations run side by side in one
// process and each renders exactly the tables it renders alone, so
// nothing an experiment reads is process state. The reference
// configuration also reproduces the golden, and the other one must
// differ from it somewhere, or the comparison proves nothing.
func TestOptionsAreValues(t *testing.T) {
	configs := map[string]Options{
		"reference":         {},
		"slow-onestack-cet": {Tier: cpu.TierSlow, Scheme: isolation.SchemeOneStack, Harden: sfi.HardenSwivelCET},
	}
	ids := []string{"transitions", "fig1"}
	render := func(t *testing.T, id string, o Options) string {
		e, _ := ByID(id)
		tab, err := e.Run(o)
		if err != nil {
			t.Fatalf("%s: %v", id, err)
		}
		return tab.Text() + "\n"
	}

	alone := map[string]string{}
	for name, o := range configs {
		for _, id := range ids {
			alone[name+"/"+id] = render(t, id, o)
		}
	}
	golden, err := os.ReadFile(filepath.Join("testdata", "golden", "transitions.txt"))
	if err != nil {
		t.Fatal(err)
	}
	if alone["reference/transitions"] != string(golden) {
		t.Fatalf("reference transitions differs from golden:\n%s", alone["reference/transitions"])
	}
	if alone["reference/fig1"] == alone["slow-onestack-cet/fig1"] {
		t.Fatal("hardened fig1 equals the reference: Options.Harden not applied")
	}

	t.Run("together", func(t *testing.T) {
		for name, o := range configs {
			for _, id := range ids {
				t.Run(name+"/"+id, func(t *testing.T) {
					t.Parallel()
					if got, want := render(t, id, o), alone[name+"/"+id]; got != want {
						t.Fatalf("concurrent run differs from the run alone\n--- alone ---\n%s--- concurrent ---\n%s", want, got)
					}
				})
			}
		}
	})
}

package exp

import (
	"fmt"
	"strings"
	"testing"
)

// fastIDs are experiments that run in well under a second.
var fastIDs = []string{"fig1", "transition", "scaling", "table1", "mte", "ablation-stripes"}

func TestRegistry(t *testing.T) {
	seen := map[string]bool{}
	for _, e := range All() {
		if e.ID == "" || e.Title == "" || e.Run == nil {
			t.Errorf("experiment %+v incomplete", e)
		}
		if seen[e.ID] {
			t.Errorf("duplicate id %q", e.ID)
		}
		seen[e.ID] = true
		if _, ok := ByID(e.ID); !ok {
			t.Errorf("ByID(%q) lost", e.ID)
		}
	}
	if _, ok := ByID("no-such"); ok {
		t.Error("ByID accepted garbage")
	}
}

func TestFastExperiments(t *testing.T) {
	for _, id := range fastIDs {
		e, ok := ByID(id)
		if !ok {
			t.Fatalf("missing %s", id)
		}
		tab, err := e.Run(Options{})
		if err != nil {
			t.Fatalf("%s: %v", id, err)
		}
		if len(tab.Rows) == 0 || len(tab.Headers) == 0 {
			t.Errorf("%s: empty table", id)
		}
		if tab.ID != id {
			t.Errorf("%s: table id %q", id, tab.ID)
		}
		txt := tab.Text()
		md := tab.Markdown()
		if !strings.Contains(txt, tab.Headers[0]) || !strings.Contains(md, "|") {
			t.Errorf("%s: rendering broken", id)
		}
	}
}

// TestTransitionNumbers pins the §6.4.1 reproduction: the ColorGuard
// delta must stay at the WRPKRU cost (≈20 ns at 2.2 GHz).
func TestTransitionNumbers(t *testing.T) {
	tab, err := Options{}.TransitionCost()
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) != 2 {
		t.Fatalf("rows: %v", tab.Rows)
	}
	var plain, cg float64
	if _, err := sscan(tab.Rows[0][1], &plain); err != nil {
		t.Fatal(err)
	}
	if _, err := sscan(tab.Rows[1][1], &cg); err != nil {
		t.Fatal(err)
	}
	delta := cg - plain
	if delta < 15 || delta > 25 {
		t.Errorf("transition delta = %.2f ns, want ≈20", delta)
	}
	if plain < 25 || plain > 40 {
		t.Errorf("base transition = %.2f ns, want ≈30", plain)
	}
}

// TestScalingNumbers pins §6.4.2's ≈15x.
func TestScalingNumbers(t *testing.T) {
	tab, err := Options{}.ScalingSlots()
	if err != nil {
		t.Fatal(err)
	}
	var base, cg float64
	if _, err := sscan(tab.Rows[0][1], &base); err != nil {
		t.Fatal(err)
	}
	if _, err := sscan(tab.Rows[1][1], &cg); err != nil {
		t.Fatal(err)
	}
	if ratio := cg / base; ratio < 13 || ratio > 15.5 {
		t.Errorf("scaling ratio %.2f, want ≈15", ratio)
	}
}

// TestMeasureKernelChecksumGate: MeasureKernel must surface trap errors
// rather than return zeroed measurements.
func TestMeasureKernelErrors(t *testing.T) {
	e, _ := ByID("fig1")
	if _, err := e.Run(Options{}); err != nil {
		t.Fatal(err)
	}
}

func sscan(s string, out *float64) (int, error) {
	return fmt.Sscan(s, out)
}

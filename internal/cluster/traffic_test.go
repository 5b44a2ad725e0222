package cluster

import (
	"testing"
	"time"

	"repro/internal/stats"
)

// TestDiurnalShape: trough at t=0, peak half a period in, back to
// trough after a full period.
func TestDiurnalShape(t *testing.T) {
	d := DiurnalShape{Base: 10, Amplitude: 40, Period: time.Minute}
	if r := d.Rate(0); r < 9.9 || r > 10.1 {
		t.Errorf("trough rate = %g, want ~10", r)
	}
	if r := d.Rate(30 * time.Second); r < 49.9 || r > 50.1 {
		t.Errorf("peak rate = %g, want ~50", r)
	}
	if r := d.Rate(time.Minute); r < 9.9 || r > 10.1 {
		t.Errorf("full-period rate = %g, want ~10", r)
	}
}

// TestBurstyShape: the rate is Peak inside scheduled bursts and Base
// outside, and equal seeds replay the identical schedule.
func TestBurstyShape(t *testing.T) {
	mk := func() *BurstyShape {
		return NewBurstyShape(5, 200, 100*time.Millisecond, time.Second, 42)
	}
	a, b := mk(), mk()
	sawPeak, sawBase := false, false
	for ms := 0; ms < 10000; ms += 7 {
		el := time.Duration(ms) * time.Millisecond
		ra, rb := a.Rate(el), b.Rate(el)
		if ra != rb {
			t.Fatalf("same seed diverged at %v: %g vs %g", el, ra, rb)
		}
		switch ra {
		case 200:
			sawPeak = true
		case 5:
			sawBase = true
		default:
			t.Fatalf("rate %g is neither base nor peak", ra)
		}
	}
	if !sawPeak || !sawBase {
		t.Fatalf("10s of trace saw peak=%v base=%v; want both", sawPeak, sawBase)
	}
}

// TestArrivalGen: a constant 100 req/s shape produces mean inter-arrival
// gaps near 10ms (the draw is seeded, so the sample mean is a fixed
// number — the bounds just leave room if the RNG changes).
func TestArrivalGen(t *testing.T) {
	g := NewArrivalGen(ConstShape{RPS: 100}, 7)
	var total time.Duration
	const n = 5000
	for i := 0; i < n; i++ {
		total += g.Next()
	}
	mean := total / n
	if mean < 8*time.Millisecond || mean > 12*time.Millisecond {
		t.Errorf("mean gap = %v, want ~10ms", mean)
	}
	if g.Elapsed() != total {
		t.Errorf("Elapsed %v != summed gaps %v", g.Elapsed(), total)
	}
}

// TestBoundedPareto: samples stay in bounds, the distribution is
// heavy-tailed (most mass near min, some far above), and equal seeds
// agree.
func TestBoundedPareto(t *testing.T) {
	r1, r2 := stats.NewRNG(11), stats.NewRNG(11)
	const n = 20000
	small, big := 0, 0
	for i := 0; i < n; i++ {
		v := BoundedPareto(r1, 1.2, 100, 100000)
		if v2 := BoundedPareto(r2, 1.2, 100, 100000); v2 != v {
			t.Fatalf("same seed diverged: %d vs %d", v, v2)
		}
		if v < 100 || v > 100000 {
			t.Fatalf("sample %d out of [100, 100000]", v)
		}
		if v < 300 {
			small++
		}
		if v > 10000 {
			big++
		}
	}
	if float64(small)/n < 0.5 {
		t.Errorf("only %d/%d samples near min; not head-heavy", small, n)
	}
	if big == 0 {
		t.Errorf("no samples above 100x min; tail missing")
	}
	// Degenerate configs collapse to min.
	if v := BoundedPareto(stats.NewRNG(1), 1.2, 50, 50); v != 50 {
		t.Errorf("min==max sample = %d", v)
	}
}

// TestMix: weighted picks are roughly proportional and parsing accepts
// both weighted and bare entries.
func TestMix(t *testing.T) {
	m, err := ParseMix("regex-filtering:8,hash-load-balance:1,image-transcode-tiles:1")
	if err != nil {
		t.Fatal(err)
	}
	rng := stats.NewRNG(3)
	counts := map[string]int{}
	const n = 10000
	for i := 0; i < n; i++ {
		counts[m.Pick(rng)]++
	}
	if f := float64(counts["regex-filtering"]) / n; f < 0.75 || f > 0.85 {
		t.Errorf("regex-filtering fraction = %g, want ~0.8", f)
	}
	if counts["hash-load-balance"] == 0 || counts["image-transcode-tiles"] == 0 {
		t.Errorf("light kernels never picked: %v", counts)
	}

	if m2, err := ParseMix("a,b"); err != nil || len(m2.names) != 2 {
		t.Errorf("bare mix parse: %v %v", m2, err)
	}
	for _, bad := range []string{"", "a:-1", "a:x"} {
		if _, err := ParseMix(bad); err == nil {
			t.Errorf("ParseMix(%q) accepted", bad)
		}
	}
}

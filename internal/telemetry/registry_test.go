package telemetry

import (
	"bytes"
	"encoding/json"
	"math"
	"sync"
	"testing"
)

func TestCounterGaugeBasics(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("a.b")
	c.Inc()
	c.Add(4)
	if got := c.Load(); got != 5 {
		t.Fatalf("counter = %d, want 5", got)
	}
	if r.Counter("a.b") != c {
		t.Fatal("Counter lookup did not return the same instance")
	}
	g := r.Gauge("q")
	g.Set(7)
	g.Add(-2)
	if got := g.Load(); got != 5 {
		t.Fatalf("gauge = %d, want 5", got)
	}
	r.Reset()
	if c.Load() != 0 || g.Load() != 0 {
		t.Fatal("Reset did not zero metrics")
	}
	if r.Counter("a.b") != c {
		t.Fatal("Reset dropped registered metrics")
	}
}

func TestCounterConcurrent(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("n")
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				c.Inc()
			}
		}()
	}
	wg.Wait()
	if got := c.Load(); got != 8000 {
		t.Fatalf("concurrent counter = %d, want 8000", got)
	}
}

func TestHistogramBucketsAndQuantiles(t *testing.T) {
	h := NewHistogram([]float64{10, 100, 1000})
	for _, v := range []float64{1, 5, 50, 500, 5000} {
		h.Observe(v)
	}
	if h.Count() != 5 {
		t.Fatalf("count = %d", h.Count())
	}
	if h.Sum() != 5556 {
		t.Fatalf("sum = %g", h.Sum())
	}
	// Overflow observations report the last bound.
	if q := h.Quantile(1); q != 1000 {
		t.Fatalf("q100 = %g, want 1000 (last bound)", q)
	}
	// Median rank 2.5 of 5 falls in the (10,100] bucket.
	if q := h.Quantile(0.5); q <= 10 || q > 100 {
		t.Fatalf("q50 = %g, want inside (10,100]", q)
	}
	if q := NewHistogram([]float64{1}).Quantile(0.5); q != 0 {
		t.Fatalf("empty histogram quantile = %g, want 0", q)
	}
}

func TestHistogramQuantileInterpolation(t *testing.T) {
	// 100 observations uniform over one bucket (0,100]: the quantile
	// interpolates linearly, so q0.25 ≈ 25.
	h := NewHistogram([]float64{100, 200})
	for i := 0; i < 100; i++ {
		h.Observe(50)
	}
	if q := h.Quantile(0.25); math.Abs(q-25) > 1e-9 {
		t.Fatalf("q25 = %g, want 25", q)
	}
}

func TestExpBuckets(t *testing.T) {
	bs := ExpBuckets(1000, 2, 4)
	want := []float64{1000, 2000, 4000, 8000}
	for i := range want {
		if bs[i] != want[i] {
			t.Fatalf("ExpBuckets = %v, want %v", bs, want)
		}
	}
}

func TestSnapshotJSONDeterministic(t *testing.T) {
	build := func() *Registry {
		r := NewRegistry()
		// Register in different orders; output must not care.
		r.Counter("z").Add(1)
		r.Counter("a").Add(2)
		r.Gauge("m").Set(-3)
		h := r.Histogram("lat", []float64{10, 100})
		h.Observe(5)
		h.Observe(50)
		return r
	}
	r1, r2 := build(), build()
	j1, j2 := r1.Snapshot().JSON(), r2.Snapshot().JSON()
	if !bytes.Equal(j1, j2) {
		t.Fatalf("snapshots differ:\n%s\nvs\n%s", j1, j2)
	}
	var parsed Snapshot
	if err := json.Unmarshal(j1, &parsed); err != nil {
		t.Fatalf("snapshot JSON does not parse: %v", err)
	}
	if parsed.Counters["a"] != 2 || parsed.Counters["z"] != 1 || parsed.Gauges["m"] != -3 {
		t.Fatalf("round-trip lost values: %+v", parsed)
	}
	if parsed.Histograms["lat"].Count != 2 {
		t.Fatalf("round-trip lost histogram: %+v", parsed.Histograms)
	}
}

func TestHistogramFirstRegistrationWins(t *testing.T) {
	r := NewRegistry()
	h1 := r.Histogram("h", []float64{1, 2})
	h2 := r.Histogram("h", []float64{9})
	if h1 != h2 {
		t.Fatal("second registration returned a different histogram")
	}
}

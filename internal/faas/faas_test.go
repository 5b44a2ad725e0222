package faas

import (
	"reflect"
	"testing"

	"repro/internal/isolation"
	"repro/internal/stats"
)

var testWorkload = Workload{Name: "test", ComputeNs: 28_000, Pages: 48}

// gainVsMultiprocess runs the Figure 6 comparison: ColorGuard in one
// process versus n-process scaling on the same load, returning the
// percentage throughput gain and both results.
func gainVsMultiprocess(w Workload, n int) (gainPct float64, cg, mp Result) {
	cg = Run(KindConfig(w, isolation.ColorGuard, 1))
	mp = Run(KindConfig(w, isolation.MultiProc, n))
	return (cg.ThroughputRPS/mp.ThroughputRPS - 1) * 100, cg, mp
}

// TestFigure6Shape: the throughput gain of ColorGuard over n-process
// scaling grows with n, peaking near the paper's ≈29% at 15 processes.
func TestFigure6Shape(t *testing.T) {
	prev := -5.0
	for _, n := range []int{2, 4, 8, 12, 15} {
		gain, _, _ := gainVsMultiprocess(testWorkload, n)
		if gain < prev {
			t.Errorf("gain at n=%d (%.2f%%) below gain at smaller n (%.2f%%): not monotone", n, gain, prev)
		}
		prev = gain
	}
	gain15, _, _ := gainVsMultiprocess(testWorkload, 15)
	if gain15 < 20 || gain15 > 40 {
		t.Errorf("gain at 15 processes = %.2f%%, want ≈29%%", gain15)
	}
}

// TestFigure7aShape: context switches grow with process count while
// ColorGuard's stay at the constant background rate.
func TestFigure7aShape(t *testing.T) {
	_, cg4, mp4 := gainVsMultiprocess(testWorkload, 4)
	_, cg15, mp15 := gainVsMultiprocess(testWorkload, 15)
	if cg4.CtxSwitches != cg15.CtxSwitches {
		t.Errorf("ColorGuard switch count should be constant: %d vs %d", cg4.CtxSwitches, cg15.CtxSwitches)
	}
	if cg4.CtxSwitches == 0 {
		t.Error("ColorGuard should still see background context switches")
	}
	if mp15.CtxSwitches <= 2*mp4.CtxSwitches {
		t.Errorf("multiprocess switches should grow strongly with n: %d (4) vs %d (15)", mp4.CtxSwitches, mp15.CtxSwitches)
	}
	if mp4.CtxSwitches < 10*cg4.CtxSwitches {
		t.Errorf("multiprocess switches (%d) should dwarf ColorGuard's (%d)", mp4.CtxSwitches, cg4.CtxSwitches)
	}
}

// TestFigure7bShape: dTLB misses grow with process count faster than
// under ColorGuard.
func TestFigure7bShape(t *testing.T) {
	_, cg, mp4 := gainVsMultiprocess(testWorkload, 4)
	_, _, mp15 := gainVsMultiprocess(testWorkload, 15)
	if mp4.DTLBMisses <= cg.DTLBMisses {
		t.Errorf("4-process dTLB misses (%d) should exceed ColorGuard (%d)", mp4.DTLBMisses, cg.DTLBMisses)
	}
	if mp15.DTLBMisses <= mp4.DTLBMisses {
		t.Errorf("dTLB misses should grow with process count: %d vs %d", mp4.DTLBMisses, mp15.DTLBMisses)
	}
}

// TestTransitionAccounting: every completed request entered and left
// the sandbox at least once.
func TestTransitionAccounting(t *testing.T) {
	r := Run(KindConfig(testWorkload, isolation.ColorGuard, 1))
	if r.Completed == 0 {
		t.Fatal("nothing completed")
	}
	if r.Transitions < 2*uint64(r.Completed) {
		t.Errorf("transitions %d < 2x completed %d", r.Transitions, r.Completed)
	}
	if r.MaxConcurrent == 0 {
		t.Error("no concurrency recorded")
	}
}

// TestDeterminism: identical configs produce identical results.
func TestDeterminism(t *testing.T) {
	a := Run(KindConfig(testWorkload, isolation.MultiProc, 8))
	b := Run(KindConfig(testWorkload, isolation.MultiProc, 8))
	if !reflect.DeepEqual(a, b) {
		t.Errorf("non-deterministic simulation: %+v vs %+v", a, b)
	}
}

// BenchmarkRun measures the cost of one full simulation run (the unit
// of work Fig6Throughput fans out 45 times and fig7 16 times).
func BenchmarkRun(b *testing.B) {
	cfg := KindConfig(testWorkload, isolation.MultiProc, 8)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		r := Run(cfg)
		if r.Completed == 0 {
			b.Fatal("nothing completed")
		}
	}
}

// TestUnderLoad: when offered load is far below capacity, both
// strategies complete everything and the gain vanishes.
func TestUnderLoad(t *testing.T) {
	cfgCG := KindConfig(testWorkload, isolation.ColorGuard, 1)
	cfgCG.ArrivalsPerEpoch = 4
	cfgMP := KindConfig(testWorkload, isolation.MultiProc, 15)
	cfgMP.ArrivalsPerEpoch = 4
	cg := Run(cfgCG)
	mp := Run(cfgMP)
	diff := (cg.ThroughputRPS/mp.ThroughputRPS - 1) * 100
	if diff > 3 || diff < -3 {
		t.Errorf("under light load the strategies should tie; got %.2f%% difference", diff)
	}
}

// TestRecordLatencyPercentiles: with RecordLatency set, Run keeps every
// completed request's latency and the reported percentiles are exactly
// stats.Percentile over that sample; without it, recording costs
// nothing and the rest of the Result is unchanged.
func TestRecordLatencyPercentiles(t *testing.T) {
	cfg := KindConfig(testWorkload, isolation.MultiProc, 4)
	cfg.RecordLatency = true
	r := Run(cfg)
	if len(r.Latencies) != r.Completed {
		t.Fatalf("recorded %d latencies for %d completions", len(r.Latencies), r.Completed)
	}
	for _, c := range []struct {
		q    float64
		got  float64
		name string
	}{
		{50, r.LatencyP50Ns, "p50"},
		{95, r.LatencyP95Ns, "p95"},
		{99, r.LatencyP99Ns, "p99"},
	} {
		if want := stats.Percentile(r.Latencies, c.q); c.got != want {
			t.Errorf("%s = %g, want stats.Percentile = %g", c.name, c.got, want)
		}
	}
	if !(r.LatencyP50Ns > 0 && r.LatencyP50Ns <= r.LatencyP95Ns && r.LatencyP95Ns <= r.LatencyP99Ns) {
		t.Errorf("percentiles not ordered: p50=%g p95=%g p99=%g",
			r.LatencyP50Ns, r.LatencyP95Ns, r.LatencyP99Ns)
	}
	// A request's latency is at least its IO wait; the p50 should be on
	// the order of the 5 ms Poisson IO delay, not nanoseconds.
	if r.LatencyP50Ns < 1e5 {
		t.Errorf("p50 %g ns implausibly small", r.LatencyP50Ns)
	}

	off := Run(KindConfig(testWorkload, isolation.MultiProc, 4))
	if off.Latencies != nil || off.LatencyP50Ns != 0 {
		t.Error("latencies recorded without RecordLatency")
	}
	// Recording must not perturb the simulation itself.
	r.Latencies, r.LatencyP50Ns, r.LatencyP95Ns, r.LatencyP99Ns = nil, 0, 0, 0
	if !reflect.DeepEqual(r, off) {
		t.Errorf("RecordLatency changed the simulation: %+v vs %+v", r, off)
	}
}

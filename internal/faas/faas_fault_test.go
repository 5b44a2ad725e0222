package faas

import (
	"bytes"
	"reflect"
	"testing"

	"repro/internal/fault"
	"repro/internal/isolation"
	"repro/internal/telemetry"
)

// faultyConfig is a representative armed configuration: every fault
// class active, retries with backoff, a deadline, a bounded queue, and
// a breaker.
func faultyConfig(rate float64) Config {
	cfg := KindConfig(testWorkload, isolation.ColorGuard, 1)
	cfg.Faults = fault.Config{
		Seed:        101,
		Rates:       fault.RatesFor("colorguard", rate),
		MaxAttempts: 4,
		Retry:       fault.Backoff{BaseNs: 200_000, Factor: 2, MaxNs: 8e6},
		TimeoutNs:   80e6,
		QueueLimit:  4096,
		Breaker:     fault.BreakerConfig{FailureThreshold: 64, OpenNs: 4e6},
	}
	return cfg
}

// TestFaultsZeroConfigInert: the zero Faults value leaves the Result
// field-for-field identical to the pre-fault simulator — no fault
// branch may execute.
func TestFaultsZeroConfigInert(t *testing.T) {
	clean := Run(KindConfig(testWorkload, isolation.MultiProc, 8))
	if clean.Shed != 0 || clean.Failed != 0 || clean.Retried != 0 ||
		clean.TimedOut != 0 || clean.FaultsInjected != 0 || clean.Degradation != nil {
		t.Fatalf("clean run reported fault outcomes: %+v", clean)
	}
	if clean.Offered == 0 {
		t.Fatal("Offered not counted")
	}
}

// TestFaultsArmedButIdleInert: an armed configuration whose rates are
// zero and whose policies cannot trigger (no timeout, unbounded queue,
// disabled breaker) runs every fault branch and still produces a
// Result identical to the disarmed run. This is the per-Run version of
// exp.TestGoldenTablesWithFaultsOff.
func TestFaultsArmedButIdleInert(t *testing.T) {
	off := Run(KindConfig(testWorkload, isolation.MultiProc, 8))
	armed := KindConfig(testWorkload, isolation.MultiProc, 8)
	armed.Faults = fault.Config{
		Seed:        999,
		MaxAttempts: 5,
		Retry:       fault.Backoff{BaseNs: 1e6, Factor: 2},
	}
	on := Run(armed)
	if !reflect.DeepEqual(off, on) {
		t.Fatalf("armed-but-idle fault config changed the run:\noff: %+v\non:  %+v", off, on)
	}
}

// TestFaultDeterminism: same seed and config twice gives identical
// Results — including the degradation curve — and identical telemetry
// snapshots, byte for byte.
func TestFaultDeterminism(t *testing.T) {
	cfg := faultyConfig(0.02)
	cfg.Faults.CurveBucketNs = 2e8

	run := func() (Result, []byte) {
		telemetry.Default.Reset()
		telemetry.SetEnabled(true)
		defer telemetry.SetEnabled(false)
		r := Run(cfg)
		return r, telemetry.Default.Snapshot().JSON()
	}
	r1, snap1 := run()
	r2, snap2 := run()
	if !reflect.DeepEqual(r1, r2) {
		t.Fatalf("fault-seeded runs diverged:\n%+v\n%+v", r1, r2)
	}
	if !bytes.Equal(snap1, snap2) {
		t.Fatalf("telemetry snapshots diverged:\n%s\n%s", snap1, snap2)
	}
	if r1.FaultsInjected == 0 || r1.Retried == 0 {
		t.Fatalf("expected injected faults and retries: %+v", r1)
	}

	// A different seed must change the fault sequence (otherwise the
	// determinism above would be vacuous).
	other := cfg
	other.Faults.Seed++
	if r3 := Run(other); r3.FaultsInjected == r1.FaultsInjected && reflect.DeepEqual(r1, r3) {
		t.Error("changing the fault seed changed nothing")
	}
}

// TestFaultConservation: every offered request is accounted for —
// completed, shed, failed, timed out, or still in flight at the end.
func TestFaultConservation(t *testing.T) {
	for _, rate := range []float64{0, 0.01, 0.1} {
		r := Run(faultyConfig(rate))
		acct := r.Completed + r.Shed + r.Failed + r.TimedOut
		if acct > r.Offered {
			t.Errorf("rate %g: outcomes %d exceed offered %d", rate, acct, r.Offered)
		}
		if leftover := r.Offered - acct; leftover > r.MaxConcurrent {
			t.Errorf("rate %g: %d requests unaccounted for (max concurrent %d)",
				rate, leftover, r.MaxConcurrent)
		}
	}
}

// TestAdmissionControlSheds: a tight queue bound sheds load and caps
// concurrency at the limit.
func TestAdmissionControlSheds(t *testing.T) {
	cfg := KindConfig(testWorkload, isolation.ColorGuard, 1)
	cfg.Faults = fault.Config{QueueLimit: 32}
	r := Run(cfg)
	if r.Shed == 0 {
		t.Fatal("overloaded bounded queue shed nothing")
	}
	if r.MaxConcurrent > 32 {
		t.Errorf("max concurrent %d exceeds the queue limit 32", r.MaxConcurrent)
	}
	if r.Completed == 0 {
		t.Error("shedding starved the platform completely")
	}
	unbounded := Run(KindConfig(testWorkload, isolation.ColorGuard, 1))
	if r.MaxConcurrent >= unbounded.MaxConcurrent {
		t.Errorf("queue limit did not reduce concurrency: %d vs %d",
			r.MaxConcurrent, unbounded.MaxConcurrent)
	}
}

// TestTimeoutDropsStragglers: a deadline shorter than typical latency
// times requests out; a very long one does not.
func TestTimeoutDropsStragglers(t *testing.T) {
	tight := KindConfig(testWorkload, isolation.ColorGuard, 1)
	tight.Faults = fault.Config{TimeoutNs: 3e6} // 3 ms vs the 5 ms IO mean
	r := Run(tight)
	if r.TimedOut == 0 {
		t.Fatal("3 ms deadline timed nothing out against a 5 ms IO delay")
	}
	loose := KindConfig(testWorkload, isolation.ColorGuard, 1)
	loose.Faults = fault.Config{TimeoutNs: 1e12}
	if rl := Run(loose); rl.TimedOut != 0 {
		t.Errorf("effectively-infinite deadline timed out %d requests", rl.TimedOut)
	}
}

// TestRetriesRecoverThroughput: with faults striking, an attempt budget
// converts failures into retries — strictly fewer abandoned requests
// than the no-retry run, at the same fault sequence.
func TestRetriesRecoverThroughput(t *testing.T) {
	base := KindConfig(testWorkload, isolation.ColorGuard, 1)
	base.Faults = fault.Config{
		Seed:        7,
		Rates:       fault.Rates{Poisoned: 0.05, TransitionFault: 0.02},
		MaxAttempts: 1,
	}
	noRetry := Run(base)

	withRetry := base
	withRetry.Faults.MaxAttempts = 5
	withRetry.Faults.Retry = fault.Backoff{BaseNs: 100_000, Factor: 2, MaxNs: 2e6}
	rr := Run(withRetry)

	if noRetry.Failed == 0 {
		t.Fatal("fault rates injected no failures in the no-retry run")
	}
	if rr.Retried == 0 {
		t.Fatal("retry budget scheduled no retries")
	}
	// Retried requests resolve later, so raw completions inside the
	// fixed window can dip slightly; the meaningful win is the failure
	// fraction among resolved requests.
	fracNo := float64(noRetry.Failed) / float64(noRetry.Failed+noRetry.Completed)
	fracRe := float64(rr.Failed) / float64(rr.Failed+rr.Completed)
	if fracRe >= fracNo {
		t.Errorf("retries did not reduce the failure fraction: %.4f with vs %.4f without", fracRe, fracNo)
	}
}

// TestBreakerTripsUnderFaultStorm: certain failure trips the breaker,
// which then sheds at admission.
func TestBreakerTripsUnderFaultStorm(t *testing.T) {
	cfg := KindConfig(testWorkload, isolation.ColorGuard, 1)
	cfg.Faults = fault.Config{
		Seed:    3,
		Rates:   fault.Rates{Poisoned: 1.0}, // every attempt crashes
		Breaker: fault.BreakerConfig{FailureThreshold: 16, OpenNs: 10e6},
	}
	r := Run(cfg)
	if r.BreakerOpens == 0 {
		t.Fatal("breaker never tripped under a 100% crash rate")
	}
	if r.Shed == 0 {
		t.Error("open breaker shed nothing at admission")
	}
	if r.Completed != 0 {
		t.Errorf("%d requests completed despite a 100%% crash rate", r.Completed)
	}
}

// TestDegradationCurve: curve points land on bucket boundaries, carry
// monotonically non-decreasing cumulative counts, and end at the run's
// final totals.
func TestDegradationCurve(t *testing.T) {
	cfg := faultyConfig(0.05)
	cfg.Faults.CurveBucketNs = 1e8 // 100 ms buckets over a 2 s run
	r := Run(cfg)
	if len(r.Degradation) < 10 {
		t.Fatalf("only %d curve points over 20 buckets", len(r.Degradation))
	}
	var prev DegradationPoint
	for i, p := range r.Degradation {
		if p.TimeNs != float64(i+1)*1e8 {
			t.Fatalf("point %d stamped %g, want bucket boundary %g", i, p.TimeNs, float64(i+1)*1e8)
		}
		if p.Completed < prev.Completed || p.Shed < prev.Shed || p.Failed < prev.Failed ||
			p.TimedOut < prev.TimedOut || p.Retried < prev.Retried {
			t.Fatalf("cumulative counts decreased at point %d: %+v after %+v", i, p, prev)
		}
		prev = p
	}
	last := r.Degradation[len(r.Degradation)-1]
	if last.Completed > r.Completed || last.Shed > r.Shed || last.Failed > r.Failed {
		t.Errorf("final curve point %+v exceeds run totals %+v", last, r)
	}
}

// TestColdStartFaultsChargeLifecycle: failed inits still burn
// lifecycle time, so cold-start failure storms show up as lost virtual
// time, not free retries.
func TestColdStartFaultsChargeLifecycle(t *testing.T) {
	mk := func(rate float64) Config {
		cfg := KindConfig(testWorkload, isolation.ColorGuard, 1)
		cfg.ColdStart = true
		cfg.InstanceBytes = 64 << 10
		cfg.Faults = fault.Config{
			Seed:        13,
			Rates:       fault.Rates{ColdStartFail: rate},
			MaxAttempts: 4,
		}
		return cfg
	}
	clean := Run(mk(0))
	faulty := Run(mk(0.3))
	if faulty.FaultsInjected == 0 {
		t.Fatal("no cold-start faults injected at rate 0.3")
	}
	perClean := clean.LifecycleNs / float64(clean.Completed)
	perFaulty := faulty.LifecycleNs / float64(faulty.Completed)
	if perFaulty <= perClean {
		t.Errorf("failed inits charged no extra lifecycle time: %.0f vs %.0f ns/request",
			perFaulty, perClean)
	}
}

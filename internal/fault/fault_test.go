package fault

import "testing"

// TestBackoffDelays pins the backoff schedule arithmetic: exponential
// growth from the base, the cap, constant-backoff degenerate factors,
// and the inert zero value.
func TestBackoffDelays(t *testing.T) {
	cases := []struct {
		name    string
		b       Backoff
		attempt int
		want    float64
	}{
		{"zero value", Backoff{}, 3, 0},
		{"attempt zero", Backoff{BaseNs: 100, Factor: 2}, 0, 0},
		{"attempt negative", Backoff{BaseNs: 100, Factor: 2}, -2, 0},
		{"first retry is base", Backoff{BaseNs: 100, Factor: 2}, 1, 100},
		{"second doubles", Backoff{BaseNs: 100, Factor: 2}, 2, 200},
		{"fifth is base*2^4", Backoff{BaseNs: 100, Factor: 2}, 5, 1600},
		{"factor three", Backoff{BaseNs: 10, Factor: 3}, 3, 90},
		{"factor below one is constant", Backoff{BaseNs: 50, Factor: 0.5}, 4, 50},
		{"factor zero is constant", Backoff{BaseNs: 50}, 7, 50},
		{"cap clamps", Backoff{BaseNs: 100, Factor: 2, MaxNs: 500}, 4, 500},
		{"cap holds forever", Backoff{BaseNs: 100, Factor: 2, MaxNs: 500}, 40, 500},
		{"below cap untouched", Backoff{BaseNs: 100, Factor: 2, MaxNs: 500}, 2, 200},
		{"cap below base clamps base", Backoff{BaseNs: 100, Factor: 2, MaxNs: 60}, 1, 60},
		{"negative base disables", Backoff{BaseNs: -5, Factor: 2}, 3, 0},
	}
	for _, c := range cases {
		if got := c.b.DelayNs(c.attempt); got != c.want {
			t.Errorf("%s: DelayNs(%d) = %g, want %g", c.name, c.attempt, got, c.want)
		}
	}
}

// TestBreakerLifecycle walks the breaker through the full state
// machine: closed → open on the threshold, rejecting while open,
// half-open after OpenNs, reopening on a probe failure, and closing
// after enough probe successes.
func TestBreakerLifecycle(t *testing.T) {
	b := NewBreaker(BreakerConfig{FailureThreshold: 3, OpenNs: 1000, HalfOpenSuccesses: 2})

	if b.State() != BreakerClosed {
		t.Fatalf("new breaker state = %v, want closed", b.State())
	}
	if !b.Allow(0) {
		t.Fatal("closed breaker rejected")
	}

	// Two failures: still closed. A success resets the run.
	b.OnFailure(10)
	b.OnFailure(20)
	b.OnSuccess(30)
	b.OnFailure(40)
	b.OnFailure(50)
	if b.State() != BreakerClosed {
		t.Fatalf("state after interrupted failure run = %v, want closed", b.State())
	}

	// Third consecutive failure trips it.
	b.OnFailure(60)
	if b.State() != BreakerOpen {
		t.Fatalf("state after threshold = %v, want open", b.State())
	}
	if b.Opens() != 1 {
		t.Fatalf("opens = %d, want 1", b.Opens())
	}
	if b.Allow(100) {
		t.Error("open breaker allowed before OpenNs elapsed")
	}

	// OpenNs elapsed: half-open, probe admitted.
	if !b.Allow(60 + 1000) {
		t.Fatal("breaker did not admit the half-open probe")
	}
	if b.State() != BreakerHalfOpen {
		t.Fatalf("state after probe admission = %v, want half-open", b.State())
	}

	// Probe failure reopens immediately.
	b.OnFailure(1100)
	if b.State() != BreakerOpen || b.Opens() != 2 {
		t.Fatalf("state after probe failure = %v opens=%d, want open/2", b.State(), b.Opens())
	}

	// Half-open again; two successes close.
	if !b.Allow(1100 + 1000) {
		t.Fatal("second half-open probe rejected")
	}
	b.OnSuccess(2200)
	if b.State() != BreakerHalfOpen {
		t.Fatalf("closed after one probe success, want two")
	}
	b.OnSuccess(2300)
	if b.State() != BreakerClosed {
		t.Fatalf("state after probe successes = %v, want closed", b.State())
	}
	if !b.Allow(2400) {
		t.Error("reclosed breaker rejected")
	}
}

// TestBreakerDisabled: the zero config never rejects and never changes
// state, so a disarmed breaker on the hot path is inert.
func TestBreakerDisabled(t *testing.T) {
	b := NewBreaker(BreakerConfig{})
	for i := 0; i < 100; i++ {
		b.OnFailure(float64(i))
		if !b.Allow(float64(i)) {
			t.Fatal("disabled breaker rejected")
		}
	}
	if b.State() != BreakerClosed || b.Opens() != 0 {
		t.Fatalf("disabled breaker moved: state=%v opens=%d", b.State(), b.Opens())
	}
}

// TestBreakerDefaultHalfOpenSuccesses: HalfOpenSuccesses 0 behaves as 1.
func TestBreakerDefaultHalfOpenSuccesses(t *testing.T) {
	b := NewBreaker(BreakerConfig{FailureThreshold: 1, OpenNs: 10})
	b.OnFailure(0)
	if !b.Allow(10) {
		t.Fatal("probe rejected")
	}
	b.OnSuccess(11)
	if b.State() != BreakerClosed {
		t.Fatalf("state = %v, want closed after one probe success", b.State())
	}
}

// TestInjectorDeterminism: the same seed replays the same hit sequence
// and counts.
func TestInjectorDeterminism(t *testing.T) {
	draw := func() ([]bool, uint64) {
		in := NewInjector(42)
		var hits []bool
		for i := 0; i < 2000; i++ {
			hits = append(hits, in.Hit(Poisoned, 0.1))
		}
		return hits, in.Count(Poisoned)
	}
	h1, c1 := draw()
	h2, c2 := draw()
	if c1 != c2 {
		t.Fatalf("counts differ: %d vs %d", c1, c2)
	}
	for i := range h1 {
		if h1[i] != h2[i] {
			t.Fatalf("hit sequence diverges at draw %d", i)
		}
	}
	if c1 == 0 || c1 > 400 {
		t.Errorf("2000 draws at rate 0.1 hit %d times; want roughly 200", c1)
	}
}

// TestInjectorZeroRateConsumesNothing: a disabled class does not draw
// from the stream, so toggling it cannot shift another class's
// sequence — the inertness property the golden tables rely on.
func TestInjectorZeroRateConsumesNothing(t *testing.T) {
	a := NewInjector(7)
	b := NewInjector(7)
	var sa, sb []bool
	for i := 0; i < 500; i++ {
		sa = append(sa, a.Hit(Poisoned, 0.2))
		b.Hit(ColdStartFail, 0)    // must not consume
		b.Hit(TransitionFault, -1) // must not consume
		sb = append(sb, b.Hit(Poisoned, 0.2))
	}
	for i := range sa {
		if sa[i] != sb[i] {
			t.Fatalf("zero-rate draws shifted the stream at %d", i)
		}
	}
	if a.Total() != a.Count(Poisoned) || b.Count(ColdStartFail) != 0 {
		t.Error("zero-rate class recorded hits")
	}
}

// TestRatesFor: base 0 is the zero mix; each backend mix scales with
// the base and covers every class.
func TestRatesFor(t *testing.T) {
	if RatesFor("multiproc", 0) != (Rates{}) {
		t.Error("base 0 should produce zero rates")
	}
	for _, backend := range []string{"guardpage", "colorguard", "mte", "multiproc", "never-heard-of-it"} {
		r := RatesFor(backend, 0.01)
		if r.ColdStartFail <= 0 || r.SlotExhausted <= 0 || r.TransitionFault <= 0 || r.Poisoned <= 0 {
			t.Errorf("%s: a class has no rate: %+v", backend, r)
		}
		want := Rates{2 * r.ColdStartFail, 2 * r.SlotExhausted, 2 * r.TransitionFault, 2 * r.Poisoned}
		if double := RatesFor(backend, 0.02); double != want {
			t.Errorf("%s: rates %+v at twice the base, want %+v (linear)", backend, double, want)
		}
	}
	if mp := RatesFor("multiproc", 0.01); mp.ColdStartFail <= RatesFor("colorguard", 0.01).ColdStartFail {
		t.Error("multiproc cold starts should fail more often than colorguard's")
	}
}

// TestConfigArmed: only the zero value is disarmed.
func TestConfigArmed(t *testing.T) {
	if (Config{}).Armed() {
		t.Error("zero config reports armed")
	}
	for _, c := range []Config{
		{Seed: 1},
		{Rates: Rates{Poisoned: 0.1}},
		{TimeoutNs: 1e6},
		{QueueLimit: 100},
		{Breaker: BreakerConfig{FailureThreshold: 5}},
		{CurveBucketNs: 1e8},
		{MaxAttempts: 3},
		{Retry: Backoff{BaseNs: 10}},
	} {
		if !c.Armed() {
			t.Errorf("config %+v reports disarmed", c)
		}
	}
}

// TestClassStrings: every class has a distinct telemetry name.
func TestClassStrings(t *testing.T) {
	seen := map[string]bool{}
	for c := Class(0); c < NumClasses; c++ {
		s := c.String()
		if s == "" || s == "unknown" || seen[s] {
			t.Errorf("class %d name %q invalid or duplicated", c, s)
		}
		seen[s] = true
	}
}

package fault

import "sync"

// Backoff is an exponential retry-delay schedule in virtual
// nanoseconds: attempt n (1-based count of failures so far) waits
// BaseNs * Factor^(n-1), capped at MaxNs. The zero value waits nothing
// (immediate retry). No jitter: the schedule is pure arithmetic, so a
// seeded run's retry timeline is reproducible without consuming any
// RNG stream.
type Backoff struct {
	// BaseNs is the delay before the first retry. <= 0 disables
	// delays entirely.
	BaseNs float64

	// Factor multiplies the delay per additional failure; values
	// below 1 are treated as 1 (constant backoff).
	Factor float64

	// MaxNs caps the delay; 0 means uncapped.
	MaxNs float64
}

// DelayNs returns the wait before retry number attempt (1 = first
// retry). Non-positive attempts and a non-positive base yield 0.
func (b Backoff) DelayNs(attempt int) float64 {
	if attempt <= 0 || b.BaseNs <= 0 {
		return 0
	}
	f := b.Factor
	if f < 1 {
		f = 1
	}
	d := b.BaseNs
	for i := 1; i < attempt; i++ {
		d *= f
		if b.MaxNs > 0 && d >= b.MaxNs {
			return b.MaxNs
		}
	}
	if b.MaxNs > 0 && d > b.MaxNs {
		return b.MaxNs
	}
	return d
}

// BreakerConfig parameterizes the circuit breaker. The zero value
// disables it.
type BreakerConfig struct {
	// FailureThreshold is the number of consecutive failures that
	// trips the breaker open. 0 disables the breaker.
	FailureThreshold int

	// OpenNs is how long (virtual ns) an open breaker rejects
	// admissions before moving to half-open on the next Allow.
	OpenNs float64

	// HalfOpenSuccesses is how many successes in half-open close the
	// breaker again; 0 means 1.
	HalfOpenSuccesses int
}

// Enabled reports whether the breaker does anything.
func (c BreakerConfig) Enabled() bool { return c.FailureThreshold > 0 }

// BreakerState is the circuit breaker's position.
type BreakerState int

// The classic three-state breaker.
const (
	// BreakerClosed: traffic flows; consecutive failures are counted.
	BreakerClosed BreakerState = iota
	// BreakerOpen: admissions fast-fail until OpenNs elapses.
	BreakerOpen
	// BreakerHalfOpen: traffic flows probationally; one failure
	// reopens, HalfOpenSuccesses successes close.
	BreakerHalfOpen
)

// String names the state.
func (s BreakerState) String() string {
	switch s {
	case BreakerClosed:
		return "closed"
	case BreakerOpen:
		return "open"
	case BreakerHalfOpen:
		return "half-open"
	}
	return "unknown"
}

// Breaker is a virtual-time circuit breaker: it trips open after a run
// of consecutive failures, rejects admissions for OpenNs, then admits
// probes half-open until enough succeed to close. All time is the
// caller's clock — a simulation's virtual nanoseconds or a server's
// wall-clock nanoseconds since start; the breaker holds no real-time
// state, so a seeded simulation replays its trips exactly. It is safe
// for concurrent use: one mutex guards the state, and a disabled
// breaker returns before taking it.
type Breaker struct {
	cfg BreakerConfig

	mu          sync.Mutex
	state       BreakerState
	consecFails int
	reopenAt    float64 // virtual time when open may move to half-open
	probeOK     int
	opens       uint64
}

// NewBreaker returns a closed breaker under cfg.
func NewBreaker(cfg BreakerConfig) *Breaker { return &Breaker{cfg: cfg} }

// Allow reports whether an admission at virtual time now may proceed.
// A disabled breaker always allows. An open breaker whose OpenNs has
// elapsed moves to half-open and allows the probe.
func (b *Breaker) Allow(now float64) bool {
	if !b.cfg.Enabled() {
		return true
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.state == BreakerOpen {
		if now < b.reopenAt {
			return false
		}
		b.state = BreakerHalfOpen
		b.probeOK = 0
	}
	return true
}

// OnSuccess records a completed request at virtual time now.
func (b *Breaker) OnSuccess(now float64) {
	if !b.cfg.Enabled() {
		return
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	switch b.state {
	case BreakerClosed:
		b.consecFails = 0
	case BreakerHalfOpen:
		b.probeOK++
		need := b.cfg.HalfOpenSuccesses
		if need < 1 {
			need = 1
		}
		if b.probeOK >= need {
			b.state = BreakerClosed
			b.consecFails = 0
		}
	}
}

// OnFailure records a failed, timed-out, or faulted request at virtual
// time now and reports whether this call tripped the breaker open. In
// half-open any failure reopens immediately.
func (b *Breaker) OnFailure(now float64) (tripped bool) {
	if !b.cfg.Enabled() {
		return false
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	switch b.state {
	case BreakerClosed:
		b.consecFails++
		tripped = b.consecFails >= b.cfg.FailureThreshold
	case BreakerHalfOpen:
		tripped = true
	}
	if tripped {
		b.trip(now)
	}
	return tripped
}

func (b *Breaker) trip(now float64) {
	b.state = BreakerOpen
	b.reopenAt = now + b.cfg.OpenNs
	b.consecFails = 0
	b.opens++
}

// State returns the breaker's current position.
func (b *Breaker) State() BreakerState {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.state
}

// Opens returns how many times the breaker has tripped open.
func (b *Breaker) Opens() uint64 {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.opens
}

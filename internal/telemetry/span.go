package telemetry

import (
	"sync"
	"sync/atomic"
)

// Phase attribution: every sandboxed invocation decomposes into a fixed
// set of phases — where each nanosecond of its latency went. The same
// phase vocabulary covers both clocks: internal/faas attributes virtual
// nanoseconds per simulated request, internal/server attributes wall
// nanoseconds per HTTP request. Phase-sum conservation is the layer's
// invariant: for every recorded request, the phase durations sum to the
// request's total latency (within float rounding) — no nanosecond is
// double-counted or lost.

// Phase is one fixed latency phase of a sandboxed invocation.
type Phase uint8

// The fixed phases, in request-lifecycle order.
const (
	// PhaseIO is off-CPU waiting on a timer or simulated IO completion
	// (the FaaS simulator's Poisson IO delay, retry backoff windows).
	PhaseIO Phase = iota
	// PhaseQueue is time spent ready but waiting for a CPU or worker:
	// the shard queue on the serving path, the per-process ready queue
	// in the simulator.
	PhaseQueue
	// PhaseAdmission is the admission-control decision: validation,
	// breaker and in-flight checks, shard selection.
	PhaseAdmission
	// PhasePlacement is cold-start and slot placement: backend slot
	// allocation, instance layout, lifecycle init charges.
	PhasePlacement
	// PhaseTransitionIn is the sandbox-entry share of the crossing.
	PhaseTransitionIn
	// PhaseExec is kernel execution inside the sandbox.
	PhaseExec
	// PhaseTransitionOut is the sandbox-exit share of the crossing.
	PhaseTransitionOut
	// PhaseMarshal is result marshalling: delivering the worker's
	// result back and rendering the response.
	PhaseMarshal

	// NumPhases is the number of fixed phases.
	NumPhases = int(PhaseMarshal) + 1
)

// phaseNames index by Phase; these are the <name> part of the
// serve.phase.<name> metric keys and the flight-recorder JSON keys.
var phaseNames = [NumPhases]string{
	"io", "queue", "admission", "placement",
	"transition_in", "exec", "transition_out", "marshal",
}

// String returns the phase's metric/JSON name.
func (p Phase) String() string {
	if int(p) < NumPhases {
		return phaseNames[p]
	}
	return "unknown"
}

// PhaseNames returns the phase names in phase order.
func PhaseNames() [NumPhases]string { return phaseNames }

// spansEnabled gates phase recording process-wide, independent of the
// metrics registry: spans cost a fixed-size value struct when on and a
// single predictable branch when off.
var spansEnabled atomic.Bool

// SetSpansEnabled turns per-request phase attribution on or off
// process-wide. Off by default.
func SetSpansEnabled(on bool) { spansEnabled.Store(on) }

// SpansEnabled reports whether phase attribution is on (one atomic
// load; resolve it once per run or request, not per phase).
func SpansEnabled() bool { return spansEnabled.Load() }

// Span accumulates one request's per-phase durations. It is a plain
// value — embed it in a request struct and no allocation ever happens,
// enabled or not. All methods are single-owner: one goroutine owns the
// span at any time (ownership may move with the request, e.g. from an
// HTTP handler to a worker and back, as long as the handoff
// synchronizes).
//
// Durations are in nanoseconds of whichever clock the caller uses —
// virtual for simulators, wall for servers — and a span never mixes
// clocks. When the span is off (constructed while SpansEnabled was
// false), Add is a no-op behind one predictable branch.
type Span struct {
	on   bool
	durs [NumPhases]float64
}

// NewSpan returns a span that records iff spans are enabled
// process-wide at this moment.
func NewSpan() Span { return Span{on: spansEnabled.Load()} }

// On reports whether the span records.
func (s *Span) On() bool { return s.on }

// Add attributes ns nanoseconds to phase p. No-op when the span is off
// or ns <= 0.
func (s *Span) Add(p Phase, ns float64) {
	if !s.on || ns <= 0 {
		return
	}
	s.durs[p] += ns
}

// PhaseMap renders the non-zero phases as a name → nanoseconds map
// (for JSON payloads). Allocates; call only on recording paths.
func (s *Span) PhaseMap() map[string]float64 {
	m := make(map[string]float64, NumPhases)
	for p, d := range s.durs {
		if d > 0 {
			m[phaseNames[p]] = d
		}
	}
	return m
}

// PhaseRecorder publishes completed spans as per-phase histograms under
// <prefix>.<name> (plus <prefix>.total), caching the histogram pointers
// so recording pays one Observe per non-zero phase and no map lookups.
type PhaseRecorder struct {
	hists [NumPhases]*Histogram
	total *Histogram
}

// NewPhaseRecorder resolves the phase histograms in reg under prefix
// (canonically "serve.phase" for the serving path).
func NewPhaseRecorder(reg *Registry, prefix string) *PhaseRecorder {
	// 100 ns .. ~13 s: wide enough for wall latencies of queued
	// requests and fine enough for sub-µs transition shares.
	bounds := ExpBuckets(100, 2, 27)
	r := &PhaseRecorder{total: reg.Histogram(prefix+".total", bounds)}
	for p := 0; p < NumPhases; p++ {
		r.hists[p] = reg.Histogram(prefix+"."+phaseNames[p], bounds)
	}
	return r
}

// Record observes every non-zero phase of a finished span, plus the
// span total. No-op for spans that are off.
func (r *PhaseRecorder) Record(s *Span) {
	if !s.on {
		return
	}
	var total float64
	for p, d := range s.durs {
		if d > 0 {
			r.hists[p].Observe(d)
			total += d
		}
	}
	r.total.Observe(total)
}

// RequestRecord is one fully-attributed request in the flight
// recorder: identity, outcome, and the per-phase breakdown.
type RequestRecord struct {
	TraceID string `json:"trace_id"`
	Kernel  string `json:"kernel,omitempty"`
	Backend string `json:"backend,omitempty"`
	Scheme  string `json:"scheme,omitempty"`
	Status  int    `json:"status"`
	Shard   int    `json:"shard"`
	Worker  int    `json:"worker"`

	// StartNs is the request's start on the recorder owner's clock
	// (wall nanoseconds since server start for the serving path).
	StartNs float64 `json:"start_ns"`
	// TotalNs is the independently measured end-to-end latency; the
	// phase durations sum to it within rounding.
	TotalNs float64            `json:"total_ns"`
	Phases  map[string]float64 `json:"phases"`
}

// FlightRecorder keeps the most-recent-N and slowest-N fully-attributed
// requests, for the /debug/requests endpoint. Recording is
// mutex-guarded and O(N) worst case with N small (the default 16), so
// it sits comfortably on a per-request path that is already doing
// network IO.
type FlightRecorder struct {
	mu      sync.Mutex
	cap     int
	recent  []RequestRecord // ring buffer
	next    int             // ring write position once full
	slowest []RequestRecord // descending TotalNs, at most cap
	seen    uint64
}

// DefaultFlightCap is how many requests each FlightRecorder list holds
// when NewFlightRecorder is given a non-positive capacity.
const DefaultFlightCap = 16

// NewFlightRecorder returns a recorder keeping n recent and n slowest
// requests.
func NewFlightRecorder(n int) *FlightRecorder {
	if n < 1 {
		n = DefaultFlightCap
	}
	return &FlightRecorder{cap: n}
}

// Record adds one finished request.
func (f *FlightRecorder) Record(rec RequestRecord) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.seen++
	if len(f.recent) < f.cap {
		f.recent = append(f.recent, rec)
	} else {
		f.recent[f.next] = rec
		f.next = (f.next + 1) % f.cap
	}
	// Insertion into the slowest list: find the spot, shift, drop the
	// tail. len(slowest) <= cap, so this is a handful of copies.
	i := len(f.slowest)
	for i > 0 && f.slowest[i-1].TotalNs < rec.TotalNs {
		i--
	}
	if i >= f.cap {
		return
	}
	if len(f.slowest) < f.cap {
		f.slowest = append(f.slowest, RequestRecord{})
	}
	copy(f.slowest[i+1:], f.slowest[i:])
	f.slowest[i] = rec
}

// FlightSnapshot is a point-in-time copy of the recorder.
type FlightSnapshot struct {
	// Seen counts every request recorded since creation (recent and
	// slowest are windows onto this stream).
	Seen uint64 `json:"seen"`
	// Recent lists the newest requests, most recent first.
	Recent []RequestRecord `json:"recent"`
	// Slowest lists the slowest requests, slowest first.
	Slowest []RequestRecord `json:"slowest"`
}

// Snapshot copies the recorder's current state.
func (f *FlightRecorder) Snapshot() FlightSnapshot {
	f.mu.Lock()
	defer f.mu.Unlock()
	snap := FlightSnapshot{Seen: f.seen}
	// Ring order is oldest-first from next; emit newest-first.
	n := len(f.recent)
	snap.Recent = make([]RequestRecord, 0, n)
	for i := 0; i < n; i++ {
		idx := (f.next + n - 1 - i) % n
		snap.Recent = append(snap.Recent, f.recent[idx])
	}
	snap.Slowest = append([]RequestRecord(nil), f.slowest...)
	return snap
}

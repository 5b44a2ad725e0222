package telemetry

import (
	"math"
	"testing"
)

func TestSpanDisabledIsInert(t *testing.T) {
	SetSpansEnabled(false)
	s := NewSpan()
	if s.On() {
		t.Fatal("span on while spans disabled")
	}
	s.Add(PhaseExec, 100)
	if s.durs != ([NumPhases]float64{}) {
		t.Fatalf("disabled span accumulated %v", s.durs)
	}
}

// TestSpanDisabledZeroAlloc pins the acceptance bar: with spans
// disabled, the whole per-request span path — construction, phase
// attribution, recording — allocates zero bytes.
func TestSpanDisabledZeroAlloc(t *testing.T) {
	SetSpansEnabled(false)
	reg := NewRegistry()
	rec := NewPhaseRecorder(reg, "test.phase")
	fr := NewFlightRecorder(4)
	allocs := testing.AllocsPerRun(1000, func() {
		s := NewSpan()
		s.Add(PhaseQueue, 10)
		s.Add(PhaseExec, 20)
		rec.Record(&s)
		if s.On() {
			fr.Record(RequestRecord{TotalNs: 30, Phases: s.PhaseMap()})
		}
	})
	if allocs != 0 {
		t.Fatalf("disabled span path allocates %.1f bytes/request, want 0", allocs)
	}
}

func TestSpanAccumulatesAndConserves(t *testing.T) {
	SetSpansEnabled(true)
	defer SetSpansEnabled(false)
	s := NewSpan()
	if !s.On() {
		t.Fatal("span off while spans enabled")
	}
	s.Add(PhaseQueue, 5)
	s.Add(PhaseTransitionIn, 1.5)
	s.Add(PhaseExec, 10)
	s.Add(PhaseExec, 2)
	s.Add(PhaseTransitionOut, 1.5)
	s.Add(PhaseMarshal, 0) // zero is dropped
	s.Add(PhaseIO, -3)     // negative is dropped
	if got := s.durs[PhaseExec]; got != 12 {
		t.Fatalf("exec = %g, want 12", got)
	}
	var total float64
	for _, d := range s.durs {
		total += d
	}
	if want := 20.0; math.Abs(total-want) > 1e-12 {
		t.Fatalf("total = %g, want %g", total, want)
	}
	m := s.PhaseMap()
	if len(m) != 4 {
		t.Fatalf("phase map has %d entries, want 4: %v", len(m), m)
	}
	var sum float64
	for _, v := range m {
		sum += v
	}
	if math.Abs(sum-total) > 1e-12 {
		t.Fatalf("phase map sum %g != total %g", sum, total)
	}
}

func TestPhaseRecorderPublishes(t *testing.T) {
	SetSpansEnabled(true)
	defer SetSpansEnabled(false)
	reg := NewRegistry()
	rec := NewPhaseRecorder(reg, "serve.phase")
	s := NewSpan()
	s.Add(PhaseQueue, 1000)
	s.Add(PhaseExec, 5000)
	rec.Record(&s)
	snap := reg.Snapshot()
	if got := snap.Histograms["serve.phase.queue"].Count; got != 1 {
		t.Fatalf("serve.phase.queue count = %d, want 1", got)
	}
	if got := snap.Histograms["serve.phase.exec"].Sum; got != 5000 {
		t.Fatalf("serve.phase.exec sum = %g, want 5000", got)
	}
	if got := snap.Histograms["serve.phase.total"].Sum; got != 6000 {
		t.Fatalf("serve.phase.total sum = %g, want 6000", got)
	}
	// A disabled span leaves the recorder untouched.
	SetSpansEnabled(false)
	off := NewSpan()
	off.Add(PhaseExec, 123)
	rec.Record(&off)
	if got := reg.Snapshot().Histograms["serve.phase.exec"].Count; got != 1 {
		t.Fatalf("disabled span was recorded (count %d)", got)
	}
}

func TestFlightRecorderWindows(t *testing.T) {
	fr := NewFlightRecorder(3)
	for i := 1; i <= 5; i++ {
		fr.Record(RequestRecord{
			TraceID: string(rune('a' + i - 1)),
			TotalNs: float64(i * 100),
		})
	}
	snap := fr.Snapshot()
	if snap.Seen != 5 {
		t.Fatalf("seen = %d, want 5", snap.Seen)
	}
	// Most recent first: e, d, c.
	if len(snap.Recent) != 3 || snap.Recent[0].TraceID != "e" || snap.Recent[2].TraceID != "c" {
		t.Fatalf("recent = %+v", snap.Recent)
	}
	// Slowest first: e (500), d (400), c (300).
	if len(snap.Slowest) != 3 || snap.Slowest[0].TotalNs != 500 || snap.Slowest[2].TotalNs != 300 {
		t.Fatalf("slowest = %+v", snap.Slowest)
	}
	// A new slow outlier displaces the tail of the slowest list but only
	// the head of recency.
	fr.Record(RequestRecord{TraceID: "z", TotalNs: 1000})
	snap = fr.Snapshot()
	if snap.Slowest[0].TraceID != "z" || snap.Slowest[1].TotalNs != 500 {
		t.Fatalf("slowest after outlier = %+v", snap.Slowest)
	}
	if snap.Recent[0].TraceID != "z" {
		t.Fatalf("recent after outlier = %+v", snap.Recent)
	}
}

func TestPhaseNamesCoverAllPhases(t *testing.T) {
	seen := map[string]bool{}
	for p := 0; p < NumPhases; p++ {
		name := Phase(p).String()
		if name == "" || name == "unknown" {
			t.Fatalf("phase %d has no name", p)
		}
		if seen[name] {
			t.Fatalf("duplicate phase name %q", name)
		}
		seen[name] = true
	}
}

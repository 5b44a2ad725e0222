package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"
)

// A span is one call into a layer, recorded by the benchmark around the
// layer's public function: tracing inside the program is a later issue.
type span struct {
	Name   string             `json:"name"`
	Start  int64              `json:"start_ns"` // since the tracer's epoch
	End    int64              `json:"end_ns"`
	Parent int32              `json:"parent"` // index into the span list, -1 for a root
	Op     int64              `json:"op"`     // spans of one operation share it
	Attrs  map[string]float64 `json:"attrs,omitempty"`
}

// maxSpansKept bounds the spans held for the JSON file (coldstart makes
// several hundred thousand in a run); the per-name totals below always
// cover every span.
const maxSpansKept = 200_000

// spanTotal accumulates one span name: how often it ran, its total
// duration, and the part of that its direct children covered.
type spanTotal struct {
	Count    int64 `json:"count"`
	TotalNs  int64 `json:"total_ns"`
	ChildNs  int64 `json:"child_ns"`
	rootedNs int64 // total of spans with no parent: the op time
}

func (s spanTotal) selfNs() int64 { return s.TotalNs - s.ChildNs }

// tracer records spans in memory. A nil *tracer is the untraced run:
// begin and end return at once, read no clock and store nothing. on is
// flipped per window so a traced run can alternate traced and untraced
// windows and price the tracing itself.
type tracer struct {
	mu      sync.Mutex
	on      bool
	epoch   time.Time
	spans   []span
	dropped int64
	totals  map[string]*spanTotal
}

// newTracer allocates the whole span buffer at once: a buffer that grew
// during the run would grow the heap with it, the collector would run
// less often in later windows, and traced windows would look cheaper
// than the untraced ones they are compared with.
func newTracer() *tracer {
	return &tracer{epoch: time.Now(), totals: make(map[string]*spanTotal), spans: make([]span, 0, maxSpansKept)}
}

// openSpan is a span in flight, held by the caller until end.
type openSpan struct {
	name   string
	start  time.Time
	parent *openSpan
	op     int64
	idx    int32 // position in tracer.spans, -1 when beyond maxSpansKept
	child  int64 // ns covered by finished direct children
	attrs  map[string]float64
}

func (t *tracer) active() bool { return t != nil && t.on }

// begin opens a span under parent (nil for the root span of an op).
func (t *tracer) begin(name string, parent *openSpan, op int64) *openSpan {
	if !t.active() {
		return nil
	}
	return t.beginAt(name, parent, op, time.Now())
}

// beginAt opens a span that started at the given instant: an open-loop
// request's span starts when it was due, not when it was sent.
func (t *tracer) beginAt(name string, parent *openSpan, op int64, start time.Time) *openSpan {
	if !t.active() {
		return nil
	}
	s := &openSpan{name: name, start: start, parent: parent, op: op, idx: -1}
	t.mu.Lock()
	if len(t.spans) < maxSpansKept {
		pi := int32(-1)
		if parent != nil {
			pi = parent.idx
		}
		s.idx = int32(len(t.spans))
		t.spans = append(t.spans, span{Name: name, Start: int64(start.Sub(t.epoch)), Parent: pi, Op: op})
	} else {
		t.dropped++
	}
	t.mu.Unlock()
	return s
}

// end closes s and returns its duration.
func (t *tracer) end(s *openSpan) time.Duration {
	if s == nil {
		return 0
	}
	now := time.Now()
	d := now.Sub(s.start)
	t.mu.Lock()
	defer t.mu.Unlock()
	tot := t.totals[s.name]
	if tot == nil {
		tot = &spanTotal{}
		t.totals[s.name] = tot
	}
	tot.Count++
	tot.TotalNs += int64(d)
	tot.ChildNs += s.child
	if s.parent != nil {
		s.parent.child += int64(d)
	} else {
		tot.rootedNs += int64(d)
	}
	if s.idx >= 0 {
		t.spans[s.idx].End = int64(now.Sub(t.epoch))
		t.spans[s.idx].Attrs = s.attrs
	}
	return d
}

// write writes the kept spans and the per-name totals as one JSON file.
func (t *tracer) write(dir, workload string) (string, error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", fmt.Errorf("creating span directory: %w", err)
	}
	path := filepath.Join(dir, workload+"-spans.json")
	f, err := os.Create(path)
	if err != nil {
		return "", fmt.Errorf("creating span file: %w", err)
	}
	enc := json.NewEncoder(f)
	err = enc.Encode(map[string]any{
		"workload": workload,
		"dropped":  t.dropped,
		"totals":   t.totals,
		"spans":    t.spans,
	})
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return "", fmt.Errorf("writing %s: %w", path, err)
	}
	return path, nil
}

// total returns the accumulated figures for one span name.
func (t *tracer) total(name string) spanTotal {
	t.mu.Lock()
	defer t.mu.Unlock()
	if tot := t.totals[name]; tot != nil {
		return *tot
	}
	return spanTotal{}
}

// opNs is the summed duration of all root spans: the traced op time
// every share below is taken of.
func (t *tracer) opNs() int64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	var n int64
	for _, tot := range t.totals {
		n += tot.rootedNs
	}
	return n
}

// printBreakdown writes the per-span table: count, total, self time
// (span minus its children) and self time's share of the op time.
func (t *tracer) printBreakdown(w io.Writer) {
	op := t.opNs()
	t.mu.Lock()
	names := make([]string, 0, len(t.totals))
	for n := range t.totals {
		names = append(names, n)
	}
	sort.Slice(names, func(i, j int) bool { return t.totals[names[i]].selfNs() > t.totals[names[j]].selfNs() })
	fmt.Fprintf(w, "  %-24s %10s %12s %12s %8s\n", "span", "count", "total_ms", "self_ms", "self%")
	for _, n := range names {
		tot := t.totals[n]
		share := 0.0
		if op > 0 {
			share = 100 * float64(tot.selfNs()) / float64(op)
		}
		fmt.Fprintf(w, "  %-24s %10d %12.2f %12.2f %7.1f%%\n", n, tot.Count,
			float64(tot.TotalNs)/1e6, float64(tot.selfNs())/1e6, share)
	}
	dropped := t.dropped
	t.mu.Unlock()
	if dropped > 0 {
		fmt.Fprintf(w, "  (%d spans beyond the first %d are in the totals but not in the file)\n", dropped, maxSpansKept)
	}
}

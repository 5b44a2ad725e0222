package telemetry

import (
	"encoding/json"
	"math"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
)

// Counter is a monotonically increasing event count. The zero value is
// usable; obtain shared named instances from a Registry.
type Counter struct{ v atomic.Uint64 }

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n.
func (c *Counter) Add(n uint64) { c.v.Add(n) }

// Load returns the current count.
func (c *Counter) Load() uint64 { return c.v.Load() }

// Reset zeroes the counter.
func (c *Counter) Reset() { c.v.Store(0) }

// Gauge is an instantaneous level (queue depth, worker count).
type Gauge struct{ v atomic.Int64 }

// Set replaces the level.
func (g *Gauge) Set(n int64) { g.v.Store(n) }

// Add moves the level by n (negative to decrease).
func (g *Gauge) Add(n int64) { g.v.Add(n) }

// Load returns the current level.
func (g *Gauge) Load() int64 { return g.v.Load() }

// Reset zeroes the gauge.
func (g *Gauge) Reset() { g.v.Store(0) }

// Histogram is a fixed-bucket distribution: bucket i counts
// observations v <= bounds[i], with one extra overflow bucket above the
// last bound. Buckets are fixed at creation so concurrent observation
// is lock-free and snapshots are deterministic.
type Histogram struct {
	bounds []float64
	counts []atomic.Uint64 // len(bounds)+1; last is overflow
	total  atomic.Uint64
	sum    atomic.Uint64 // float64 bits, CAS-accumulated
}

// NewHistogram returns a histogram over the given ascending upper
// bounds. It panics on empty or unsorted bounds.
func NewHistogram(bounds []float64) *Histogram {
	if len(bounds) == 0 {
		panic("telemetry: histogram needs at least one bucket bound")
	}
	if !sort.Float64sAreSorted(bounds) {
		panic("telemetry: histogram bounds must ascend")
	}
	b := make([]float64, len(bounds))
	copy(b, bounds)
	return &Histogram{bounds: b, counts: make([]atomic.Uint64, len(b)+1)}
}

// ExpBuckets returns n ascending bounds starting at first and growing
// by factor — the usual shape for latency histograms.
func ExpBuckets(first, factor float64, n int) []float64 {
	if first <= 0 || factor <= 1 || n < 1 {
		panic("telemetry: bad ExpBuckets parameters")
	}
	bs := make([]float64, n)
	v := first
	for i := range bs {
		bs[i] = v
		v *= factor
	}
	return bs
}

// Observe records one value.
func (h *Histogram) Observe(v float64) {
	i := sort.SearchFloat64s(h.bounds, v) // first bound >= v; len(bounds) = overflow
	h.counts[i].Add(1)
	h.total.Add(1)
	for {
		old := h.sum.Load()
		nw := math.Float64bits(math.Float64frombits(old) + v)
		if h.sum.CompareAndSwap(old, nw) {
			return
		}
	}
}

// Count returns the number of observations.
func (h *Histogram) Count() uint64 { return h.total.Load() }

// Sum returns the sum of all observed values.
func (h *Histogram) Sum() float64 { return math.Float64frombits(h.sum.Load()) }

// Reset zeroes counts and sum.
func (h *Histogram) Reset() {
	for i := range h.counts {
		h.counts[i].Store(0)
	}
	h.total.Store(0)
	h.sum.Store(0)
}

// Quantile estimates the q-th quantile (0..1) by linear interpolation
// inside the bucket where the target rank falls. Values in the overflow
// bucket report the last bound (the histogram cannot see beyond it).
// Returns 0 for an empty histogram.
func (h *Histogram) Quantile(q float64) float64 {
	total := h.total.Load()
	if total == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	target := q * float64(total)
	cum := 0.0
	for i := range h.counts {
		n := float64(h.counts[i].Load())
		if cum+n >= target && n > 0 {
			if i == len(h.bounds) {
				return h.bounds[len(h.bounds)-1]
			}
			lo := 0.0
			if i > 0 {
				lo = h.bounds[i-1]
			}
			hi := h.bounds[i]
			return lo + (hi-lo)*(target-cum)/n
		}
		cum += n
	}
	return h.bounds[len(h.bounds)-1]
}

// Registry holds named metrics. Lookup is get-or-create and
// concurrency-safe; callers on hot paths should cache the returned
// pointer rather than re-resolving the name.
type Registry struct {
	counters sync.Map // string -> *Counter
	gauges   sync.Map // string -> *Gauge
	hists    sync.Map // string -> *Histogram
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry { return &Registry{} }

// Counter returns the named counter, creating it on first use.
func (r *Registry) Counter(name string) *Counter {
	if v, ok := r.counters.Load(name); ok {
		return v.(*Counter)
	}
	v, _ := r.counters.LoadOrStore(name, &Counter{})
	return v.(*Counter)
}

// Gauge returns the named gauge, creating it on first use.
func (r *Registry) Gauge(name string) *Gauge {
	if v, ok := r.gauges.Load(name); ok {
		return v.(*Gauge)
	}
	v, _ := r.gauges.LoadOrStore(name, &Gauge{})
	return v.(*Gauge)
}

// Histogram returns the named histogram, creating it with the given
// bounds on first use. Later calls return the existing histogram
// regardless of bounds (first registration wins).
func (r *Registry) Histogram(name string, bounds []float64) *Histogram {
	if v, ok := r.hists.Load(name); ok {
		return v.(*Histogram)
	}
	v, _ := r.hists.LoadOrStore(name, NewHistogram(bounds))
	return v.(*Histogram)
}

// Reset zeroes every registered metric (metrics stay registered, so
// cached pointers remain valid).
func (r *Registry) Reset() {
	r.counters.Range(func(_, v any) bool { v.(*Counter).Reset(); return true })
	r.gauges.Range(func(_, v any) bool { v.(*Gauge).Reset(); return true })
	r.hists.Range(func(_, v any) bool { v.(*Histogram).Reset(); return true })
}

// Bucket is one histogram bucket in a snapshot. LE is the bucket's
// upper bound rendered as a string ("+Inf" for the overflow bucket) so
// the JSON stays valid and byte-stable.
type Bucket struct {
	LE    string `json:"le"`
	Count uint64 `json:"count"`
}

// HistogramSnapshot is the exported state of one histogram. Only
// non-empty buckets are listed.
type HistogramSnapshot struct {
	Count   uint64   `json:"count"`
	Sum     float64  `json:"sum"`
	P50     float64  `json:"p50"`
	P95     float64  `json:"p95"`
	P99     float64  `json:"p99"`
	Buckets []Bucket `json:"buckets,omitempty"`
}

// Snapshot is a point-in-time copy of a registry. Maps marshal with
// sorted keys, so JSON output is byte-stable for equal metric values.
type Snapshot struct {
	Counters   map[string]uint64            `json:"counters,omitempty"`
	Gauges     map[string]int64             `json:"gauges,omitempty"`
	Histograms map[string]HistogramSnapshot `json:"histograms,omitempty"`
}

// Snapshot copies the registry's current values.
func (r *Registry) Snapshot() Snapshot {
	s := Snapshot{}
	r.counters.Range(func(k, v any) bool {
		if s.Counters == nil {
			s.Counters = map[string]uint64{}
		}
		s.Counters[k.(string)] = v.(*Counter).Load()
		return true
	})
	r.gauges.Range(func(k, v any) bool {
		if s.Gauges == nil {
			s.Gauges = map[string]int64{}
		}
		s.Gauges[k.(string)] = v.(*Gauge).Load()
		return true
	})
	r.hists.Range(func(k, v any) bool {
		if s.Histograms == nil {
			s.Histograms = map[string]HistogramSnapshot{}
		}
		s.Histograms[k.(string)] = v.(*Histogram).snapshot()
		return true
	})
	return s
}

func (h *Histogram) snapshot() HistogramSnapshot {
	hs := HistogramSnapshot{
		Count: h.Count(),
		Sum:   h.Sum(),
		P50:   h.Quantile(0.50),
		P95:   h.Quantile(0.95),
		P99:   h.Quantile(0.99),
	}
	for i := range h.counts {
		n := h.counts[i].Load()
		if n == 0 {
			continue
		}
		le := "+Inf"
		if i < len(h.bounds) {
			le = strconv.FormatFloat(h.bounds[i], 'g', -1, 64)
		}
		hs.Buckets = append(hs.Buckets, Bucket{LE: le, Count: n})
	}
	return hs
}

// JSON renders the snapshot as indented JSON with a trailing newline.
// encoding/json sorts map keys, so equal values produce equal bytes.
func (s Snapshot) JSON() []byte {
	data, err := json.MarshalIndent(s, "", "  ")
	if err != nil {
		// Snapshot contains only maps of numbers; marshal cannot fail.
		panic(err)
	}
	return append(data, '\n')
}

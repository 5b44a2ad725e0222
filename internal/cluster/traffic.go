package cluster

import (
	"fmt"
	"math"
	"sort"
	"strconv"
	"strings"
	"time"

	"repro/internal/stats"
)

// Shape maps elapsed wall time to an instantaneous arrival rate in
// requests/second. Shapes are deterministic in elapsed time; all
// randomness lives in the ArrivalGen's seeded RNG, so a (shape, seed)
// pair replays the identical trace.
type Shape interface {
	Rate(elapsed time.Duration) float64
}

// ConstShape is a flat arrival rate (the plain open-loop baseline).
type ConstShape struct{ RPS float64 }

// Rate returns the constant rate.
func (c ConstShape) Rate(time.Duration) float64 { return c.RPS }

// DiurnalShape is a sinusoidal day/night cycle compressed to Period:
// rate(t) = Base + Amplitude * (1 + sin(2πt/Period - π/2)) / 2, so the
// trace starts at the trough (Base), peaks at Base+Amplitude half a
// period in, and returns.
type DiurnalShape struct {
	Base      float64       // trough rate, req/s
	Amplitude float64       // peak - trough, req/s
	Period    time.Duration // one full cycle
}

// Rate returns the diurnal rate at elapsed.
func (d DiurnalShape) Rate(elapsed time.Duration) float64 {
	if d.Period <= 0 {
		return d.Base
	}
	phase := 2*math.Pi*float64(elapsed)/float64(d.Period) - math.Pi/2
	return d.Base + d.Amplitude*(1+math.Sin(phase))/2
}

// BurstyShape is a base rate punctuated by bursts: burst start gaps are
// exponential with mean Gap, each burst lasts Len at Peak req/s. The
// burst schedule is drawn once from the seed, so two generators with
// equal config and seed see identical bursts.
type BurstyShape struct {
	Base float64       // rate between bursts, req/s
	Peak float64       // rate inside a burst, req/s
	Len  time.Duration // burst duration
	Gap  time.Duration // mean gap between burst starts

	rng       *stats.RNG
	nextStart time.Duration
	burstEnd  time.Duration
}

// NewBurstyShape seeds a bursty shape's burst schedule.
func NewBurstyShape(base, peak float64, length, gap time.Duration, seed uint64) *BurstyShape {
	b := &BurstyShape{Base: base, Peak: peak, Len: length, Gap: gap,
		rng: stats.NewRNG(seed)}
	b.nextStart = time.Duration(b.rng.Exp(float64(gap)))
	return b
}

// Rate returns the bursty rate at elapsed. Callers must pass
// non-decreasing elapsed values (ArrivalGen does).
func (b *BurstyShape) Rate(elapsed time.Duration) float64 {
	for elapsed >= b.nextStart {
		b.burstEnd = b.nextStart + b.Len
		b.nextStart = b.burstEnd + time.Duration(b.rng.Exp(float64(b.Gap)))
	}
	if elapsed < b.burstEnd {
		return b.Peak
	}
	return b.Base
}

// ArrivalGen turns a Shape into a Poisson arrival sequence: each Next
// call returns the gap to the following arrival, drawn exponentially at
// the shape's current rate. Deterministic per (shape, seed).
type ArrivalGen struct {
	shape   Shape
	rng     *stats.RNG
	elapsed time.Duration
}

// NewArrivalGen returns a generator over shape seeded with seed.
func NewArrivalGen(shape Shape, seed uint64) *ArrivalGen {
	return &ArrivalGen{shape: shape, rng: stats.NewRNG(seed)}
}

// Next advances to the next arrival and returns the inter-arrival gap.
// A rate at or below zero is floored at 0.1 req/s so the trace always
// makes progress.
func (g *ArrivalGen) Next() time.Duration {
	rate := g.shape.Rate(g.elapsed)
	if rate < 0.1 {
		rate = 0.1
	}
	gap := time.Duration(g.rng.Exp(float64(time.Second) / rate))
	g.elapsed += gap
	return gap
}

// Elapsed returns the trace time of the last arrival.
func (g *ArrivalGen) Elapsed() time.Duration { return g.elapsed }

// BoundedPareto samples a heavy-tailed batch size in [min, max] with
// tail index alpha (smaller alpha = heavier tail). This is the
// inverse-CDF of a Pareto truncated at max — most requests are small,
// a few are far larger, the canonical FaaS invocation mix.
func BoundedPareto(rng *stats.RNG, alpha float64, min, max uint64) uint64 {
	if min >= max || alpha <= 0 {
		return min
	}
	l := float64(min)
	h := float64(max)
	u := rng.Float64()
	la := math.Pow(l, alpha)
	ha := math.Pow(h, alpha)
	x := math.Pow(-(u*ha-u*la-ha)/(ha*la), -1/alpha)
	if x < l {
		x = l
	}
	if x > h {
		x = h
	}
	return uint64(x)
}

// Mix is a weighted kernel mix: Pick returns kernel names with
// probability proportional to their weights.
type Mix struct {
	names []string
	cum   []float64
	total float64
}

// NewMix builds a mix from name→weight. Weights must be positive.
func NewMix(weights map[string]float64) (*Mix, error) {
	if len(weights) == 0 {
		return nil, fmt.Errorf("empty kernel mix")
	}
	names := make([]string, 0, len(weights))
	for n := range weights {
		names = append(names, n)
	}
	sort.Strings(names)
	m := &Mix{names: names}
	for _, n := range names {
		w := weights[n]
		if w <= 0 {
			return nil, fmt.Errorf("kernel %q has non-positive weight %g", n, w)
		}
		m.total += w
		m.cum = append(m.cum, m.total)
	}
	return m, nil
}

// ParseMix parses "name:weight,name:weight" (weight defaults to 1 when
// omitted) into a Mix.
func ParseMix(s string) (*Mix, error) {
	weights := make(map[string]float64)
	for _, part := range strings.Split(s, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		name, wstr, ok := strings.Cut(part, ":")
		w := 1.0
		if ok {
			v, err := strconv.ParseFloat(wstr, 64)
			if err != nil {
				return nil, fmt.Errorf("mix entry %q: bad weight: %v", part, err)
			}
			w = v
		}
		weights[name] += w
	}
	return NewMix(weights)
}

// Pick draws one kernel name.
func (m *Mix) Pick(rng *stats.RNG) string {
	u := rng.Float64() * m.total
	i := sort.SearchFloat64s(m.cum, u)
	if i >= len(m.names) {
		i = len(m.names) - 1
	}
	return m.names[i]
}

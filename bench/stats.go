package main

import (
	"math"
	"sort"
)

// The harness keeps its own arithmetic and random numbers instead of
// importing internal/stats: the program under test must not be able to
// move a number by changing the code that summarises it.

// quantile returns the q-quantile (0..1) of xs by linear interpolation
// between order statistics. +Inf entries (failed operations) sort last,
// so enough of them push a percentile to +Inf. xs is not modified.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	if lo == hi || math.IsInf(s[hi], 1) {
		return s[hi]
	}
	return s[lo] + (pos-float64(lo))*(s[hi]-s[lo])
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// iqrShare is the distance between the first and third quartile as a
// share of the median — the spread figure printed beside every metric.
func iqrShare(xs []float64) float64 {
	m := median(xs)
	if len(xs) < 2 || m == 0 || math.IsInf(m, 0) {
		return 0
	}
	return (quantile(xs, 0.75) - quantile(xs, 0.25)) / math.Abs(m)
}

// beyond reports how many samples lie strictly above the q-quantile
// position: a percentile is only reported from a window that leaves at
// least ten.
func beyond(n int, q float64) int {
	return n - 1 - int(math.Ceil(q*float64(n-1)))
}

func geomean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, x := range xs {
		s += math.Log(x)
	}
	return math.Exp(s / float64(len(xs)))
}

// rng is splitmix64: small, seedable, and the same on every platform.
type rng struct{ x uint64 }

func newRNG(seed uint64) *rng { return &rng{x: seed*0x9e3779b97f4a7c15 + 0x1234567} }

func (r *rng) uint64() uint64 {
	r.x += 0x9e3779b97f4a7c15
	z := r.x
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// float64 returns a uniform value in (0, 1].
func (r *rng) float64() float64 { return (float64(r.uint64()>>11) + 1) / (1 << 53) }

func (r *rng) intn(n int) int { return int(r.uint64() % uint64(n)) }

// exp draws an exponential inter-arrival gap with the given mean.
func (r *rng) exp(mean float64) float64 { return -mean * math.Log(r.float64()) }

// perm returns a seeded permutation of 0..n-1 (Fisher–Yates).
func (r *rng) perm(n int) []int {
	p := make([]int, n)
	for i := range p {
		p[i] = i
	}
	for i := n - 1; i > 0; i-- {
		j := r.intn(i + 1)
		p[i], p[j] = p[j], p[i]
	}
	return p
}

// zipf draws ranks 0..n-1 with P(rank k) ∝ 1/(k+1)^s by inverting the
// cumulative weights; n is small (the serve key space), so a linear
// scan is enough.
type zipf struct{ cum []float64 }

func newZipf(n int, s float64) *zipf {
	z := &zipf{cum: make([]float64, n)}
	var sum float64
	for k := 0; k < n; k++ {
		sum += 1 / math.Pow(float64(k+1), s)
		z.cum[k] = sum
	}
	for k := range z.cum {
		z.cum[k] /= sum
	}
	return z
}

func (z *zipf) draw(r *rng) int {
	u := r.float64()
	for k, c := range z.cum {
		if u <= c {
			return k
		}
	}
	return len(z.cum) - 1
}

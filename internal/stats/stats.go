// Package stats provides the small statistical helpers the benchmark
// harness needs: geometric mean, median, percentiles, and a
// deterministic pseudo-random source with the distributions used by the
// FaaS simulation (uniform, exponential, Poisson).
//
// Everything here is deterministic: the RNG is a seeded xoshiro-style
// generator so that simulations and tests are reproducible run to run.
package stats

import (
	"math"
	"sort"
)

// Geomean returns the geometric mean of xs. It panics if any value is
// non-positive, because a geometric mean is undefined there and callers
// (normalized runtimes) should never produce such values.
func Geomean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range xs {
		if x <= 0 {
			panic("stats: Geomean of non-positive value")
		}
		sum += math.Log(x)
	}
	return math.Exp(sum / float64(len(xs)))
}

// Median returns the median of xs without modifying it.
func Median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	cp := make([]float64, len(xs))
	copy(cp, xs)
	sort.Float64s(cp)
	n := len(cp)
	if n%2 == 1 {
		return cp[n/2]
	}
	return (cp[n/2-1] + cp[n/2]) / 2
}

// Percentile returns the q-th percentile (q in [0, 100]) of xs using
// linear interpolation between closest ranks, without modifying xs.
// An empty slice yields 0; q outside [0, 100] clamps to the extremes.
func Percentile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	cp := make([]float64, len(xs))
	copy(cp, xs)
	sort.Float64s(cp)
	if q <= 0 {
		return cp[0]
	}
	if q >= 100 {
		return cp[len(cp)-1]
	}
	pos := q / 100 * float64(len(cp)-1)
	i := int(pos)
	if i+1 >= len(cp) {
		return cp[len(cp)-1]
	}
	frac := pos - float64(i)
	return cp[i] + frac*(cp[i+1]-cp[i])
}

// RNG is a deterministic splitmix64-seeded xoshiro256** generator.
// The zero value is not usable; construct with NewRNG.
type RNG struct {
	s [4]uint64
}

// NewRNG returns a generator seeded from seed via splitmix64, so that
// nearby seeds still produce decorrelated streams.
func NewRNG(seed uint64) *RNG {
	r := &RNG{}
	x := seed
	next := func() uint64 {
		x += 0x9e3779b97f4a7c15
		z := x
		z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
		z = (z ^ (z >> 27)) * 0x94d049bb133111eb
		return z ^ (z >> 31)
	}
	for i := range r.s {
		r.s[i] = next()
	}
	return r
}

func rotl(x uint64, k uint) uint64 { return (x << k) | (x >> (64 - k)) }

// Uint64 returns the next 64 pseudo-random bits.
func (r *RNG) Uint64() uint64 {
	s := &r.s
	result := rotl(s[1]*5, 7) * 9
	t := s[1] << 17
	s[2] ^= s[0]
	s[3] ^= s[1]
	s[1] ^= s[2]
	s[0] ^= s[3]
	s[2] ^= t
	s[3] = rotl(s[3], 45)
	return result
}

// Float64 returns a uniform value in [0, 1).
func (r *RNG) Float64() float64 {
	return float64(r.Uint64()>>11) / (1 << 53)
}

// Intn returns a uniform value in [0, n). It panics when n <= 0.
//
// Draws are rejection-sampled: a raw 64-bit draw below 2^64 mod n would
// over-weight the low residues (the classic modulo bias), so such draws
// are discarded and redrawn. Accepted draws map to exactly the value the
// old biased reduction produced, and the rejection region is at most
// n/2^64 of the space, so existing seeded sequences are unchanged in
// practice while the distribution is exactly uniform.
func (r *RNG) Intn(n int) int {
	if n <= 0 {
		panic("stats: Intn with non-positive n")
	}
	un := uint64(n)
	// 2^64 mod n, computed as (2^64 - n) mod n without overflow.
	thresh := -un % un
	for {
		v := r.Uint64()
		if v >= thresh {
			return int(v % un)
		}
	}
}

// Exp returns an exponentially distributed value with the given mean.
func (r *RNG) Exp(mean float64) float64 {
	u := r.Float64()
	for u == 0 {
		u = r.Float64()
	}
	return -mean * math.Log(u)
}

// Poisson returns a Poisson-distributed value with the given mean,
// using Knuth's method for small means and a normal approximation for
// large ones. The FaaS simulation draws IO delays from this, following
// the paper's "delay drawn from a Poisson distribution at 5ms".
func (r *RNG) Poisson(mean float64) int {
	if mean <= 0 {
		return 0
	}
	if mean > 60 {
		// Normal approximation with continuity correction.
		n := mean + math.Sqrt(mean)*r.normal()
		if n < 0 {
			return 0
		}
		return int(n + 0.5)
	}
	l := math.Exp(-mean)
	k := 0
	p := 1.0
	for {
		p *= r.Float64()
		if p <= l {
			return k
		}
		k++
	}
}

// normal returns a standard normal variate via Box-Muller.
func (r *RNG) normal() float64 {
	u1 := r.Float64()
	for u1 == 0 {
		u1 = r.Float64()
	}
	u2 := r.Float64()
	return math.Sqrt(-2*math.Log(u1)) * math.Cos(2*math.Pi*u2)
}

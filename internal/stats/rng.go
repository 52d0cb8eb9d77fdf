// Package stats provides the small statistical toolkit used throughout the
// Plumber reproduction: deterministic random streams, summary statistics,
// percentiles, and piecewise-linear curves (the machinery behind §A's
// subsampled size estimation and §4.3's bandwidth curves).
//
// Everything is seeded explicitly so experiments are reproducible; no global
// random state is used anywhere in the repository.
package stats

import "math"

// RNG is a small, fast, deterministic random number generator
// (xoshiro256** by Blackman and Vigna). It is not safe for concurrent use;
// derive per-goroutine streams with Split.
type RNG struct {
	s [4]uint64
}

// NewRNG returns a generator seeded from seed via SplitMix64 so that even
// small or similar seeds produce well-distributed state.
func NewRNG(seed uint64) *RNG {
	r := &RNG{}
	sm := seed
	next := func() uint64 {
		sm += 0x9e3779b97f4a7c15
		z := sm
		z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
		z = (z ^ (z >> 27)) * 0x94d049bb133111eb
		return z ^ (z >> 31)
	}
	for i := range r.s {
		r.s[i] = next()
	}
	return r
}

// Split derives an independent stream from the current state. The parent
// stream advances, so successive Splits yield distinct children.
func (r *RNG) Split() *RNG {
	return NewRNG(r.Uint64() ^ 0xd1b54a32d192ed03)
}

func rotl(x uint64, k uint) uint64 { return (x << k) | (x >> (64 - k)) }

// Uint64 returns the next 64 random bits.
func (r *RNG) Uint64() uint64 {
	result := rotl(r.s[1]*5, 7) * 9
	t := r.s[1] << 17
	r.s[2] ^= r.s[0]
	r.s[3] ^= r.s[1]
	r.s[1] ^= r.s[2]
	r.s[0] ^= r.s[3]
	r.s[2] ^= t
	r.s[3] = rotl(r.s[3], 45)
	return result
}

// Float64 returns a uniform value in [0, 1).
func (r *RNG) Float64() float64 {
	return float64(r.Uint64()>>11) / (1 << 53)
}

// Intn returns a uniform integer in [0, n). It panics if n <= 0.
func (r *RNG) Intn(n int) int {
	if n <= 0 {
		panic("stats: Intn with non-positive n")
	}
	return int(r.Uint64() % uint64(n))
}

// Normal returns a normally distributed value with the given mean and
// standard deviation, using the Box-Muller transform.
func (r *RNG) Normal(mean, stddev float64) float64 {
	u1 := r.Float64()
	for u1 == 0 {
		u1 = r.Float64()
	}
	u2 := r.Float64()
	z := math.Sqrt(-2*math.Log(u1)) * math.Cos(2*math.Pi*u2)
	return mean + stddev*z
}

// LogNormal returns exp(Normal(mu, sigma)). It is the workhorse for
// heavy-tailed latency distributions in the fleet simulator.
func (r *RNG) LogNormal(mu, sigma float64) float64 {
	return math.Exp(r.Normal(mu, sigma))
}

// Perm returns a random permutation of [0, n).
func (r *RNG) Perm(n int) []int {
	p := make([]int, n)
	for i := range p {
		p[i] = i
	}
	for i := n - 1; i > 0; i-- {
		j := r.Intn(i + 1)
		p[i], p[j] = p[j], p[i]
	}
	return p
}

// Jitter returns x scaled by a multiplicative noise factor uniform in
// [1-frac, 1+frac]. frac of 0 returns x unchanged.
func (r *RNG) Jitter(x, frac float64) float64 {
	if frac == 0 {
		return x
	}
	return x * (1 + frac*(2*r.Float64()-1))
}

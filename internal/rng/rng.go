// Package rng provides a small deterministic pseudo-random number
// generator used by the simulator. Simulation results must be exactly
// reproducible across runs and Go versions, so the simulator does not use
// math/rand (whose stream is not guaranteed stable across releases).
//
// The generator is xoshiro256** seeded through splitmix64, the reference
// construction recommended by its authors. It is not cryptographic and is
// not meant to be.
package rng

import "math"

// Source is a deterministic random number source. The zero value is not
// valid; construct with New.
type Source struct {
	s [4]uint64
}

// New returns a Source seeded from seed via splitmix64 so that even
// small, similar seeds produce well-distributed states.
func New(seed uint64) *Source {
	r := &Source{}
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
	// xoshiro must not be seeded with an all-zero state.
	if r.s[0]|r.s[1]|r.s[2]|r.s[3] == 0 {
		r.s[0] = 0x9e3779b97f4a7c15
	}
	return r
}

func rotl(x uint64, k uint) uint64 { return (x << k) | (x >> (64 - k)) }

// Uint64 returns the next value of the stream.
func (r *Source) Uint64() uint64 {
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
func (r *Source) Float64() float64 {
	return float64(r.Uint64()>>11) / (1 << 53)
}

// Intn returns a uniform value in [0, n). It panics if n <= 0.
func (r *Source) Intn(n int) int {
	if n <= 0 {
		panic("rng: Intn with non-positive n")
	}
	return int(r.Uint64() % uint64(n))
}

// NormFloat64 returns a normally distributed value with mean 0 and
// standard deviation 1, using the Box-Muller transform.
func (r *Source) NormFloat64() float64 {
	// Reject u1 == 0 so the log argument is strictly positive.
	u1 := r.Float64()
	for u1 == 0 {
		u1 = r.Float64()
	}
	u2 := r.Float64()
	return math.Sqrt(-2*math.Log(u1)) * math.Cos(2*math.Pi*u2)
}

// LogNormal returns a sample of a lognormal distribution whose underlying
// normal has the given mu and sigma. With sigma 0 the result is
// deterministic exp(mu).
func (r *Source) LogNormal(mu, sigma float64) float64 {
	if sigma == 0 {
		return math.Exp(mu)
	}
	return math.Exp(mu + sigma*r.NormFloat64())
}

// LogNormalMean returns a lognormal sample with the requested mean and a
// shape parameter sigma (the standard deviation of the underlying
// normal), with mu back-solved by LogNormalMu.
func (r *Source) LogNormalMean(mean, sigma float64) float64 {
	if mean <= 0 {
		return 0
	}
	if sigma == 0 {
		return mean // exp(log(mean)) would round; the identity is exact
	}
	return r.LogNormal(LogNormalMu(mean, sigma), sigma)
}

// LogNormalMu returns the location mu for which exp(N(mu, sigma²)) has
// the requested (positive) mean: that mean is exp(mu + sigma²/2). Callers
// drawing many samples of one distribution compute it once and sample
// with LogNormal.
func LogNormalMu(mean, sigma float64) float64 {
	return math.Log(mean) - sigma*sigma/2
}

// Split returns a new independent Source derived from this one. It is
// used to give each simulated entity (SM, kernel, thread block) its own
// stream so that the behaviour of one entity does not perturb another's
// randomness when event interleaving changes.
func (r *Source) Split() *Source {
	return New(r.Uint64() ^ 0xa5a5a5a55a5a5a5a)
}

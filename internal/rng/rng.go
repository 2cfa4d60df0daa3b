// Package rng provides a small, deterministic pseudo-random number
// generator used by every stochastic component of beesim.
//
// Reproducibility is a hard requirement for the paper's experiments: the
// Gaussian client-loss model of Figure 8c produces visible spikes whose
// position must be stable across runs for the regression tests to hold.
// The implementation is xoshiro256** seeded through SplitMix64, the
// combination recommended by Blackman & Vigna; it has a 2^256-1 period and
// passes BigCrush. We deliberately avoid math/rand so the stream is fixed
// independent of the Go release.
package rng

import "math"

// Source is a deterministic random stream.
//
// The zero value is not usable; construct with New. A Source is not safe
// for concurrent use; give each goroutine its own Source (use Split).
type Source struct {
	s [4]uint64
	// spare Gaussian value from the last Box-Muller pair, if any.
	gauss    float64
	hasGauss bool
}

// New returns a Source seeded from seed via SplitMix64, so that nearby
// seeds still produce well-separated streams.
func New(seed uint64) *Source {
	r := Seeded(seed)
	return &r
}

// Seeded returns a Source value seeded exactly like New. Use it when
// the stream can live on the caller's stack or inside a struct — a
// per-task stream in a tight fan-out loop, for instance — instead of
// forcing a heap allocation per stream.
func Seeded(seed uint64) Source {
	var r Source
	sm := seed
	for i := range r.s {
		sm += 0x9e3779b97f4a7c15
		z := sm
		z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
		z = (z ^ (z >> 27)) * 0x94d049bb133111eb
		r.s[i] = z ^ (z >> 31)
	}
	return r
}

// split derives an independent child stream. The parent advances by one
// draw; the child is seeded from that draw.
func (r *Source) split() *Source { return New(r.Uint64()) }

// StreamSeed derives the seed of an independent child stream from a
// base seed and a stable stream identity (a sweep point's client
// count, a replica index, a batch number). Unlike split, the
// derivation is a pure function of (seed, stream): no generator state
// advances, so tasks fanned across a worker pool can each build their
// own stream without observing scheduling order. The mixing is one
// SplitMix64 finalization over the golden-ratio-weighted pair, the
// same separation argument New uses for nearby seeds.
func StreamSeed(seed, stream uint64) uint64 {
	z := seed + 0x9e3779b97f4a7c15*(stream+1)
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// Stream returns a Source for the child stream of seed identified by
// stream. Stream(s, a) and Stream(s, b) are well separated for a != b,
// and the result depends only on the two arguments — the per-task RNG
// constructor for deterministic parallel fan-out.
func Stream(seed, stream uint64) *Source { return New(StreamSeed(seed, stream)) }

func rotl(x uint64, k uint) uint64 { return (x << k) | (x >> (64 - k)) }

// Uint64 returns the next 64 uniformly random bits.
func (r *Source) Uint64() uint64 {
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

// Float64 returns a uniform variate in [0, 1) with 53 random bits.
func (r *Source) Float64() float64 {
	return float64(r.Uint64()>>11) / (1 << 53)
}

// Intn returns a uniform integer in [0, n). It panics if n <= 0.
func (r *Source) Intn(n int) int {
	if n <= 0 {
		panic("rng: Intn called with non-positive n")
	}
	// Lemire's nearly-divisionless bounded sampling is overkill here;
	// simple rejection keeps the stream easy to reason about.
	max := uint64(n)
	limit := (^uint64(0) / max) * max
	for {
		v := r.Uint64()
		if v < limit {
			return int(v % max)
		}
	}
}

// Range returns a uniform variate in [lo, hi).
func (r *Source) Range(lo, hi float64) float64 {
	return lo + (hi-lo)*r.Float64()
}

// Norm returns a standard Gaussian variate (mean 0, stddev 1) using the
// Box-Muller transform, caching the second value of each generated pair.
func (r *Source) Norm() float64 {
	if r.hasGauss {
		r.hasGauss = false
		return r.gauss
	}
	var u float64
	for u == 0 { // avoid log(0)
		u = r.Float64()
	}
	v := r.Float64()
	rad := math.Sqrt(-2 * math.Log(u))
	r.gauss = rad * math.Sin(2*math.Pi*v)
	r.hasGauss = true
	return rad * math.Cos(2*math.Pi*v)
}

// Gaussian returns a Gaussian variate with the given mean and stddev.
func (r *Source) Gaussian(mean, stddev float64) float64 {
	return mean + stddev*r.Norm()
}

// LogNormal returns a lognormal variate where the underlying normal has
// parameters mu and sigma. Used by the network throughput model.
func (r *Source) LogNormal(mu, sigma float64) float64 {
	return math.Exp(r.Gaussian(mu, sigma))
}

// Perm returns a random permutation of [0, n).
func (r *Source) Perm(n int) []int {
	p := make([]int, n)
	for i := range p {
		j := r.Intn(i + 1)
		p[i] = p[j]
		p[j] = i
	}
	return p
}

// Shuffle permutes the order of n elements using swap, Fisher-Yates style.
func (r *Source) Shuffle(n int, swap func(i, j int)) {
	for i := n - 1; i > 0; i-- {
		swap(i, r.Intn(i+1))
	}
}

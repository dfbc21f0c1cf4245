// Package rng provides a small, deterministic pseudo-random number
// generator used throughout the DEEP reproduction.
//
// All stochastic behaviour in the simulator (link error injection,
// workload skew, arrival processes) flows through this package with an
// explicit seed, so every experiment is bit-reproducible. The generator
// is xoshiro256**, seeded through splitmix64 as recommended by its
// authors; it is not cryptographically secure and must not be used for
// anything security sensitive.
package rng

import "math"

// Source is a deterministic xoshiro256** generator. The zero value is
// not usable; construct with New. Source is not safe for concurrent
// use; give each simulated entity its own Source (see Split).
type Source struct {
	s [4]uint64
}

// splitmix64 advances the given state and returns the next output.
// It is used only to expand seeds into full generator state.
func splitmix64(x *uint64) uint64 {
	*x += 0x9e3779b97f4a7c15
	z := *x
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// New returns a Source seeded from seed. Two Sources built from the
// same seed produce identical streams.
func New(seed uint64) *Source {
	s := &Source{}
	x := seed
	for i := range s.s {
		s.s[i] = splitmix64(&x)
	}
	// xoshiro256** must not be seeded with all-zero state; splitmix64
	// of any seed cannot produce four zero words, but guard anyway.
	if s.s[0]|s.s[1]|s.s[2]|s.s[3] == 0 {
		s.s[0] = 0x9e3779b97f4a7c15
	}
	return s
}

func rotl(x uint64, k uint) uint64 { return x<<k | x>>(64-k) }

// Uint64 returns the next 64 uniformly distributed bits.
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

// Split derives an independent child generator from r. The child's
// stream is decorrelated from the parent's continuation, which makes it
// safe to hand one Source per goroutine or per simulated node.
func (r *Source) Split() *Source {
	return New(r.Uint64() ^ 0xd2b74407b1ce6e93)
}

// Intn returns a uniform int in [0, n). It panics if n <= 0.
func (r *Source) Intn(n int) int {
	if n <= 0 {
		panic("rng: Intn with non-positive n")
	}
	// Lemire's multiply-shift rejection method for unbiased bounded ints.
	bound := uint64(n)
	for {
		v := r.Uint64()
		hi, lo := mul128(v, bound)
		if lo >= bound || lo >= -bound%bound {
			return int(hi)
		}
	}
}

// mul128 returns the 128-bit product of a and b as (hi, lo).
func mul128(a, b uint64) (hi, lo uint64) {
	const mask = 0xffffffff
	aLo, aHi := a&mask, a>>32
	bLo, bHi := b&mask, b>>32
	t := aLo * bLo
	lo = t & mask
	c := t >> 32
	t = aHi*bLo + c
	m := t & mask
	c = t >> 32
	t = aLo*bHi + m
	lo |= (t & mask) << 32
	hi = aHi*bHi + c + (t >> 32)
	return hi, lo
}

// Float64 returns a uniform float64 in [0, 1).
func (r *Source) Float64() float64 {
	return float64(r.Uint64()>>11) * (1.0 / (1 << 53))
}

// Bool returns true with probability p.
func (r *Source) Bool(p float64) bool {
	if p <= 0 {
		return false
	}
	if p >= 1 {
		return true
	}
	return r.Float64() < p
}

// Exp returns an exponentially distributed value with the given mean.
func (r *Source) Exp(mean float64) float64 {
	u := r.Float64()
	for u == 0 {
		u = r.Float64()
	}
	return -mean * math.Log(u)
}

// Zipf samples from a Zipf distribution over [0, n) with exponent s >= 0
// using inverse-CDF over precomputed weights. For repeated sampling
// build a ZipfSampler instead.
type ZipfSampler struct {
	cdf []float64
	src *Source
}

// NewZipf builds a sampler over ranks [0, n) with exponent s. Rank 0 is
// the most popular. It panics if n <= 0 or s < 0.
func NewZipf(src *Source, n int, s float64) *ZipfSampler {
	if n <= 0 {
		panic("rng: NewZipf with non-positive n")
	}
	if s < 0 {
		panic("rng: NewZipf with negative exponent")
	}
	cdf := make([]float64, n)
	sum := 0.0
	for i := 0; i < n; i++ {
		sum += 1 / math.Pow(float64(i+1), s)
		cdf[i] = sum
	}
	for i := range cdf {
		cdf[i] /= sum
	}
	return &ZipfSampler{cdf: cdf, src: src}
}

// Next returns the next Zipf-distributed rank.
func (z *ZipfSampler) Next() int {
	u := z.src.Float64()
	lo, hi := 0, len(z.cdf)-1
	for lo < hi {
		mid := (lo + hi) / 2
		if z.cdf[mid] < u {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

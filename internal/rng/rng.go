// Package rng provides seeded, splittable pseudo-random streams and the
// distributions used by the workload generator and the contention simulator.
//
// Every experiment in this repository must be reproducible from a single
// seed, and independent subsystems (per-machine workloads, per-day spike
// processes, reboot processes, ...) must draw from statistically independent
// streams so that changing how many values one subsystem consumes does not
// perturb another. Stream implements that with a SplitMix64-style state that
// can be forked by label.
package rng

import (
	"hash/fnv"
	"math"
)

// Stream is a deterministic pseudo-random stream. The zero value is not
// valid; use New or Split.
type Stream struct {
	state uint64
}

// New returns a stream seeded with seed.
func New(seed uint64) *Stream {
	s := &Stream{state: seed}
	// Warm up so that small, similar seeds diverge immediately.
	s.next()
	s.next()
	return s
}

// Split forks an independent child stream identified by label. Splitting is
// stable: the same parent seed and label always yield the same child, and the
// parent's own sequence is not consumed.
func (s *Stream) Split(label string) *Stream {
	h := fnv.New64a()
	_, _ = h.Write([]byte(label))
	return New(mix(s.state ^ h.Sum64()))
}

// SplitN forks an independent child stream identified by label and an index,
// for families of streams such as per-day or per-machine processes.
func (s *Stream) SplitN(label string, n int) *Stream {
	h := fnv.New64a()
	_, _ = h.Write([]byte(label))
	return New(mix(s.state ^ h.Sum64() ^ (uint64(n)+1)*0x9E3779B97F4A7C15))
}

// next advances the SplitMix64 state and returns 64 random bits.
func (s *Stream) next() uint64 {
	s.state += 0x9E3779B97F4A7C15
	return mix(s.state)
}

func mix(z uint64) uint64 {
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return z ^ (z >> 31)
}

// Uint64 returns 64 uniformly distributed bits.
func (s *Stream) Uint64() uint64 { return s.next() }

// Float64 returns a uniform value in [0, 1).
func (s *Stream) Float64() float64 {
	return float64(s.next()>>11) / (1 << 53)
}

// Intn returns a uniform integer in [0, n). It panics if n <= 0.
func (s *Stream) Intn(n int) int {
	if n <= 0 {
		panic("rng: Intn with non-positive n")
	}
	return int(s.next() % uint64(n))
}

// Uniform returns a uniform value in [lo, hi).
func (s *Stream) Uniform(lo, hi float64) float64 {
	return lo + (hi-lo)*s.Float64()
}

// UniformDur returns a uniform value in [lo, hi) of whole units.
func (s *Stream) UniformInt(lo, hi int) int {
	if hi <= lo {
		return lo
	}
	return lo + s.Intn(hi-lo)
}

// Bool returns true with probability p.
func (s *Stream) Bool(p float64) bool { return s.Float64() < p }

// Exp returns an exponentially distributed value with the given mean.
func (s *Stream) Exp(mean float64) float64 {
	u := s.Float64()
	for u == 0 {
		u = s.Float64()
	}
	return -mean * math.Log(u)
}

// Normal returns a normally distributed value with the given mean and
// standard deviation, via the Box–Muller transform.
func (s *Stream) Normal(mean, stddev float64) float64 {
	u1 := s.Float64()
	for u1 == 0 {
		u1 = s.Float64()
	}
	u2 := s.Float64()
	z := math.Sqrt(-2*math.Log(u1)) * math.Cos(2*math.Pi*u2)
	return mean + stddev*z
}

// LogNormal returns exp(Normal(mu, sigma)).
func (s *Stream) LogNormal(mu, sigma float64) float64 {
	return math.Exp(s.Normal(mu, sigma))
}

// Pareto returns a Pareto(xm, alpha) variate: heavy-tailed durations such as
// user think times and session lengths.
func (s *Stream) Pareto(xm, alpha float64) float64 {
	u := s.Float64()
	for u == 0 {
		u = s.Float64()
	}
	return xm / math.Pow(u, 1/alpha)
}

// Categorical draws an index with probability proportional to weights[i].
// It panics if weights is empty or sums to a non-positive value.
func (s *Stream) Categorical(weights []float64) int {
	total := 0.0
	for _, w := range weights {
		if w < 0 {
			panic("rng: negative categorical weight")
		}
		total += w
	}
	if len(weights) == 0 || total <= 0 {
		panic("rng: invalid categorical weights")
	}
	x := s.Float64() * total
	for i, w := range weights {
		x -= w
		if x < 0 {
			return i
		}
	}
	return len(weights) - 1
}

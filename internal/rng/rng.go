// Package rng provides deterministic, seedable random-number utilities
// shared by every stochastic component in the repository: the task-graph
// generator, the genetic algorithm, and the run-time Monte-Carlo
// simulations.
//
// Each component receives its own *Source derived from a root seed via
// Split, so that changing the amount of randomness consumed by one
// component never perturbs another. All distributions needed by the
// paper's evaluation are implemented here: Normal, truncated Normal,
// bivariate Normal (QoS-specification variation), Exponential
// (inter-arrival of discrete QoS events, mean 100 application cycles)
// and Weibull (lifetime / MTTF sampling with scale parameter eta).
package rng

import (
	"math"
	"math/rand"
)

// Source is a deterministic random source with distribution helpers.
// It wraps math/rand.Rand so the zero-allocation core generator is the
// standard library's, while the derived distributions live here.
type Source struct {
	r *rand.Rand
}

// New returns a Source seeded with seed. Equal seeds yield identical
// streams on every platform.
func New(seed int64) *Source {
	return &Source{r: rand.New(rand.NewSource(mix(seed)))}
}

// mix applies a splitmix64-style finalizer so that small consecutive
// seeds (0, 1, 2, ...) produce uncorrelated streams.
func mix(seed int64) int64 {
	z := uint64(seed) + 0x9e3779b97f4a7c15
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	z ^= z >> 31
	// Keep the sign bit clear; rand.NewSource ignores it anyway but a
	// non-negative value prints more readably in debug output.
	return int64(z &^ (1 << 63))
}

// Split derives an independent child source. The child's stream is a
// pure function of the parent seed and the stream label, not of how
// much randomness the parent has already consumed.
func (s *Source) Split(label int64) *Source {
	// Draw a fresh 63-bit seed and fold in the label so that repeated
	// Split calls with distinct labels diverge even if the parent is
	// freshly created.
	return New(int64(s.r.Uint64()>>1) ^ mix(label))
}

// Float64 returns a uniform variate in [0,1).
func (s *Source) Float64() float64 { return s.r.Float64() }

// Int63 returns a uniform non-negative 63-bit integer — the seed shape
// consumers hand to further deterministic components (e.g. deriving GA
// seeds from a fingerprinted observation stream).
func (s *Source) Int63() int64 { return s.r.Int63() }

// Intn returns a uniform int in [0,n). It panics if n <= 0, matching
// math/rand semantics.
func (s *Source) Intn(n int) int { return s.r.Intn(n) }

// Perm returns a random permutation of [0,n).
func (s *Source) Perm(n int) []int { return s.r.Perm(n) }

// Bool returns true with probability p.
func (s *Source) Bool(p float64) bool { return s.r.Float64() < p }

// Range returns a uniform variate in [lo,hi). It panics if hi < lo.
func (s *Source) Range(lo, hi float64) float64 {
	if hi < lo {
		panic("rng: Range with hi < lo")
	}
	return lo + (hi-lo)*s.r.Float64()
}

// IntRange returns a uniform int in [lo,hi] inclusive.
func (s *Source) IntRange(lo, hi int) int {
	if hi < lo {
		panic("rng: IntRange with hi < lo")
	}
	return lo + s.r.Intn(hi-lo+1)
}

// Normal returns a Gaussian variate with the given mean and standard
// deviation.
func (s *Source) Normal(mean, stddev float64) float64 {
	return mean + stddev*s.r.NormFloat64()
}

// TruncNormal returns a Gaussian variate clamped by rejection to
// [lo,hi]. If the interval is narrow relative to stddev the sampler
// falls back to clamping after a bounded number of rejections so it
// can never spin forever.
func (s *Source) TruncNormal(mean, stddev, lo, hi float64) float64 {
	if hi < lo {
		panic("rng: TruncNormal with hi < lo")
	}
	for i := 0; i < 64; i++ {
		v := s.Normal(mean, stddev)
		if v >= lo && v <= hi {
			return v
		}
	}
	return math.Min(hi, math.Max(lo, mean))
}

// Exponential returns an exponential variate with the given mean
// (i.e. rate 1/mean). The paper uses this for the time between
// discrete run-time events, with a mean of 100 application cycles.
func (s *Source) Exponential(mean float64) float64 {
	if mean <= 0 {
		panic("rng: Exponential with non-positive mean")
	}
	return s.r.ExpFloat64() * mean
}

// Weibull returns a Weibull variate with scale eta and shape beta.
// It is used for lifetime sampling: the CLR model's scale parameter
// eta(t,i) is a stress indicator, and beta is the PE's aging profile.
func (s *Source) Weibull(eta, beta float64) float64 {
	if eta <= 0 || beta <= 0 {
		panic("rng: Weibull with non-positive parameter")
	}
	u := s.r.Float64()
	// Guard against log(0).
	for u == 0 {
		u = s.r.Float64()
	}
	return eta * math.Pow(-math.Log(u), 1/beta)
}

// BivariateNormal returns a pair (x,y) from a bivariate Gaussian with
// means (mx,my), standard deviations (sx,sy) and correlation rho in
// (-1,1). The paper emulates changes in the two-dimensional QoS
// specification (makespan bound, reliability bound) with this
// distribution.
func (s *Source) BivariateNormal(mx, my, sx, sy, rho float64) (float64, float64) {
	if rho <= -1 || rho >= 1 {
		panic("rng: BivariateNormal with |rho| >= 1")
	}
	z1 := s.r.NormFloat64()
	z2 := s.r.NormFloat64()
	x := mx + sx*z1
	y := my + sy*(rho*z1+math.Sqrt(1-rho*rho)*z2)
	return x, y
}

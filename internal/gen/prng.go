package gen

import "fmt"

// Randomness in this package.
//
// Every generator that takes a seed routes its randomness through RNG, a
// SplitMix64 sequence (Steele, Lea, Flood: "Fast Splittable Pseudorandom
// Number Generators", OOPSLA 2014). The choice is deliberate:
//
//   - It is specified as pure 64-bit integer arithmetic, so the stream for
//     a given seed is identical on every platform, architecture, and Go
//     release. math/rand's seeded streams are stable under the Go 1
//     compatibility promise, but SplitMix64 removes even that dependency —
//     the differential-testing harness (internal/verify) stores bare seeds
//     as its fuzz corpus and regression artifacts, and those must replay
//     the exact same graph pair forever.
//   - It passes BigCrush, is trivially seedable from any 64-bit value
//     (including 0), and needs 8 bytes of state.
//
// Derived draws are also fully specified here: Intn reduces by modulo
// (the bias for the tiny ranges this package draws is irrelevant and the
// determinism is not), Float64 takes the top 53 bits, and Perm is a
// forward Fisher–Yates fed by Intn.
//
// Helpers that accept externally-owned randomness (DFSQuery, QuerySet,
// the graph transforms) take the Source interface below instead of a
// concrete type, so callers may pass either an *RNG or a *math/rand.Rand.

// Source is the minimal randomness surface gen consumes. Both *RNG and
// *math/rand.Rand satisfy it.
type Source interface {
	// Intn returns a value in [0, n); n must be > 0.
	Intn(n int) int
	// Perm returns a pseudo-random permutation of [0, n).
	Perm(n int) []int
	// Float64 returns a value in [0, 1).
	Float64() float64
}

// RNG is a SplitMix64 pseudo-random generator. The zero value is a valid
// generator seeded with 0; NewRNG names the seed explicitly.
type RNG struct {
	state uint64
}

// NewRNG returns an RNG seeded with seed. Equal seeds yield identical
// streams on every platform and Go version.
func NewRNG(seed int64) *RNG { return &RNG{state: uint64(seed)} }

// Uint64 returns the next 64 pseudo-random bits.
func (r *RNG) Uint64() uint64 {
	r.state += 0x9e3779b97f4a7c15
	z := r.state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// Intn returns a value in [0, n). Panics if n <= 0.
func (r *RNG) Intn(n int) int {
	if n <= 0 {
		panic(fmt.Sprintf("gen: Intn(%d)", n))
	}
	return int(r.Uint64() % uint64(n))
}

// Float64 returns a value in [0, 1) built from the top 53 bits.
func (r *RNG) Float64() float64 {
	return float64(r.Uint64()>>11) / (1 << 53)
}

// Perm returns a pseudo-random permutation of [0, n).
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

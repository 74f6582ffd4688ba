package mem

import "math"

// RNG is a small, fast, deterministic pseudo-random number generator
// (xorshift64*). Every stochastic decision in the simulator and the
// workload generators draws from a seeded RNG so that runs are exactly
// reproducible; math/rand is avoided to keep the sequence stable across
// Go releases.
type RNG struct {
	state uint64
}

// NewRNG returns a generator seeded with seed. A zero seed is remapped to
// a fixed non-zero constant because xorshift has a zero fixed point.
func NewRNG(seed uint64) *RNG {
	if seed == 0 {
		seed = 0x9e3779b97f4a7c15
	}
	return &RNG{state: seed}
}

// Step is the by-value xorshift64* draw: it advances state s by one
// draw and returns the new state and the draw's 64 output bits. Every
// RNG method draws through it. A hot loop that makes several draws per
// iteration keeps the state in a local variable and threads it through
// Step, StepHit and StepIntn, instead of loading and storing it through
// an *RNG around each draw.
func Step(s uint64) (next, out uint64) {
	s ^= s >> 12
	s ^= s << 25
	s ^= s >> 27
	return s, s * 0x2545f4914f6cdd1d
}

// StepIntn is Intn by value: it draws from state s and returns the new
// state and a value in [0, n). It panics if n <= 0.
func StepIntn(s uint64, n int) (uint64, int) {
	if n <= 0 {
		panic("mem: RNG.Intn with non-positive n")
	}
	s, x := Step(s)
	if n&(n-1) == 0 {
		// Power-of-two n: masking selects exactly the same value as the
		// modulo below (x % 2^k == x & (2^k-1)) without the hardware
		// divide. Intn(2) and Intn(LinesPerRegion) dominate the
		// generator hot paths, so this branch is the common case.
		return s, int(x & uint64(n-1))
	}
	return s, int(x % uint64(n))
}

// Chance is a probability pre-scaled to the 53-bit draw that Float64
// divides by 2^53: a draw hits when its top 53 bits, as an integer, are
// below the chance. It turns the float compare of Bool into an integer
// compare whose operand is computed once, outside the hot loop.
type Chance uint64

// ChanceOf scales probability p to a Chance: ceil(p·2^53), clamped to
// [0, 2^53], with NaN and negative p giving 0. For an integer k below
// 2^53, k/2^53 < p holds exactly when k < ceil(p·2^53) (scaling by a
// power of two is exact), so StepHit(s, ChanceOf(p)) decides exactly
// as Float64() < p would, and ChanceOf(p) != 0 exactly when p > 0.
func ChanceOf(p float64) Chance {
	switch {
	case !(p > 0): // NaN included
		return 0
	case p >= 1:
		return 1 << 53
	}
	return Chance(math.Ceil(p * (1 << 53)))
}

// StepHit is Hit by value: it draws from state s and returns the new
// state and whether the draw hit chance c.
func StepHit(s uint64, c Chance) (uint64, bool) {
	s, x := Step(s)
	return s, x>>11 < uint64(c)
}

// Uint64 returns the next 64 pseudo-random bits.
func (r *RNG) Uint64() (x uint64) {
	r.state, x = Step(r.state)
	return x
}

// Intn returns a pseudo-random int in [0, n). It panics if n <= 0.
func (r *RNG) Intn(n int) (v int) {
	r.state, v = StepIntn(r.state, n)
	return v
}

// Float64 returns a pseudo-random float64 in [0, 1).
func (r *RNG) Float64() float64 {
	return float64(r.Uint64()>>11) / (1 << 53)
}

// Hit returns true with chance c.
func (r *RNG) Hit(c Chance) (hit bool) {
	r.state, hit = StepHit(r.state, c)
	return hit
}

// Bool returns true with probability p: it decides as Float64() < p
// would. Callers that draw with the same p repeatedly precompute
// ChanceOf(p) and call Hit.
func (r *RNG) Bool(p float64) bool { return r.Hit(ChanceOf(p)) }

// Fork derives an independent generator whose stream is decorrelated from
// the parent by mixing in the label.
func (r *RNG) Fork(label uint64) *RNG {
	return NewRNG(r.Uint64() ^ (label * 0xbf58476d1ce4e5b9) ^ 0x94d049bb133111eb)
}

// State exports the generator's position in its sequence. Together with
// SetState it lets warm-state snapshots capture and resume the exact
// random sequence, which snapshot exactness depends on.
func (r *RNG) State() uint64 { return r.state }

// SetState rewinds (or fast-forwards) the generator to a position
// previously exported by State.
func (r *RNG) SetState(s uint64) { r.state = s }

// Package rng provides small, fast, deterministic pseudo-random number
// generators for the simulator.
//
// Reproducibility is a hard requirement for the experiment harness: every
// experiment is identified by (seed, parameters) and must produce the same
// permutations on every run, on every platform. The math/rand global source
// is deliberately avoided; each simulation owns its generator.
//
// Two generators are provided:
//
//   - SplitMix64: a tiny, statistically solid generator used mostly to seed
//     other generators and in tests.
//   - PCG64 (PCG XSL RR 128/64): the default generator for workloads. It has
//     a 128-bit state, passes stringent statistical test batteries, and
//     supports O(1) jump-ahead via independent streams.
package rng

import "math/bits"

// Source is the minimal interface the rest of the simulator relies on.
// It deliberately mirrors the shape of math/rand's Source64 so generators
// are easy to swap.
type Source interface {
	// Uint64 returns the next 64 uniformly distributed bits.
	Uint64() uint64
}

// SplitMix64 is Steele, Lea & Flood's splitmix64 generator. The zero value
// is a valid generator seeded with 0.
type SplitMix64 struct {
	state uint64
}

// NewSplitMix64 returns a SplitMix64 seeded with seed.
func NewSplitMix64(seed uint64) *SplitMix64 {
	return &SplitMix64{state: seed}
}

// Uint64 returns the next value of the sequence.
func (s *SplitMix64) Uint64() uint64 {
	s.state += 0x9e3779b97f4a7c15
	z := s.state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// PCG64 implements the PCG XSL RR 128/64 generator (O'Neill 2014): a
// 128-bit linear congruential core with an xor-shift/rotate output
// permutation.
type PCG64 struct {
	hi, lo uint64 // 128-bit LCG state
	incHi  uint64 // stream increment (must be odd in the low word)
	incLo  uint64
}

// multiplier of the 128-bit LCG, from the PCG reference implementation.
const (
	pcgMulHi = 2549297995355413924
	pcgMulLo = 4865540595714422341
)

// New returns a PCG64 seeded from seed using SplitMix64 for state expansion.
// Distinct seeds give independent-looking streams.
func New(seed uint64) *PCG64 {
	sm := NewSplitMix64(seed)
	p := &PCG64{}
	p.incHi = sm.Uint64()
	p.incLo = sm.Uint64() | 1 // increment must be odd
	p.hi = sm.Uint64()
	p.lo = sm.Uint64()
	p.step()
	return p
}

// NewStream returns a PCG64 with an explicit (seed, stream) pair. Generators
// with the same seed but different streams produce uncorrelated sequences,
// which the parallel harness uses to give each trial its own source.
func NewStream(seed, stream uint64) *PCG64 {
	p := &PCG64{}
	p.SeedStream(seed, stream)
	return p
}

// SeedStream resets p in place to the generator NewStream(seed, stream)
// returns, so a caller that owns a PCG64 can start each trial's stream
// without a heap allocation.
func (p *PCG64) SeedStream(seed, stream uint64) {
	sm := NewSplitMix64(seed)
	st := NewSplitMix64(stream ^ 0xda3e39cb94b95bdb)
	p.incHi = st.Uint64()
	p.incLo = st.Uint64() | 1
	p.hi = sm.Uint64()
	p.lo = sm.Uint64()
	p.step()
}

// pcgStep returns the 128-bit LCG state after (hi, lo):
// (hi,lo)*mul + inc over 128 bits.
func pcgStep(hi, lo, incHi, incLo uint64) (uint64, uint64) {
	carryHi, carryLo := bits.Mul64(lo, pcgMulLo)
	carryHi += hi*pcgMulLo + lo*pcgMulHi
	lo, c := bits.Add64(carryLo, incLo, 0)
	hi, _ = bits.Add64(carryHi, incHi, c)
	return hi, lo
}

// pcgOutput is the output permutation: xor-fold the state, then rotate
// by its top bits.
func pcgOutput(hi, lo uint64) uint64 {
	return bits.RotateLeft64(hi^lo, -int(hi>>58))
}

// step advances the 128-bit LCG state.
func (p *PCG64) step() {
	p.hi, p.lo = pcgStep(p.hi, p.lo, p.incHi, p.incLo)
}

// Uint64 returns the next value of the sequence.
func (p *PCG64) Uint64() uint64 {
	out := pcgOutput(p.hi, p.lo)
	p.step()
	return out
}

// ShuffleBytes permutes b exactly as Shuffle(p, ·) would permute an []int
// of the same length: it draws the same values, Lemire's rejection
// resamples included, and leaves p in the same state. The 128-bit state
// stays in locals for the whole loop instead of going through the Source
// interface once per draw.
func (p *PCG64) ShuffleBytes(b []byte) {
	hi, lo, incHi, incLo := p.hi, p.lo, p.incHi, p.incLo
	for i := len(b) - 1; i > 0; i-- {
		un := uint64(i + 1)
		j, frac := bits.Mul64(pcgOutput(hi, lo), un)
		hi, lo = pcgStep(hi, lo, incHi, incLo)
		if frac < un {
			// Rejection zone: resample as Intn does.
			thresh := (-un) % un
			for frac < thresh {
				j, frac = bits.Mul64(pcgOutput(hi, lo), un)
				hi, lo = pcgStep(hi, lo, incHi, incLo)
			}
		}
		b[i], b[j] = b[j], b[i]
	}
	p.hi, p.lo = hi, lo
}

// Intn returns a uniform int in [0, n). It panics if n <= 0. Lemire's
// nearly-divisionless method keeps the fast path multiplication-only.
func Intn(s Source, n int) int {
	if n <= 0 {
		panic("rng: Intn called with n <= 0")
	}
	un := uint64(n)
	v := s.Uint64()
	hi, lo := bits.Mul64(v, un)
	if lo < un {
		// Rejection zone: resample until out of the biased region.
		thresh := (-un) % un
		for lo < thresh {
			v = s.Uint64()
			hi, lo = bits.Mul64(v, un)
		}
	}
	return int(hi)
}

// Perm fills out with a uniformly random permutation of 1..len(out) using
// the inside-out Fisher-Yates shuffle. Values start at 1 to match the
// paper's convention of sorting the numbers 1..N.
func Perm(s Source, out []int) {
	for i := range out {
		j := Intn(s, i+1)
		out[i] = out[j]
		out[j] = i + 1
	}
}

// Shuffle permutes the elements of p uniformly at random in place.
func Shuffle(s Source, p []int) {
	for i := len(p) - 1; i > 0; i-- {
		j := Intn(s, i+1)
		p[i], p[j] = p[j], p[i]
	}
}

// Float64 returns a uniform float64 in [0,1) with 53 random bits.
func Float64(s Source) float64 {
	return float64(s.Uint64()>>11) / (1 << 53)
}

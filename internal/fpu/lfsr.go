package fpu

// LFSR is a 64-bit Galois linear feedback shift register. The paper's FPGA
// fault injector draws the time between corruptions from a uniform
// distribution generated by an LFSR; this type is the software equivalent
// and doubles as the package's deterministic random source.
//
// The zero value is invalid (an LFSR must never hold state 0); use NewLFSR.
type LFSR struct {
	state uint64
}

// lfsrTaps is the feedback mask for a maximal-length 64-bit Galois LFSR
// (taps 64, 63, 61, 60).
const lfsrTaps uint64 = 0xD800000000000000

// NewLFSR returns an LFSR seeded from seed. A zero seed is remapped to a
// fixed nonzero constant because the all-zero state is a fixed point.
func NewLFSR(seed uint64) *LFSR {
	if seed == 0 {
		seed = 0x9E3779B97F4A7C15 // golden-ratio constant
	}
	return &LFSR{state: seed}
}

// Next advances the register once and returns the new 64-bit state.
func (l *LFSR) Next() uint64 {
	lsb := l.state & 1
	l.state >>= 1
	if lsb != 0 {
		l.state ^= lfsrTaps
	}
	return l.state
}

// Uint64 returns a 64-bit value assembled from register steps. Single Galois
// steps are strongly correlated bit-to-bit, so Uint64 mixes the state with a
// splitmix64 finalizer, keeping the LFSR as the underlying sequence
// generator while producing usable uniform words.
func (l *LFSR) Uint64() uint64 {
	z := l.Next() + 0x9E3779B97F4A7C15
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return z ^ (z >> 31)
}

// Float64 returns a uniform value in [0, 1).
func (l *LFSR) Float64() float64 {
	return float64(l.Uint64()>>11) / (1 << 53)
}

// UniformGap returns a fault inter-arrival time with the paper's
// distribution: uniform on {1, ..., 2·mean−1}, so the average gap is mean
// operations. A mean below 1 yields back-to-back faults (gap 1).
func (l *LFSR) UniformGap(mean float64) uint64 {
	if mean <= 1 {
		return 1
	}
	hi := uint64(2*mean) - 1
	if hi < 1 {
		hi = 1
	}
	return 1 + l.Uint64()%hi
}

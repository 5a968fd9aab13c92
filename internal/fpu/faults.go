package fpu

import "math"

// WordBits is the width of the simulated FPU datapath.
const WordBits = 64

// sampleBuckets is the size of the Sample lookup table. Each bucket
// brackets the CDF region its slice of [0, 1) can land in, so most draws
// resolve without a search.
const sampleBuckets = 256

// BitDistribution is a probability distribution over the bit positions of an
// IEEE-754 double word (bit 0 = mantissa LSB, bit 63 = sign). A fault flips
// exactly one bit drawn from this distribution.
type BitDistribution struct {
	name string
	// cdf[i] is the cumulative probability of flipping a bit <= i.
	cdf [WordBits]float64
	pmf [WordBits]float64
	// bucketLo/bucketHi[k] bound the possible Sample results for variates
	// in [k, k+1)/sampleBuckets.
	bucketLo [sampleBuckets]uint8
	bucketHi [sampleBuckets]uint8
}

// NewBitDistribution builds a distribution from non-negative weights, one per
// bit position. Weights are normalized; at least one must be positive —
// all-zero weights panic rather than falling back to uniform, because a
// silently-uniform "exponent-only" distribution would corrupt a stratified
// fault-model study without any signal. The result is immutable, so one
// distribution can serve any number of injectors.
func NewBitDistribution(name string, weights [WordBits]float64) *BitDistribution {
	d := &BitDistribution{name: name}
	var total float64
	for _, w := range weights {
		if w < 0 {
			w = 0
		}
		total += w
	}
	if total <= 0 {
		panic("fpu: NewBitDistribution(" + name + ") needs at least one positive weight")
	}
	var acc float64
	for i, w := range weights {
		if w < 0 {
			w = 0
		}
		p := w / total
		d.pmf[i] = p
		acc += p
		d.cdf[i] = acc
	}
	d.cdf[WordBits-1] = 1
	for k := 0; k < sampleBuckets; k++ {
		d.bucketLo[k] = uint8(d.search(float64(k)/sampleBuckets, 0, WordBits-1))
		d.bucketHi[k] = uint8(d.search(float64(k+1)/sampleBuckets, 0, WordBits-1))
	}
	return d
}

// Name returns the distribution's label.
func (d *BitDistribution) Name() string { return d.name }

// Prob returns the probability of flipping the given bit.
func (d *BitDistribution) Prob(bit int) float64 {
	if bit < 0 || bit >= WordBits {
		return 0
	}
	return d.pmf[bit]
}

// Sample draws a bit position using the uniform variate u in [0, 1). The
// bucket table narrows the CDF search range first; most buckets span a
// single bit, so the common case is a table lookup.
func (d *BitDistribution) Sample(u float64) int {
	k := int(u * sampleBuckets)
	if k < 0 {
		k = 0
	} else if k >= sampleBuckets {
		k = sampleBuckets - 1
	}
	lo, hi := int(d.bucketLo[k]), int(d.bucketHi[k])
	if lo == hi {
		return lo
	}
	return d.search(u, lo, hi)
}

// search returns the smallest bit index in [lo, hi] whose cumulative
// probability is at least u (binary search on the CDF).
func (d *BitDistribution) search(u float64, lo, hi int) int {
	for lo < hi {
		mid := (lo + hi) / 2
		if d.cdf[mid] < u {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// MeasuredDistribution returns the per-bit fault histogram standing in for
// the circuit-level measurements of Fig 5.1 (Kong's path-delay study). The
// longest carry and normalization chains live in the significand datapath
// and terminate in the most significant result bits, so most timing faults
// strike the upper mantissa (large but bounded relative errors, the
// figure's dominant mode); a secondary population of short marginal paths
// strikes the low-order mantissa bits (tiny errors); the sign flag is hit
// occasionally; the exponent logic is short-path and almost never fails,
// which is why Fig 5.1's error magnitudes stay bounded.
func MeasuredDistribution() *BitDistribution {
	var w [WordBits]float64
	for bit := 0; bit < WordBits; bit++ {
		switch {
		case bit == 63: // sign flag
			w[bit] = 1.5
		case bit >= 52: // exponent: short paths, rare
			w[bit] = 0.04
		case bit >= 42: // upper mantissa: dominant cluster, rising to MSB
			w[bit] = 1.4 + 0.25*float64(bit-42)
		case bit < 12: // low-order cluster: small-magnitude errors
			w[bit] = 1.6 - 0.05*float64(bit)
		default: // mid-mantissa valley
			w[bit] = 0.08
		}
	}
	return NewBitDistribution("measured", w)
}

// EmulatedDistribution returns the simplified mixture the injector actually
// uses, mirroring how the thesis emulates the measured behaviour: with
// probability pHigh the fault hits a uniformly chosen upper-mantissa bit
// (relative error up to O(1)), with probability pSign the sign flag,
// otherwise a uniformly chosen low-order mantissa bit (low-magnitude
// error).
func EmulatedDistribution() *BitDistribution {
	const (
		pHigh  = 0.50
		pSign  = 0.05
		highLo = 42 // upper-mantissa cluster: bits 42..51
		lowHi  = 12 // low-order cluster: bits 0..11
	)
	var w [WordBits]float64
	for bit := highLo; bit < 52; bit++ {
		w[bit] = pHigh / float64(52-highLo)
	}
	w[63] = pSign
	for bit := 0; bit < lowHi; bit++ {
		w[bit] = (1 - pHigh - pSign) / float64(lowHi)
	}
	return NewBitDistribution("emulated", w)
}

// UniformDistribution returns a uniform distribution over all word bits,
// useful for the "different fault models" sensitivity study (Ch. 7).
func UniformDistribution() *BitDistribution {
	var w [WordBits]float64
	for i := range w {
		w[i] = 1
	}
	return NewBitDistribution("uniform", w)
}

// LowOrderDistribution returns a distribution restricted to the mantissa's
// low 16 bits: small-magnitude, nearly unbiased noise. This is the most
// benign fault model and a useful ablation endpoint.
func LowOrderDistribution() *BitDistribution {
	var w [WordBits]float64
	for i := 0; i < 16; i++ {
		w[i] = 1
	}
	return NewBitDistribution("low-order", w)
}

// emulatedDefault is the default bit distribution, shared by every
// injector: sweeps construct one injector per trial, and the distribution
// (with its bucket table) is immutable.
var emulatedDefault = EmulatedDistribution()

// Injector corrupts FPU results: at LFSR-scheduled intervals it flips one
// bit of the result word, with the bit position drawn from a
// BitDistribution. It is the software equivalent of the paper's
// software-controlled fault injector module on the FPGA, and the default
// FaultModel — uniform rate, independent per-FLOP faults.
type Injector struct {
	rate      float64
	dist      *BitDistribution
	rng       LFSR
	countdown uint64
	injected  uint64
	// gapHi caches the UniformGap range for mean 1/rate: gaps are
	// 1 + Uint64()%gapHi, or a constant 1 when gapHi is 0 (rate ≥ 1).
	gapHi uint64
}

// InjectorOption configures an Injector.
type InjectorOption func(*Injector)

// WithDistribution selects the bit-position distribution (default:
// EmulatedDistribution). The injector shares d rather than copying it.
func WithDistribution(d *BitDistribution) InjectorOption {
	return func(in *Injector) { in.dist = d }
}

// NewInjector returns an injector that corrupts results at the given
// average rate (faults per floating point operation, in [0, 1]). The gap
// between faults is uniform with mean 1/rate, drawn from an LFSR seeded by
// seed.
func NewInjector(rate float64, seed uint64, opts ...InjectorOption) *Injector {
	if rate < 0 {
		rate = 0
	}
	if rate > 1 {
		rate = 1
	}
	in := &Injector{
		rate: rate,
		dist: emulatedDefault,
		rng:  *NewLFSR(seed),
	}
	// Precompute the UniformGap range (its mean > 1 branch) so reschedule
	// avoids the division and conversions on every fault.
	if mean := 1 / rate; rate > 0 && mean > 1 {
		in.gapHi = uint64(2*mean) - 1
		if in.gapHi < 1 {
			in.gapHi = 1
		}
	}
	for _, opt := range opts {
		opt(in)
	}
	in.reschedule()
	return in
}

// Name identifies the default fault model.
func (in *Injector) Name() string { return "default" }

// Rate returns the configured faults-per-FLOP rate.
func (in *Injector) Rate() float64 { return in.rate }

// Injected returns how many faults the injector has delivered.
func (in *Injector) Injected() uint64 { return in.injected }

func (in *Injector) reschedule() {
	switch {
	case in.rate <= 0:
		in.countdown = math.MaxUint64
	case in.gapHi == 0: // mean gap ≤ 1: back-to-back faults, no draw
		in.countdown = 1
	default:
		in.countdown = 1 + in.rng.Uint64()%in.gapHi
	}
}

// Fire accounts one operation against the fault schedule and reports
// whether that operation's result is corrupted.
func (in *Injector) Fire() bool {
	if in.countdown == math.MaxUint64 {
		return false
	}
	in.countdown--
	if in.countdown > 0 {
		return false
	}
	in.reschedule()
	in.injected++
	return true
}

// Apply passes one FPU result through the injector. It returns the possibly
// corrupted value and whether a fault was delivered.
func (in *Injector) Apply(v float64) (float64, bool) {
	if !in.Fire() {
		return v, false
	}
	return in.Corrupt(v), true
}

// Corrupt flips one distribution-drawn bit of v.
func (in *Injector) Corrupt(v float64) float64 {
	bit := in.dist.Sample(in.rng.Float64())
	return math.Float64frombits(math.Float64bits(v) ^ (1 << uint(bit)))
}

// SafeOps returns how many upcoming operations are guaranteed fault-free:
// everything before the scheduled countdown expiry.
func (in *Injector) SafeOps() uint64 {
	if in.countdown == math.MaxUint64 {
		return math.MaxUint64
	}
	return in.countdown - 1
}

// ConsumeSafe accounts n fault-free operations against the countdown.
func (in *Injector) ConsumeSafe(n uint64) {
	if in.countdown != math.MaxUint64 {
		in.countdown -= n
	}
}

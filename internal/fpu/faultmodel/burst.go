package faultmodel

import (
	"math"

	"robustify/internal/fpu"
)

// defaultBurstLen is the default mean low-voltage window length in FLOPs.
const defaultBurstLen = 64

// burstModel delivers correlated faults: instead of the default model's
// independent LFSR-spaced flips, the supply voltage droops for a window of
// ~meanLen consecutive operations during which each result is corrupted
// with probability prob, then recovers for an LFSR-drawn gap. The default
// in-window probability is the voltage curve's saturated MaxRate — a
// droop deep enough to matter pushes the FPU onto the flat top of
// fpu.VoltageModel's error-rate curve, where roughly half of all results
// miss timing.
//
// The closed/open phases map directly onto the kernel fast path: a closed
// phase is one long safe run (SafeOps = ops left in the phase), while an
// open phase reports SafeOps 0 so every in-window op routes through
// Fire's Bernoulli draw. The gap length is sized so the long-run fault
// rate still equals the sweep's configured rate:
//
//	rate = prob · meanLen / (meanLen + meanGap)
//	  ⇒ meanGap = meanLen · (prob/rate − 1)
type burstModel struct {
	rate    float64
	meanLen float64
	prob    float64
	meanGap float64
	rng     fpu.LFSR

	// open reports whether the voltage window is currently drooped; left
	// is how many operations remain in the current phase. The model
	// starts closed so low rates keep the default model's long fault-free
	// run-up.
	open     bool
	left     uint64
	injected uint64
}

// newBurst builds the model for one trial. Zero meanLen and prob select
// the defaults (64 ops, and the voltage model's MaxRate).
func newBurst(rate float64, seed uint64, meanLen, prob float64) fpu.FaultModel {
	if rate < 0 {
		rate = 0
	}
	if rate > 1 {
		rate = 1
	}
	if meanLen <= 0 {
		meanLen = defaultBurstLen
	}
	if prob <= 0 {
		prob = fpu.DefaultVoltageModel().MaxRate
	}
	if prob > 1 {
		prob = 1
	}
	b := &burstModel{
		rate:    rate,
		meanLen: meanLen,
		prob:    prob,
		rng:     *fpu.NewLFSR(seed),
	}
	if rate > 0 {
		// A requested rate at or above the in-window probability cannot be
		// reached by spacing windows out; clamp to back-to-back windows.
		b.meanGap = meanLen * (prob/rate - 1)
		if b.meanGap < 1 {
			b.meanGap = 1
		}
		b.left = b.rng.UniformGap(b.meanGap)
	}
	return b
}

// Name identifies the burst model.
func (b *burstModel) Name() string { return Burst }

// Rate returns the configured long-run faults-per-FLOP rate.
func (b *burstModel) Rate() float64 { return b.rate }

// Injected returns how many faults the model has delivered.
func (b *burstModel) Injected() uint64 { return b.injected }

// advance retires one operation from the current phase, flipping the
// phase and drawing the next one's length when it empties.
func (b *burstModel) advance() {
	b.left--
	if b.left > 0 {
		return
	}
	b.open = !b.open
	if b.open {
		b.left = b.rng.UniformGap(b.meanLen)
	} else {
		b.left = b.rng.UniformGap(b.meanGap)
	}
}

// Fire accounts one operation and reports whether its result is
// corrupted: never during a closed (nominal-voltage) phase, and with
// probability prob during an open window.
func (b *burstModel) Fire() bool {
	if b.rate <= 0 {
		return false
	}
	hit := b.open && b.rng.Float64() < b.prob
	if hit {
		b.injected++
	}
	b.advance()
	return hit
}

// burstDist is the emulated timing-fault histogram of the default model:
// burst faults are the same physical mechanism arriving in clusters.
var burstDist = fpu.EmulatedDistribution()

// Corrupt flips one burstDist-drawn bit of v.
func (b *burstModel) Corrupt(v float64) float64 {
	bit := burstDist.Sample(b.rng.Float64())
	return math.Float64frombits(math.Float64bits(v) ^ (1 << uint(bit)))
}

// SafeOps reports the remainder of a closed phase as guaranteed
// fault-free; inside an open window every operation is at risk.
func (b *burstModel) SafeOps() uint64 {
	if b.rate <= 0 {
		return math.MaxUint64
	}
	if b.open {
		return 0
	}
	return b.left
}

// ConsumeSafe accounts n fault-free operations, n ≤ SafeOps. Emptying the
// closed phase opens the next window, exactly as n individual Fire calls
// would (closed-phase Fire calls draw nothing from the LFSR until the
// phase flips, so consuming in bulk stays bit-identical).
func (b *burstModel) ConsumeSafe(n uint64) {
	if b.rate <= 0 || n == 0 {
		return
	}
	if n < b.left {
		b.left -= n
		return
	}
	// n == b.left: the closed phase is fully retired and the next window
	// opens, drawing its length exactly as the nth Fire call would.
	b.left = 1
	b.advance()
}

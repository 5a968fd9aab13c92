package faultmodel

import (
	"math"

	"robustify/internal/fpu"
)

// memoryModel delivers memory-resident data faults: the FPU computes
// exactly (Fire never reports a corruption, SafeOps is unbounded), but
// bits flip in stored vectors between solver iterations. Solvers expose
// their persistent state — iterates, residuals, search directions — via
// fpu.Unit.CorruptSlice at iteration boundaries, and the model walks each
// exposed slice word by word against an LFSR-spaced countdown, flipping
// one uniformly chosen bit of each struck word. The sweep's rate is
// reinterpreted as flips per word scanned, so a trial's fault pressure
// scales with how much live state the solver carries, not with how many
// FLOPs it issues.
//
// The countdown persists across CorruptSlice calls, making fault
// placement deterministic per seed regardless of how the solver chops its
// state into slices.
type memoryModel struct {
	rate      float64
	rng       fpu.LFSR
	countdown uint64
	injected  uint64
}

// memoryDist is the memory model's bit distribution. Stored words have no
// timing-critical carry chains, so every bit is equally exposed — unlike
// the FPU models' emulated histogram.
var memoryDist = fpu.UniformDistribution()

// newMemory builds the model for one trial; rate is flips per word
// scanned, clamped to [0, 1].
func newMemory(rate float64, seed uint64) fpu.FaultModel {
	if rate < 0 {
		rate = 0
	}
	if rate > 1 {
		rate = 1
	}
	m := &memoryModel{
		rate: rate,
		rng:  *fpu.NewLFSR(seed),
	}
	m.countdown = math.MaxUint64
	if rate > 0 {
		m.countdown = m.rng.UniformGap(1 / rate)
	}
	return m
}

// Name identifies the memory model.
func (m *memoryModel) Name() string { return Memory }

// Rate returns the configured flips per word scanned.
func (m *memoryModel) Rate() float64 { return m.rate }

// Injected returns how many words the model has struck.
func (m *memoryModel) Injected() uint64 { return m.injected }

// Fire never corrupts: FLOPs are exact under this model.
func (m *memoryModel) Fire() bool { return false }

// Corrupt is unreachable (Fire never reports true) but kept total.
func (m *memoryModel) Corrupt(v float64) float64 { return v }

// SafeOps reports every upcoming FPU operation as fault-free.
func (m *memoryModel) SafeOps() uint64 { return math.MaxUint64 }

// ConsumeSafe is a no-op: the FPU schedule never advances.
func (m *memoryModel) ConsumeSafe(n uint64) {}

// CorruptSlice scans the slice against the persistent word countdown,
// flipping one uniformly drawn bit of every struck word.
func (m *memoryModel) CorruptSlice(xs []float64) {
	if m.rate <= 0 {
		return
	}
	rem := uint64(len(xs))
	for m.countdown <= rem {
		rem -= m.countdown
		idx := uint64(len(xs)) - rem - 1
		bit := memoryDist.Sample(m.rng.Float64())
		xs[idx] = math.Float64frombits(math.Float64bits(xs[idx]) ^ (1 << uint(bit)))
		m.injected++
		m.countdown = m.rng.UniformGap(1 / m.rate)
	}
	m.countdown -= rem
}

// Package fpu simulates the floating point unit of a voltage-overscaled
// processor whose outputs suffer timing-error-induced bit corruptions.
//
// The package mirrors the FPGA-based fault-injection framework of Sloan et
// al. (DSN 2010): at random times, one randomly chosen bit of an FPU result
// is flipped before it is committed to a register. The gap between faults is
// drawn from a uniform distribution generated by a linear feedback shift
// register, and the flipped bit position follows a measured, bimodal
// distribution in which most faults strike the most significant bits and the
// remainder strike the low-order bits.
//
// A Unit is the front-end through which all stochastic floating point math in
// this repository flows, for robustified applications and conventional
// baselines alike. A nil *Unit, or a Unit built with no injector, performs
// exact arithmetic, so the same kernels serve as reliable references.
//
// Vector workloads should prefer the batched kernels (Dot, Axpy, Sum,
// Scale, Gemv, Norm2, …) over per-element scalar calls: they use the
// injector's fault schedule to run plain tight loops between faults and
// are guaranteed bit-identical to the equivalent scalar-method loops under
// the same seed — same results, same flipped bits, same FLOP and fault
// counters — while running an order of magnitude faster. See kernels.go.
//
// Units are not safe for concurrent use: like a per-core hardware FPU, each
// worker owns its own Unit.
package fpu

import "math"

// Op identifies a floating point operation class, used for per-op accounting.
type Op uint8

// Operation classes tracked by a Unit.
const (
	OpAdd Op = iota + 1
	OpSub
	OpMul
	OpDiv
	OpSqrt
	OpCmp
	numOps = iota + 1
)

// String returns the mnemonic for the operation class.
func (o Op) String() string {
	switch o {
	case OpAdd:
		return "add"
	case OpSub:
		return "sub"
	case OpMul:
		return "mul"
	case OpDiv:
		return "div"
	case OpSqrt:
		return "sqrt"
	case OpCmp:
		return "cmp"
	default:
		return "unknown"
	}
}

// Unit is a simulated FPU with optional fault injection and with FLOP,
// fault, and energy accounting. The zero value is a reliable unit with
// accounting enabled; a nil *Unit is a reliable unit without accounting.
type Unit struct {
	model  FaultModel
	obs    Observer
	single bool

	flops    uint64
	faults   uint64
	perOp    [numOps]uint64
	energy   float64
	opEnergy float64 // energy charged per FLOP (power at current voltage)
}

// Option configures a Unit.
type Option func(*Unit)

// WithInjector installs a fault injector. A nil injector leaves the unit
// reliable.
func WithInjector(inj *Injector) Option {
	return func(u *Unit) {
		if inj != nil {
			u.model = inj
		}
	}
}

// WithModel installs an arbitrary fault model. A nil model leaves the unit
// reliable.
func WithModel(m FaultModel) Option {
	return func(u *Unit) { u.model = m }
}

// WithFaultRate is shorthand for installing a default injector (emulated bit
// distribution, LFSR fault spacing) with the given fault probability per
// floating point operation. Rate 0 leaves the unit reliable.
func WithFaultRate(rate float64, seed uint64) Option {
	return func(u *Unit) {
		if rate > 0 {
			u.model = NewInjector(rate, seed)
		}
	}
}

// WithSinglePrecision makes the unit round every result to IEEE-754 single
// precision, emulating the Leon3's 32-bit FPU. The paper's ~1e-7 accuracy
// wall in the Fig 6.7 energy study comes from this precision limit.
func WithSinglePrecision() Option {
	return func(u *Unit) { u.single = true }
}

// WithOpEnergy sets the energy charged per floating point operation,
// typically VoltageModel.Power at the operating voltage. The default is 1
// (energy == FLOP count).
func WithOpEnergy(e float64) Option {
	return func(u *Unit) { u.opEnergy = e }
}

// New returns a Unit configured by opts. With no options the unit is
// reliable and merely counts FLOPs.
func New(opts ...Option) *Unit {
	u := &Unit{opEnergy: 1}
	for _, opt := range opts {
		opt(u)
	}
	return u
}

// Reliable reports whether the unit performs exact arithmetic.
func (u *Unit) Reliable() bool { return u == nil || u.model == nil }

// Model returns the installed fault model, or nil for a reliable unit.
func (u *Unit) Model() FaultModel {
	if u == nil {
		return nil
	}
	return u.model
}

// CorruptSlice exposes one stored vector to a memory-resident fault model,
// which may flip bits in place. Solvers call it on persistent state (the
// iterate, residuals, search directions) at iteration boundaries. Under
// every FLOP-level model — including the default — it is a no-op, charges
// no FLOPs, and leaves the fault schedule untouched, so adding the hook to
// a solver cannot perturb existing per-seed results.
func (u *Unit) CorruptSlice(xs []float64) {
	if u == nil || u.model == nil {
		return
	}
	if u.obs != nil {
		u.obs.IterationMark()
	}
	m, ok := u.model.(MemoryFaulter)
	if !ok {
		return
	}
	if u.obs != nil {
		before := u.model.Injected()
		m.CorruptSlice(xs)
		u.obs.MemoryFaults(len(xs), u.model.Injected()-before)
		return
	}
	m.CorruptSlice(xs)
}

// FLOPs returns the number of floating point operations issued.
func (u *Unit) FLOPs() uint64 {
	if u == nil {
		return 0
	}
	return u.flops
}

// Faults returns the number of results that were corrupted.
func (u *Unit) Faults() uint64 {
	if u == nil {
		return 0
	}
	return u.faults
}

// OpCount returns the number of operations issued for one operation class.
func (u *Unit) OpCount(op Op) uint64 {
	if u == nil || int(op) >= int(numOps) {
		return 0
	}
	return u.perOp[op]
}

// Energy returns the accumulated energy in units of power × FLOPs.
func (u *Unit) Energy() float64 {
	if u == nil {
		return 0
	}
	return u.energy
}

// canonNaN is the only NaN bit pattern a faulty unit ever commits. IEEE 754
// leaves NaN payload propagation unspecified: x86's add/mul keep the FIRST
// operand's payload, and the Go compiler freely commutes float operands, so
// `a + b` with two differently-payloaded NaNs yields compiler-whim bits.
// Exponent-flipping fault models mint such NaNs routinely, which would break
// every bit-identity guarantee in the repo (scalar vs batched kernels,
// campaign resume, distributed dispatch). Collapsing each committed NaN to
// one canonical pattern — the same cure WebAssembly adopts for deterministic
// execution — removes the ambiguity. Reliable units (nil model) are left
// byte-raw so exact reference arithmetic stays native.
var canonNaN = math.Float64frombits(0x7FF8000000000000)

// commit charges accounting for one operation of class op and exposes the
// raw result to the fault injector.
func (u *Unit) commit(op Op, v float64) float64 {
	if u == nil {
		return v
	}
	u.flops++
	u.perOp[op]++
	u.energy += u.opEnergy
	if u.single {
		v = float64(float32(v))
	}
	if u.model == nil {
		return v
	}
	if v != v {
		v = canonNaN
	}
	if u.model.Fire() {
		u.faults++
		raw := v
		v = u.model.Corrupt(v)
		if u.obs != nil {
			u.obs.FaultInjected(op, u.flops, math.Float64bits(raw)^math.Float64bits(v))
		}
	}
	return v
}

// Add returns a+b through the (possibly faulty) FPU.
func (u *Unit) Add(a, b float64) float64 { return u.commit(OpAdd, a+b) }

// Sub returns a-b through the FPU.
func (u *Unit) Sub(a, b float64) float64 { return u.commit(OpSub, a-b) }

// Mul returns a*b through the FPU.
func (u *Unit) Mul(a, b float64) float64 { return u.commit(OpMul, a*b) }

// Div returns a/b through the FPU.
func (u *Unit) Div(a, b float64) float64 { return u.commit(OpDiv, a/b) }

// Sqrt returns sqrt(a) through the FPU.
func (u *Unit) Sqrt(a float64) float64 { return u.commit(OpSqrt, math.Sqrt(a)) }

// Neg returns -a. Sign inversion flips one wire and is modelled as free and
// reliable, as on real FPUs.
func (u *Unit) Neg(a float64) float64 { return -a }

// FMA returns a*b+c as two FPU operations (the Leon3 FPU has no fused unit).
func (u *Unit) FMA(a, b, c float64) float64 { return u.Add(u.Mul(a, b), c) }

// Less reports a < b through the FPU's compare unit. A timing fault on the
// compare corrupts the condition flags, inverting the decision — the way a
// marginal FCMP actually fails, and far more damaging to control-heavy
// baselines (sorts, relaxations, augmenting paths) than a value flip whose
// sign usually survives.
func (u *Unit) Less(a, b float64) bool {
	res := a < b
	if u == nil {
		return res
	}
	u.flops++
	u.perOp[OpCmp]++
	u.energy += u.opEnergy
	if u.model != nil && u.model.Fire() {
		u.faults++
		res = !res
		if u.obs != nil {
			u.obs.CompareFault(u.flops)
		}
	}
	return res
}

// Min returns the smaller of a and b using a faulty comparison.
func (u *Unit) Min(a, b float64) float64 {
	if u.Less(b, a) {
		return b
	}
	return a
}

// Abs returns |a|. Clearing the sign bit is reliable, like Neg.
func (u *Unit) Abs(a float64) float64 { return math.Abs(a) }

// Hinge returns max(0, a): the []₊ operator of the exact penalty form.
// Clamping at zero is a sign-bit mask (pure logic, no carry chain), so like
// Neg and Abs it does not go through the timing-critical FPU datapath and
// cannot be corrupted.
func (u *Unit) Hinge(a float64) float64 {
	if a > 0 {
		return a
	}
	return 0
}

// Package robustify transforms applications into numerical-optimization
// form so they can run correctly on processors whose floating point units
// produce timing errors, reproducing Sloan et al., "A Numerical
// Optimization-Based Methodology for Application Robustification" (DSN
// 2010).
//
// The package exposes three layers:
//
//   - The stochastic FPU substrate (NewFPU, NewInjector, VoltageModel): a
//     simulated faulty floating point unit with single-bit output
//     corruptions at a configurable rate, per-FLOP energy accounting, and
//     the voltage/error-rate model used for energy studies.
//
//   - The robustification core (Problem, LinearProgram, NewPenaltyLP,
//     NewAssignment, NewLeastSquares, Precondition): recast a computation
//     as constrained optimization, convert it mechanically to an
//     unconstrained exact-penalty form, and hand it to a noise-tolerant
//     solver.
//
//   - The solvers (SGD, CG, with Linear/Sqrt/Constant schedules, momentum,
//     aggressive stepping, penalty annealing, and Polyak tail averaging).
//
// Ready-made robustified applications — sorting, bipartite matching, IIR
// filtering, least squares, max-flow, all-pairs shortest paths, eigenpairs
// — live in the internal app packages and are surfaced here through thin
// wrappers (RobustSort, …). The examples/ directory shows the intended
// usage; cmd/robustbench regenerates every figure of the paper.
package robustify

import (
	"robustify/internal/apps/iir"
	"robustify/internal/apps/leastsq"
	"robustify/internal/apps/robsort"
	"robustify/internal/core"
	"robustify/internal/fpu"
	"robustify/internal/linalg"
	"robustify/internal/robust"
	"robustify/internal/solver"
)

// FPU is the simulated stochastic floating point unit. A nil *FPU computes
// exactly; see NewFPU.
type FPU = fpu.Unit

// FPUOption configures NewFPU.
type FPUOption = fpu.Option

// Injector delivers single-bit corruptions to FPU results.
type Injector = fpu.Injector

// VoltageModel maps supply voltage to FPU error rate and per-FLOP power.
type VoltageModel = fpu.VoltageModel

// NewFPU returns a simulated FPU. With no options it is reliable and
// merely counts FLOPs; add WithFaultRate to make it stochastic.
func NewFPU(opts ...FPUOption) *FPU { return fpu.New(opts...) }

// WithFaultRate makes the unit corrupt results at the given average rate
// (faults per floating point operation), deterministically seeded.
func WithFaultRate(rate float64, seed uint64) FPUOption { return fpu.WithFaultRate(rate, seed) }

// WithInjector installs a custom fault injector.
func WithInjector(in *Injector) FPUOption { return fpu.WithInjector(in) }

// WithOpEnergy sets the energy charged per FLOP (e.g. VoltageModel.Power
// at the operating voltage).
func WithOpEnergy(e float64) FPUOption { return fpu.WithOpEnergy(e) }

// NewInjector builds a fault injector with the default (emulated,
// Fig 5.1-shaped) bit distribution.
func NewInjector(rate float64, seed uint64) *Injector {
	return fpu.NewInjector(rate, seed)
}

// DefaultVoltageModel returns the Fig 5.2 voltage/error-rate model.
func DefaultVoltageModel() VoltageModel { return fpu.DefaultVoltageModel() }

// Matrix is a dense row-major matrix whose kernels run on an FPU.
type Matrix = linalg.Dense

// NewMatrix returns a zeroed r×c matrix.
func NewMatrix(r, c int) *Matrix { return linalg.NewDense(r, c) }

// MatrixOf builds a matrix from rows, copying the data.
func MatrixOf(rows [][]float64) *Matrix { return linalg.DenseOf(rows) }

// Problem is an unconstrained minimization problem in robustified form:
// noisy gradients on the stochastic FPU, reliable objective evaluation on
// the control path.
type Problem = core.Problem

// LinearProgram is the constrained variational form min Cᵀx subject to
// Ineq·x ≤ BIneq and Eq·x = BEq.
type LinearProgram = core.LinearProgram

// PenaltyKind selects the exact penalty flavour (PenaltyAbs or
// PenaltyQuad).
type PenaltyKind = core.PenaltyKind

// Penalty kinds (Theorem 2 of the paper).
const (
	PenaltyAbs  = core.PenaltyAbs
	PenaltyQuad = core.PenaltyQuad
)

// NewPenaltyLP converts a LinearProgram to unconstrained exact-penalty
// form with weight mu, gradients on u.
func NewPenaltyLP(u *FPU, lp LinearProgram, kind PenaltyKind, mu float64) (*core.PenaltyLP, error) {
	return core.NewPenaltyLP(u, lp, kind, mu)
}

// NewAssignment builds the penalized linear-assignment problem (sorting,
// matching) over a weight matrix to maximize.
func NewAssignment(u *FPU, w *Matrix, l1, l2 float64) (*core.Assignment, error) {
	return core.NewAssignment(u, w, l1, l2)
}

// NewLeastSquares builds the variational least squares problem
// min ‖a·x − b‖² with gradients on u.
func NewLeastSquares(u *FPU, a linalg.Operator, b []float64) (*core.LeastSquares, error) {
	return core.NewLeastSquares(u, a, b)
}

// Robustifier is a pluggable robust loss ρ with its influence function
// ψ = ρ′/2 and IRLS weight ψ(r)/r, every float op FPU-mediated. The
// quadratic member reproduces the legacy solvers bit for bit; the
// bounded-influence members cap how hard one fault-corrupted residual can
// pull a solve.
type Robustifier = robust.Robustifier

// LossKind names a robust loss in the internal registry.
type LossKind = robust.Kind

// Robust loss kinds.
const (
	LossQuadratic    = robust.Quadratic
	LossHuber        = robust.Huber
	LossPseudoHuber  = robust.PseudoHuber
	LossGemanMcClure = robust.GemanMcClure
	LossSmoothL1     = robust.SmoothL1
)

// NewLoss builds a robust loss; shape ≤ 0 picks the loss's default shape.
func NewLoss(kind LossKind, shape float64) (Robustifier, error) {
	return robust.New(kind, shape)
}

// NewRobustLeastSquares builds min Σρ(rᵢ) over residuals r = a·x − b. A nil
// loss is the quadratic objective, bit-identical to NewLeastSquares.
func NewRobustLeastSquares(u *FPU, a linalg.Operator, b []float64, loss Robustifier) (*core.LeastSquares, error) {
	return core.NewRobustLeastSquares(u, a, b, loss)
}

// Precondition rewrites an inequality-only LP in QR-preconditioned
// coordinates (§6.2.1).
func Precondition(u *FPU, lp LinearProgram, kind PenaltyKind, mu float64) (*core.PreconditionedLP, error) {
	return core.Precondition(u, lp, kind, mu)
}

// Solver configuration re-exports.
type (
	// SolveOptions configures SGD.
	SolveOptions = solver.Options
	// Schedule maps iteration number to step size.
	Schedule = solver.Schedule
	// Aggressive configures the adaptive step-size phase (§3.2).
	Aggressive = solver.Aggressive
	// Anneal raises the penalty weight during the solve (§6.2.4).
	Anneal = solver.Anneal
	// Result reports a solve's outcome.
	Result = solver.Result
	// CGOptions configures the conjugate gradient solver.
	CGOptions = solver.CGOptions
)

// Step schedules (§3.2/§6.2.3).
var (
	Linear   = solver.Linear
	Sqrt     = solver.Sqrt
	Constant = solver.Constant
)

// Solver defaults.
var (
	DefaultAggressive = solver.DefaultAggressive
	DefaultAnneal     = solver.DefaultAnneal
)

// SGD minimizes a Problem by stochastic gradient descent (Theorem 1).
func SGD(p Problem, x0 []float64, opts SolveOptions) (Result, error) {
	return solver.SGD(p, x0, opts)
}

// CG solves an SPD system M·x = b by conjugate gradient with noisy
// matrix-vector products (§3.3).
func CG(u *FPU, mul solver.MulFunc, b, x0 []float64, opts CGOptions) (Result, error) {
	return solver.CG(u, mul, b, x0, opts)
}

// NormalEquationsMul returns the (AᵀA)·x operator for least squares CG.
func NormalEquationsMul(u *FPU, a *Matrix) solver.MulFunc {
	return solver.NormalEquationsMul(u, a)
}

// SortOptions configures RobustSort.
type SortOptions = robsort.Options

// RobustSort sorts data on the (possibly faulty) unit u via the
// assignment-LP transformation of §4.3. A zero Options value picks sane
// defaults except Iters, which must be positive.
func RobustSort(u *FPU, data []float64, o SortOptions) ([]float64, Result, error) {
	return robsort.Robust(u, data, o)
}

// BaselineSort is the conventional quicksort with comparisons on u — the
// fragile baseline the paper measures against.
func BaselineSort(u *FPU, data []float64) []float64 {
	return robsort.Baseline(u, data)
}

// SortSucceeded reports whether output is exactly the ascending sort of
// input (the paper's success criterion).
func SortSucceeded(output, input []float64) bool {
	return robsort.Success(output, input)
}

// Filter is an IIR filter in transfer-function form.
type Filter = iir.Filter

// LowpassFilter designs a stable lowpass with the given tap count and pole
// radius (< 1).
func LowpassFilter(taps int, poleRadius float64) (*Filter, error) {
	return iir.Lowpass(taps, poleRadius)
}

// FilterOptions configures Filter.Robust via the iir package.
type FilterOptions = iir.Options

// LeastSquaresInstance is a least squares problem with its exact solution
// and the full solver/baseline suite of §6.1/§6.3 attached.
type LeastSquaresInstance = leastsq.Instance

// NewLeastSquaresInstance wraps A, b, solving reliably for the reference.
func NewLeastSquaresInstance(a *Matrix, b []float64) (*LeastSquaresInstance, error) {
	return leastsq.New(a, b)
}

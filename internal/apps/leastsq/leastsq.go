// Package leastsq implements the paper's least squares application (§4.1,
// Figs 6.2, 6.6, 6.7): the robustified stochastic-gradient and conjugate
// gradient solvers, and the three conventional baselines (SVD, QR,
// Cholesky) whose instability under FPU faults motivates the approach.
package leastsq

import (
	"fmt"
	"math/rand"

	"robustify/internal/core"
	"robustify/internal/fpu"
	"robustify/internal/linalg"
	"robustify/internal/robust"
	"robustify/internal/solver"
)

// Instance is a least squares problem min ‖Ax − b‖² together with its exact
// solution for error metrics.
type Instance struct {
	A     *linalg.Dense
	B     []float64
	Ideal []float64 // exact minimizer, computed reliably at build time
}

// Random generates an m×n instance with standard normal entries,
// b = A·x* + noise·ε (the paper's Fig 6.2 instance is 100×10). The exact
// minimizer is recovered with a reliable QR solve.
func Random(rng *rand.Rand, m, n int, noise float64) (*Instance, error) {
	a := linalg.NewDense(m, n)
	for i := range a.Data {
		a.Data[i] = rng.NormFloat64()
	}
	xTrue := make([]float64, n)
	for i := range xTrue {
		xTrue[i] = rng.NormFloat64()
	}
	b := make([]float64, m)
	a.MulVec(nil, xTrue, b)
	for i := range b {
		b[i] += noise * rng.NormFloat64()
	}
	return New(a, b)
}

// New wraps an explicit system, solving it reliably for the Ideal field.
func New(a *linalg.Dense, b []float64) (*Instance, error) {
	f, err := linalg.QR(nil, a)
	if err != nil {
		return nil, fmt.Errorf("leastsq: reference factorization: %w", err)
	}
	ideal, err := f.Solve(nil, b)
	if err != nil {
		return nil, fmt.Errorf("leastsq: reference solve: %w", err)
	}
	rhs := make([]float64, len(b))
	copy(rhs, b)
	return &Instance{A: a, B: rhs, Ideal: ideal}, nil
}

// RelErr is the paper's Fig 6.2/6.6 metric: the relative difference between
// the computed and ideal solutions, evaluated reliably. Non-finite
// solutions map to +Inf-like large error (1e30) so averages stay defined.
func (inst *Instance) RelErr(x []float64) float64 {
	if x == nil || !linalg.AllFinite(x) {
		return 1e30
	}
	return linalg.RelErr(x, inst.Ideal)
}

// SGDOptions configures the robustified stochastic-gradient solve.
type SGDOptions struct {
	Iters      int
	Schedule   solver.Schedule // nil: Linear with a Lipschitz-scaled η₀
	Momentum   float64
	Aggressive *solver.Aggressive
	// Loss selects a robust loss for the residuals (nil = the paper's
	// quadratic objective, bit-identical to the pre-loss solver). A
	// bounded-influence loss caps how hard one fault-corrupted residual can
	// pull the gradient.
	Loss robust.Robustifier
	// Anneal, when non-nil, anneals the loss shape over the run (ignored
	// by the quadratic default, which has no shape).
	Anneal *solver.Anneal
}

// LinearSchedule returns the paper's LS (1/t) schedule with η₀ scaled to
// the instance's curvature: η₀ = boost/λmax(AᵀA).
func (inst *Instance) LinearSchedule(boost float64) solver.Schedule {
	return solver.Linear(boost / inst.lipschitz())
}

// SqrtSchedule returns the SQS (1/√t) schedule, Lipschitz-scaled.
func (inst *Instance) SqrtSchedule(boost float64) solver.Schedule {
	return solver.Sqrt(boost / inst.lipschitz())
}

func (inst *Instance) lipschitz() float64 {
	l := linalg.PowerEstimate(inst.A, 30)
	if l <= 0 {
		return 1
	}
	return l
}

// SolveSGD runs the robustified gradient-descent solve on u from the zero
// iterate.
func (inst *Instance) SolveSGD(u *fpu.Unit, o SGDOptions) ([]float64, solver.Result, error) {
	p, err := core.NewRobustLeastSquares(u, inst.A, inst.B, o.Loss)
	if err != nil {
		return nil, solver.Result{}, err
	}
	sched := o.Schedule
	if sched == nil {
		sched = inst.LinearSchedule(8)
	}
	res, err := solver.SGD(p, make([]float64, p.Dim()), solver.Options{
		Iters:      o.Iters,
		Schedule:   sched,
		Momentum:   o.Momentum,
		Aggressive: o.Aggressive,
		Anneal:     o.Anneal,
		Unit:       u,
	})
	if err != nil {
		return nil, res, err
	}
	return res.X, res, nil
}

// SolveCG runs the conjugate gradient solve of §6.3 on u: CG on the normal
// equations AᵀAx = Aᵀb with the direction reset every restartEvery
// iterations.
func (inst *Instance) SolveCG(u *fpu.Unit, iters, restartEvery int) ([]float64, solver.Result, error) {
	n := inst.A.Cols
	atb := make([]float64, n)
	inst.A.TMulVec(u, inst.B, atb)
	mul := solver.NormalEquationsMul(u, inst.A)
	res, err := solver.CG(u, mul, atb, make([]float64, n), solver.CGOptions{
		Iters:        iters,
		RestartEvery: restartEvery,
	})
	if err != nil {
		return nil, res, err
	}
	return res.X, res, nil
}

// SolveIRLS runs the robust conjugate-gradient solve: IRLS outer rounds of
// weighted normal equations, each solved by restarted CG on u. A nil or
// quadratic loss collapses to SolveCG bit for bit (outer rounds collapse to
// one plain CG solve).
func (inst *Instance) SolveIRLS(u *fpu.Unit, loss robust.Robustifier, outer, iters, restartEvery int) ([]float64, solver.Result, error) {
	res, err := solver.IRLS(u, inst.A, inst.B, loss, make([]float64, inst.A.Cols), solver.IRLSOptions{
		Outer: outer,
		CG:    solver.CGOptions{Iters: iters, RestartEvery: restartEvery},
	})
	if err != nil {
		return nil, res, err
	}
	return res.X, res, nil
}

// SolveSVD is the paper's most accurate baseline: a one-sided Jacobi SVD
// solve with all arithmetic on u. A nil slice is returned when the faulty
// factorization collapses.
func (inst *Instance) SolveSVD(u *fpu.Unit) []float64 {
	f, err := linalg.SVD(u, inst.A)
	if err != nil {
		return nil
	}
	x, err := f.Solve(u, inst.B, 0)
	if err != nil {
		return nil
	}
	return x
}

// SolveQR is the Householder-QR baseline on u.
func (inst *Instance) SolveQR(u *fpu.Unit) []float64 {
	f, err := linalg.QR(u, inst.A)
	if err != nil {
		return nil
	}
	x, err := f.Solve(u, inst.B)
	if err != nil {
		return nil
	}
	return x
}

// SolveCholesky is the normal-equations Cholesky baseline on u: the fastest
// conventional solver and the energy baseline of Fig 6.7.
func (inst *Instance) SolveCholesky(u *fpu.Unit) []float64 {
	ata := inst.A.Gram(u)
	atb := make([]float64, inst.A.Cols)
	inst.A.TMulVec(u, inst.B, atb)
	f, err := linalg.Cholesky(u, ata)
	if err != nil {
		return nil
	}
	x, err := f.Solve(u, atb)
	if err != nil {
		return nil
	}
	return x
}

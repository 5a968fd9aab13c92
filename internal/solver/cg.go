package solver

import (
	"errors"
	"math"

	"robustify/internal/fpu"
	"robustify/internal/linalg"
	"robustify/internal/robust"
)

// MulFunc computes dst ← M·x for the (symmetric positive definite) system
// matrix, with every FLOP on the caller's stochastic FPU. dst never aliases
// x.
type MulFunc func(x, dst []float64)

// CGOptions configures the conjugate gradient solver.
type CGOptions struct {
	// Iters is the number of CG iterations (the paper's Fig 6.6 uses 10).
	Iters int
	// RestartEvery resets the search direction to the steepest-descent
	// direction every so many iterations, limiting how far accumulated
	// gradient noise can corrupt conjugacy (§3.3). 0 disables restarts.
	RestartEvery int
}

// CG solves M·x = b by the conjugate gradient method, tolerating noise in
// the matrix-vector products and vector recurrences (the data path, on u).
// Scalar step computation and the iterate update are reliable control
// steps, per the paper's assumption. x0 is not modified.
//
// On a reliable unit CG converges in at most dim(x) iterations for any SPD
// system.
func CG(u *fpu.Unit, mul MulFunc, b, x0 []float64, opts CGOptions) (Result, error) {
	n := len(b)
	if len(x0) != n {
		return Result{}, linalg.ErrShape
	}
	if opts.Iters <= 0 {
		return Result{}, errors.New("solver: CG needs a positive iteration count")
	}
	if mul == nil {
		return Result{}, errors.New("solver: CG needs a MulFunc")
	}

	x := make([]float64, n)
	copy(x, x0)
	r := make([]float64, n)
	p := make([]float64, n)
	w := make([]float64, n)

	res := Result{Value: math.NaN()}
	restart := func() bool {
		// r ← b − M·x on the stochastic unit; p ← r.
		mul(x, w)
		linalg.Sub(u, b, w, r)
		copy(p, r)
		return linalg.AllFinite(r)
	}
	if !restart() {
		// One retry: the fault stream advances, so a second evaluation
		// usually comes back clean.
		if !restart() {
			res.X = x
			res.Skipped++
			return res, nil
		}
	}
	rs := linalg.Dot(u, r, r)

	for k := 1; k <= opts.Iters; k++ {
		// The iterate, residual, and search direction persist across
		// iterations — the stored state memory-resident fault models
		// strike. Under every FLOP-level model the hooks are pinned
		// no-ops, so they cannot perturb existing per-seed results.
		u.CorruptSlice(x)
		u.CorruptSlice(r)
		u.CorruptSlice(p)
		if opts.RestartEvery > 0 && k > 1 && (k-1)%opts.RestartEvery == 0 {
			if !restart() {
				res.Skipped++
				continue
			}
			rs = linalg.Dot(u, r, r)
		}
		mul(p, w)
		den := linalg.Dot(u, p, w)
		res.Iters++
		// Reliable control: step size and validity checks.
		if !(den > 0) || !linalg.AllFinite(w) || math.IsNaN(rs) || math.IsInf(rs, 0) {
			res.Skipped++
			if !restart() {
				continue
			}
			rs = linalg.Dot(u, r, r)
			continue
		}
		alpha := rs / den
		if math.IsNaN(alpha) || math.IsInf(alpha, 0) {
			res.Skipped++
			continue
		}
		// Reliable iterate update.
		for i := range x {
			x[i] += alpha * p[i]
		}
		// Residual and direction recurrences are data-path vector math.
		linalg.Axpy(u, -alpha, w, r)
		rsNew := linalg.Dot(u, r, r)
		if !linalg.AllFinite(r) || math.IsNaN(rsNew) || math.IsInf(rsNew, 0) || rsNew < 0 {
			res.Skipped++
			if restart() {
				rs = linalg.Dot(u, r, r)
			}
			continue
		}
		beta := rsNew / rs
		linalg.Xpay(u, r, beta, p)
		if !linalg.AllFinite(p) {
			res.Skipped++
			if !restart() {
				continue
			}
			rsNew = linalg.Dot(u, r, r)
		}
		rs = rsNew
	}
	res.X = x
	return res, nil
}

// NormalEquationsMul returns a MulFunc computing (AᵀA)·x on u without
// forming AᵀA, the operator CG needs to solve the least squares problem
// min ‖Ax−b‖².
func NormalEquationsMul(u *fpu.Unit, a *linalg.Dense) MulFunc {
	tmp := make([]float64, a.Rows)
	return func(x, dst []float64) {
		a.MulVec(u, x, tmp)
		a.TMulVec(u, tmp, dst)
	}
}

// WeightedNormalEquationsMul returns a MulFunc computing (AᵀWA)·x on u for a
// diagonal weight vector w, the operator of one IRLS inner solve.
func WeightedNormalEquationsMul(u *fpu.Unit, a *linalg.Dense, w []float64) MulFunc {
	tmp := make([]float64, a.Rows)
	return func(x, dst []float64) {
		a.MulVec(u, x, tmp)
		for i := range tmp {
			tmp[i] = u.Mul(w[i], tmp[i])
		}
		a.TMulVec(u, tmp, dst)
	}
}

// IRLSOptions configures the iteratively-reweighted least squares loop.
type IRLSOptions struct {
	// Outer is the number of reweighting rounds. The count is fixed, not
	// adaptive: every convergence decision IRLS could make would have to
	// read faulty values, so a deterministic schedule keeps runs replayable
	// per seed.
	Outer int
	// CG configures each round's inner conjugate-gradient solve.
	CG CGOptions
}

// IRLS minimizes Σρ(rᵢ) over residuals r = A·x − b by iteratively
// reweighted least squares: each round evaluates the residual on u, forms
// IRLS weights wᵢ = loss.Weight(rᵢ), and warm-starts CG on the weighted
// normal equations AᵀWA·x = AᵀWb. Matrix-vector products, residuals, and
// weights are the stochastic data path; weight sanitation and loop control
// are reliable.
//
// A nil or quadratic loss has the constant weight 1, so IRLS collapses to
// plain CG on the normal equations — taken as an explicit fast path whose
// op stream is identical to CG(u, NormalEquationsMul(u, a), Aᵀb, x0): the
// residual and weight passes are skipped entirely, so the fault stream is
// not advanced and per-seed outcomes match the pre-robust solver bit for
// bit. x0 is not modified.
func IRLS(u *fpu.Unit, a *linalg.Dense, b []float64, loss robust.Robustifier, x0 []float64, opts IRLSOptions) (Result, error) {
	if len(b) != a.Rows || len(x0) != a.Cols {
		return Result{}, linalg.ErrShape
	}
	if opts.Outer <= 0 {
		return Result{}, errors.New("solver: IRLS needs a positive outer round count")
	}
	rhs := make([]float64, a.Cols)
	if loss == nil || loss.Kind() == robust.Quadratic {
		a.TMulVec(u, b, rhs)
		return CG(u, NormalEquationsMul(u, a), rhs, x0, opts.CG)
	}

	x := make([]float64, a.Cols)
	copy(x, x0)
	r := make([]float64, a.Rows)
	w := make([]float64, a.Rows)
	wb := make([]float64, a.Rows)
	var total Result
	total.Value = math.NaN()
	for round := 0; round < opts.Outer; round++ {
		// The outer iterate is stored state between rounds; the inner CG
		// exposes its own vectors per iteration.
		u.CorruptSlice(x)
		// Residual and weights on the stochastic unit.
		a.MulVec(u, x, r)
		linalg.Sub(u, r, b, r)
		for i := range r {
			w[i] = loss.Weight(u, r[i])
		}
		// Reliable control: a weight corrupted to NaN/Inf (or knocked
		// negative) would poison the whole inner system; drop the row for
		// this round instead.
		for i, wi := range w {
			if math.IsNaN(wi) || math.IsInf(wi, 0) || wi < 0 {
				w[i] = 0
				total.Skipped++
			}
		}
		// Right-hand side AᵀWb on the stochastic unit.
		for i := range b {
			wb[i] = u.Mul(w[i], b[i])
		}
		a.TMulVec(u, wb, rhs)
		inner, err := CG(u, WeightedNormalEquationsMul(u, a, w), rhs, x, opts.CG)
		if err != nil {
			return Result{}, err
		}
		total.Iters += inner.Iters
		total.Skipped += inner.Skipped
		// Reliable guard: keep the previous iterate if the round collapsed.
		if linalg.AllFinite(inner.X) {
			copy(x, inner.X)
		}
	}
	total.X = x
	return total, nil
}

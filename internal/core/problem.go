// Package core implements the paper's central contribution: a methodology
// for transforming applications into numerical optimization problems whose
// solution can be recovered by stochastic optimization on a processor with a
// faulty FPU.
//
// An application is recast as a constrained variational problem
//
//	minimize f(x)  subject to  g(x) ≤ 0, h(x) = 0,
//
// which is mechanically converted to an unconstrained exact penalty form
// (Theorem 2 of the paper)
//
//	f(x) + μ·Σ|hᵢ(x)| + μ·Σ[gⱼ(x)]₊   (or the quadratic variant),
//
// and handed to a stochastic solver (package solver). Gradient evaluation —
// the bulk of the computation — runs on the stochastic FPU; the cheap
// control steps (objective evaluation for aggressive stepping, penalty
// annealing, rounding) are assumed reliable, exactly as in the paper.
package core

// Problem is an unconstrained minimization problem in robustified form.
type Problem interface {
	// Dim returns the number of optimization variables.
	Dim() int
	// Grad writes a (noisy) subgradient of the objective at x into grad.
	// It is evaluated on the problem's stochastic FPU and is the only
	// place where faults enter the computation.
	Grad(x, grad []float64)
	// Value evaluates the objective at x reliably. The solver uses it only
	// in control steps (aggressive stepping, convergence checks), which
	// the paper assumes are protected.
	Value(x []float64) float64
}

// Annealable is implemented by problems with a scalar loss parameter the
// solver may anneal over the run (§6.2.4, generalized): the penalty
// multiplier μ of a penalty form (raised as the solver closes in, to
// sharpen the constraint walls), or the shape parameter of a robust loss
// — Huber/pseudo-Huber δ, Geman–McClure σ — shrunk toward robustness in
// the graduated-non-convexity style. A zero AnnealParam means the problem
// currently has nothing to anneal (e.g. a quadratic loss, which has no
// shape); the solver skips it.
type Annealable interface {
	// AnnealParam returns the current annealable parameter, or 0 when
	// there is none.
	AnnealParam() float64
	// SetAnnealParam replaces the parameter (reliable control path).
	SetAnnealParam(v float64)
}

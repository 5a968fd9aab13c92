package solver

import (
	"errors"
	"math"

	"robustify/internal/core"
	"robustify/internal/fpu"
	"robustify/internal/linalg"
)

// Aggressive configures the aggressive-stepping phase (§3.2): after the
// fixed-iteration SGD phase, the step size grows by SuccessFactor whenever a
// step decreases the (reliably evaluated) cost and shrinks by FailFactor
// whenever it increases it, until the relative cost change between two
// consecutive steps drops below Tol or MaxIters steps have been taken.
type Aggressive struct {
	SuccessFactor float64 // growth on improvement, e.g. 1.25
	FailFactor    float64 // shrinkage on regression, e.g. 0.6
	Tol           float64 // relative-change stop threshold, e.g. 1e-6
	MaxIters      int     // hard cap on the phase length
	InitStep      float64 // optional; defaults to the last SGD step size
}

// DefaultAggressive returns the aggressive-stepping setting used across the
// paper's "+AS" experiment series.
func DefaultAggressive() *Aggressive {
	return &Aggressive{SuccessFactor: 1.25, FailFactor: 0.6, Tol: 1e-7, MaxIters: 500}
}

// Anneal configures loss-parameter annealing (§6.2.4, generalized): every
// Every iterations the Annealable problem's parameter is multiplied by
// Factor, up to the limit Max in the direction of travel. With Factor > 1 it
// raises a penalty multiplier μ as the solver closes in, sharpening the
// constraint walls without swamping the true objective early on (Max is a
// ceiling). With Factor < 1 it shrinks a robust-loss shape parameter —
// Huber/pseudo-Huber δ, Geman–McClure σ — tightening the loss toward
// robustness in the graduated-non-convexity style (Max is a floor). A
// problem whose AnnealParam is 0 has nothing to anneal and is left alone.
type Anneal struct {
	Factor float64 // multiplicative change per firing; > 1 grows, < 1 shrinks
	Every  int     // iterations between changes
	Max    float64 // limit in the direction of travel (0 = unlimited)
}

// DefaultAnneal returns the annealing schedule used in the Fig 6.5
// enhancement study (a μ-raising schedule). The limit matters: quadratic-
// penalty gradients have curvature ∝ μ·λ·n, so μ must stay below the step
// schedule's stability bound or the solver oscillates out of the feasible
// region. Shape-shrinking schedules (Factor < 1) need a floor for the dual
// reason: a loss squeezed too tight treats every residual as an outlier and
// stops pulling toward the optimum at all.
func DefaultAnneal() *Anneal {
	return &Anneal{Factor: 2, Every: 1500, Max: 8}
}

// Options configures SGD.
type Options struct {
	// Iters is the fixed iteration count of the main SGD phase.
	Iters int
	// Schedule sets the step size per iteration (required).
	Schedule Schedule
	// Momentum, when nonzero, smooths the search direction (§3.2):
	// d ← Momentum·∇f + (1−Momentum)·d. The paper uses 0.5.
	Momentum float64
	// Aggressive, when non-nil, appends an aggressive-stepping phase.
	Aggressive *Aggressive
	// Anneal, when non-nil and the problem is Annealable, raises the
	// penalty weight on the given cadence.
	Anneal *Anneal
	// TailAverage, when positive, returns the average of the last
	// TailAverage main-phase iterates instead of the final iterate —
	// Polyak-Ruppert averaging, the form in which Theorem 1's convex-case
	// guarantee is actually stated (Nemirovski et al.'s robust SA). The
	// running average is reliable control arithmetic.
	TailAverage int
	// GuardThreshold, when positive, extends the reliable control guard
	// to skip steps whose gradient contains an entry of magnitude above
	// the threshold. Fault models that corrupt exponent bits produce
	// astronomically large but still finite gradients that the
	// non-finite guard cannot see; a sanity range check is the software
	// redundancy the paper's reliability assumption permits.
	GuardThreshold float64
	// DisableGuard turns off the reliable control-path guard that skips
	// steps whose gradient came back non-finite after a fault burst. The
	// guard is on by default; disabling it exposes the raw behaviour.
	DisableGuard bool
	// Callback, when non-nil, observes the iterate after every accepted
	// main-phase step (reliable path; must not modify x).
	Callback func(iter int, x []float64)
	// Unit, when non-nil, exposes the iterate to memory-resident fault
	// models between iterations (fpu.Unit.CorruptSlice): stored state is
	// where those models strike. Under every FLOP-level model — including
	// the default — the hook is a pinned no-op that charges nothing and
	// never advances the fault schedule, so wiring it cannot perturb
	// per-seed results.
	Unit *fpu.Unit
}

// Result reports the outcome of a solve.
type Result struct {
	// X is the final iterate.
	X []float64
	// Iters counts gradient evaluations across all phases.
	Iters int
	// Skipped counts steps rejected by the non-finite guard.
	Skipped int
	// Value is the final reliable objective value (NaN when never
	// evaluated, i.e. no aggressive phase and no Value calls needed).
	Value float64
	// Converged is set when the aggressive phase hit its tolerance.
	Converged bool
}

// SGD minimizes p from x0 with stochastic gradient descent per the paper's
// iteration (3.1): xᵢ ← xᵢ₋₁ − ηᵢ·∇f(xᵢ₋₁; ξ). The returned iterate is the
// last one; x0 is not modified.
func SGD(p core.Problem, x0 []float64, opts Options) (Result, error) {
	n := p.Dim()
	if len(x0) != n {
		return Result{}, linalg.ErrShape
	}
	if opts.Schedule == nil {
		return Result{}, errors.New("solver: Schedule is required")
	}
	if opts.Iters < 0 {
		return Result{}, errors.New("solver: negative iteration count")
	}
	if opts.Momentum < 0 || opts.Momentum > 1 {
		return Result{}, errors.New("solver: momentum must be in [0, 1]")
	}
	if opts.Anneal != nil && (opts.Anneal.Factor <= 0 || opts.Anneal.Factor == 1 || opts.Anneal.Every <= 0) {
		return Result{}, errors.New("solver: anneal needs Factor > 0, Factor != 1, and Every > 0")
	}
	if a := opts.Aggressive; a != nil {
		if a.SuccessFactor <= 1 || a.FailFactor <= 0 || a.FailFactor >= 1 || a.MaxIters < 0 {
			return Result{}, errors.New("solver: aggressive stepping factors out of range")
		}
	}

	x := make([]float64, n)
	copy(x, x0)
	grad := make([]float64, n)
	dir := make([]float64, n)
	xPrev := make([]float64, n)
	var avg []float64
	avgFrom, avgCount := opts.Iters-opts.TailAverage+1, 0
	if opts.TailAverage > 0 {
		avg = make([]float64, n)
	}

	res := Result{Value: math.NaN()}
	annealable, _ := p.(core.Annealable)
	lastStep := 0.0

	for t := 1; t <= opts.Iters; t++ {
		// The iterate is the solver's only state that persists across
		// iterations — the memory-resident model's target.
		opts.Unit.CorruptSlice(x)
		if opts.Anneal != nil && annealable != nil && t%opts.Anneal.Every == 0 {
			if cur := annealable.AnnealParam(); cur != 0 {
				v := cur * opts.Anneal.Factor
				if opts.Anneal.Max > 0 {
					// Max limits in the direction of travel: a ceiling for
					// growing schedules, a floor for shrinking ones.
					if opts.Anneal.Factor > 1 && v > opts.Anneal.Max {
						v = opts.Anneal.Max
					} else if opts.Anneal.Factor < 1 && v < opts.Anneal.Max {
						v = opts.Anneal.Max
					}
				}
				annealable.SetAnnealParam(v)
			}
		}
		p.Grad(x, grad) // stochastic data path
		res.Iters++
		// Reliable control path from here on.
		if !opts.DisableGuard && !gradOK(grad, opts.GuardThreshold) {
			res.Skipped++
			continue
		}
		mixDirection(dir, grad, opts.Momentum)
		step := opts.Schedule(t)
		lastStep = step
		copy(xPrev, x)
		for i := range x {
			x[i] -= step * dir[i]
		}
		if !opts.DisableGuard && !linalg.AllFinite(x) {
			copy(x, xPrev)
			res.Skipped++
			continue
		}
		if avg != nil && t >= avgFrom {
			for i := range avg {
				avg[i] += x[i]
			}
			avgCount++
		}
		if opts.Callback != nil {
			opts.Callback(t, x)
		}
	}
	if avgCount > 0 {
		inv := 1 / float64(avgCount)
		for i := range x {
			x[i] = avg[i] * inv
		}
	}

	if opts.Aggressive != nil {
		aggressivePhase(p, x, grad, dir, xPrev, lastStep, opts, &res)
	}
	res.X = x
	return res, nil
}

// gradOK implements the reliable gradient guard: finite everywhere and,
// when a threshold is set, within the sanity range.
func gradOK(grad []float64, threshold float64) bool {
	if !linalg.AllFinite(grad) {
		return false
	}
	if threshold <= 0 {
		return true
	}
	for _, g := range grad {
		if g > threshold || g < -threshold {
			return false
		}
	}
	return true
}

// mixDirection updates dir in place: plain gradient when momentum is
// disabled, otherwise the smoothed running average of §3.2.
func mixDirection(dir, grad []float64, momentum float64) {
	if momentum == 0 || momentum == 1 {
		copy(dir, grad)
		return
	}
	keep := 1 - momentum
	for i := range dir {
		dir[i] = momentum*grad[i] + keep*dir[i]
	}
}

// aggressivePhase runs the adaptive step-size phase. Cost evaluations are
// reliable (control path); gradients remain stochastic. Because every step
// is scored by the reliable oracle anyway, the phase tracks the best
// iterate seen and returns it — growing steps can therefore explore
// without ever leaving the caller worse off than the main phase did.
func aggressivePhase(p core.Problem, x, grad, dir, xPrev []float64, lastStep float64, opts Options, res *Result) {
	a := opts.Aggressive
	step := a.InitStep
	if step <= 0 {
		step = lastStep
	}
	if step <= 0 {
		step = opts.Schedule(1)
	}
	fPrev := p.Value(x)
	res.Value = fPrev
	best := make([]float64, len(x))
	copy(best, x)
	fBest := fPrev
	defer func() {
		if fBest < res.Value {
			copy(x, best)
			res.Value = fBest
		}
	}()
	for i := 0; i < a.MaxIters; i++ {
		opts.Unit.CorruptSlice(x)
		p.Grad(x, grad)
		res.Iters++
		if !opts.DisableGuard && !gradOK(grad, opts.GuardThreshold) {
			res.Skipped++
			continue
		}
		mixDirection(dir, grad, opts.Momentum)
		copy(xPrev, x)
		for j := range x {
			x[j] -= step * dir[j]
		}
		if !opts.DisableGuard && !linalg.AllFinite(x) {
			copy(x, xPrev)
			res.Skipped++
			step *= a.FailFactor
			continue
		}
		f := p.Value(x)
		if f < fBest {
			fBest = f
			copy(best, x)
		}
		if f < fPrev {
			step *= a.SuccessFactor
		} else {
			step *= a.FailFactor
		}
		change := math.Abs(f - fPrev)
		scale := math.Abs(fPrev)
		if scale < 1 {
			scale = 1
		}
		res.Value = f
		if change/scale < a.Tol {
			fPrev = f
			res.Converged = true
			break
		}
		fPrev = f
	}
	res.Value = fPrev
}

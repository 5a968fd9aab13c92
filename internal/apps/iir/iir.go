// Package iir implements the paper's IIR filtering application (§4.2,
// Fig 6.3): the conventional feed-forward recursion as the faulty baseline,
// and the variational form ‖Bx − Au‖² over banded Toeplitz matrices solved
// by the robustified least-squares machinery.
package iir

import (
	"errors"
	"math"

	"robustify/internal/core"
	"robustify/internal/fpu"
	"robustify/internal/linalg"
	"robustify/internal/solver"
)

// Filter holds the rational transfer function H(z) = Σaᵢz⁻ⁱ / Σbᵢz⁻ⁱ.
type Filter struct {
	A []float64 // feed-forward (numerator) coefficients a₀..aₙ
	B []float64 // feedback (denominator) coefficients b₀..bₘ, b₀ ≠ 0
}

// ErrBadFilter is returned for malformed coefficient sets.
var ErrBadFilter = errors.New("iir: invalid filter coefficients")

// NewFilter validates the coefficient sets.
func NewFilter(a, b []float64) (*Filter, error) {
	if len(a) == 0 || len(b) == 0 || b[0] == 0 {
		return nil, ErrBadFilter
	}
	f := &Filter{A: append([]float64(nil), a...), B: append([]float64(nil), b...)}
	return f, nil
}

// Lowpass designs a stable lowpass of the given tap count: a
// ⌈taps/2⌉-point moving-average numerator and ⌊taps/2⌋−1 poles spread on a
// circle of the given radius (< 1 for stability). Splitting the taps
// between numerator and denominator keeps the banded system B reasonably
// conditioned, which the variational solve needs. It is the 10-tap filter
// family used by the Fig 6.3 experiments.
func Lowpass(taps int, poleRadius float64) (*Filter, error) {
	if taps < 2 || poleRadius <= 0 || poleRadius >= 1 {
		return nil, ErrBadFilter
	}
	nNum := (taps + 1) / 2
	nPoles := taps/2 - 1
	if nPoles < 1 {
		nPoles = 1
	}
	// Denominator: product of (1 − p·z⁻¹) for real/conjugate poles on the
	// circle, expanded by polynomial convolution.
	b := []float64{1}
	for k := 0; k < nPoles/2; k++ {
		theta := math.Pi * (float64(k) + 0.5) / float64(nPoles)
		re := poleRadius * math.Cos(theta)
		r2 := poleRadius * poleRadius
		// (1 − 2·re·z⁻¹ + r²·z⁻²)
		b = convolve(b, []float64{1, -2 * re, r2})
	}
	if nPoles%2 == 1 {
		b = convolve(b, []float64{1, -poleRadius})
	}
	// Numerator: moving average scaled for unit DC gain.
	var sb float64
	for _, v := range b {
		sb += v
	}
	a := make([]float64, nNum)
	for i := range a {
		a[i] = sb / float64(nNum)
	}
	return NewFilter(a, b)
}

// convolve expands polynomial products during filter design.
func convolve(p, q []float64) []float64 {
	out := make([]float64, len(p)+len(q)-1)
	for i, pi := range p {
		for j, qj := range q {
			out[i+j] += pi * qj
		}
	}
	return out
}

// Feedforward runs the conventional direct-form recursion
//
//	x[t] = (Σ aᵢ·u[t−i] − Σ bᵢ·x[t−i]) / b₀
//
// on u — the paper's baseline, whose recursive state accrues noise as t
// grows on a stochastic processor.
func (f *Filter) Feedforward(fp *fpu.Unit, u []float64) []float64 {
	n := len(u)
	x := make([]float64, n)
	for t := 0; t < n; t++ {
		var acc float64
		for i, ai := range f.A {
			if t-i < 0 {
				break
			}
			acc = fp.Add(acc, fp.Mul(ai, u[t-i]))
		}
		for i := 1; i < len(f.B); i++ {
			if t-i < 0 {
				break
			}
			acc = fp.Sub(acc, fp.Mul(f.B[i], x[t-i]))
		}
		x[t] = fp.Div(acc, f.B[0])
	}
	return x
}

// Matrices returns the banded Toeplitz operators of Eq 4.1/4.2 for a
// t-sample signal: B·x = A·u is the filter's post-condition.
func (f *Filter) Matrices(t int) (a, b *linalg.LowerBand) {
	return linalg.NewLowerBand(t, f.A), linalg.NewLowerBand(t, f.B)
}

// Options configures the robustified solve.
type Options struct {
	Iters      int
	Schedule   solver.Schedule // nil: Linear, Lipschitz-scaled
	Momentum   float64
	Aggressive *solver.Aggressive
	Tail       int // Polyak tail-averaging window (0 = off)
}

// Robust filters u variationally on fp: it minimizes ‖B·x − A·u‖² by SGD,
// seeded with the (noisy) feed-forward output as in the paper's
// experiments. The residual B·x − A·u — including the A·u product — is
// recomputed on the stochastic unit at every gradient evaluation, so
// faults in the right-hand side stay transient and unbiased rather than
// freezing into the problem data.
func (f *Filter) Robust(fp *fpu.Unit, u []float64, o Options) ([]float64, solver.Result, error) {
	t := len(u)
	if t == 0 {
		return nil, solver.Result{}, ErrBadFilter
	}
	aOp, bOp := f.Matrices(t)
	p := &variational{fp: fp, a: aOp, b: bOp, u: u, r: make([]float64, t), rhs: make([]float64, t)}
	sched := o.Schedule
	if sched == nil {
		sched = f.LinearSchedule(t, 8)
	}
	x0 := f.Feedforward(fp, u)
	if !linalg.AllFinite(x0) {
		x0 = make([]float64, t) // corrupted seed: start from zero instead
	}
	res, err := solver.SGD(p, x0, solver.Options{
		Iters:       o.Iters,
		Schedule:    sched,
		Momentum:    o.Momentum,
		Aggressive:  o.Aggressive,
		TailAverage: o.Tail,
		Unit:        fp,
	})
	if err != nil {
		return nil, res, err
	}
	return res.X, res, nil
}

// variational is the IIR post-condition problem f(x) = ‖Bx − Au‖² with the
// full residual recomputed per gradient evaluation.
type variational struct {
	fp   *fpu.Unit
	a, b *linalg.LowerBand
	u    []float64
	r    []float64 // residual scratch
	rhs  []float64 // A·u scratch
}

var _ core.Problem = (*variational)(nil)

func (p *variational) Dim() int { return p.b.N }

// Grad computes Bᵀ(Bx − Au) on the stochastic unit, recomputing Au.
func (p *variational) Grad(x, grad []float64) {
	p.b.MulVec(p.fp, x, p.r)
	p.a.MulVec(p.fp, p.u, p.rhs)
	linalg.Sub(p.fp, p.r, p.rhs, p.r)
	p.b.TMulVec(p.fp, p.r, grad)
}

// Value evaluates ‖Bx − Au‖² reliably (control path).
func (p *variational) Value(x []float64) float64 {
	p.b.MulVec(nil, x, p.r)
	p.a.MulVec(nil, p.u, p.rhs)
	linalg.Sub(nil, p.r, p.rhs, p.r)
	return linalg.SqNorm2(nil, p.r)
}

// LinearSchedule returns the LS (1/t) schedule with η₀ = boost/λmax(BᵀB)
// for a t-sample problem (reliable setup).
func (f *Filter) LinearSchedule(t int, boost float64) solver.Schedule {
	return solver.Linear(boost / f.lipschitz(t))
}

// SqrtSchedule returns the SQS (1/√t) schedule, Lipschitz-scaled.
func (f *Filter) SqrtSchedule(t int, boost float64) solver.Schedule {
	return solver.Sqrt(boost / f.lipschitz(t))
}

func (f *Filter) lipschitz(t int) float64 {
	_, bOp := f.Matrices(t)
	l := linalg.PowerEstimate(bOp, 30)
	if l <= 0 {
		return 1
	}
	return l
}

// Ideal computes the exact filter output by a reliable feed-forward pass
// (ground truth for the error-to-signal metric).
func (f *Filter) Ideal(u []float64) []float64 {
	return f.Feedforward(nil, u)
}

// ErrorToSignal is the Fig 6.3 metric ‖y − y_ideal‖ / ‖y_ideal‖, evaluated
// reliably. Non-finite outputs score 1e30 so averages stay defined.
func ErrorToSignal(y, ideal []float64) float64 {
	if y == nil || !linalg.AllFinite(y) {
		return 1e30
	}
	return linalg.RelErr(y, ideal)
}

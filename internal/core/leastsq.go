package core

import (
	"fmt"

	"robustify/internal/fpu"
	"robustify/internal/linalg"
	"robustify/internal/robust"
)

// LeastSquares is the variational form of §4.1: minimize f(x) = ‖Ax − b‖²,
// generalized to f(x) = Σρ(rᵢ) for a pluggable robust loss ρ (nil loss =
// the quadratic ρ(r) = r², which is the paper's form and the default).
// It is the transformation target of both the least squares application and
// the IIR filter (whose banded post-condition ‖Bx − Au‖² is the same shape).
// Gradients ∇f = Aᵀψ(Ax − b) are evaluated on the stochastic FPU; the paper
// folds the conventional factor 2 into the step size, and so do we — which
// is why ψ = ρ′/2 (for the quadratic, ψ(r) = r exactly as before).
type LeastSquares struct {
	u    *fpu.Unit
	a    linalg.Operator
	b    []float64
	loss robust.Robustifier // nil = legacy quadratic path, bit-for-bit
	r    []float64          // residual scratch (rows)
	rv   []float64          // reliable-value scratch (rows)
}

var (
	_ Problem    = (*LeastSquares)(nil)
	_ Annealable = (*LeastSquares)(nil)
)

// NewLeastSquares builds the variational problem min ‖a·x − b‖² with
// gradients on u.
func NewLeastSquares(u *fpu.Unit, a linalg.Operator, b []float64) (*LeastSquares, error) {
	return NewRobustLeastSquares(u, a, b, nil)
}

// NewRobustLeastSquares builds min Σρ(rᵢ) over residuals r = a·x − b, with
// gradients Aᵀψ(r) on u. A nil loss selects the legacy quadratic path,
// whose op stream — and hence every per-seed outcome — is identical to what
// NewLeastSquares always produced; the quadratic Robustifier matches it too,
// since its ψ and weight are zero-FLOP identities.
func NewRobustLeastSquares(u *fpu.Unit, a linalg.Operator, b []float64, loss robust.Robustifier) (*LeastSquares, error) {
	rows, _ := a.Dims()
	if len(b) != rows {
		return nil, fmt.Errorf("%w: rhs has %d entries for %d rows", ErrBadProgram, len(b), rows)
	}
	return &LeastSquares{
		u: u, a: a, b: b, loss: loss,
		r:  make([]float64, rows),
		rv: make([]float64, rows),
	}, nil
}

// Dim implements Problem.
func (l *LeastSquares) Dim() int {
	_, cols := l.a.Dims()
	return cols
}

// Grad implements Problem: grad ← Aᵀψ(Ax − b) on the stochastic FPU. With
// a nil (or quadratic) loss ψ is the identity and this is the paper's
// Aᵀ(Ax − b), op for op.
func (l *LeastSquares) Grad(x, grad []float64) {
	l.a.MulVec(l.u, x, l.r)
	linalg.Sub(l.u, l.r, l.b, l.r)
	if l.loss != nil {
		for i, r := range l.r {
			l.r[i] = l.loss.Psi(l.u, r)
		}
	}
	l.a.TMulVec(l.u, l.r, grad)
}

// Value implements Problem: the exact objective Σρ(rᵢ) (the residual norm
// ‖Ax − b‖² for the quadratic default), evaluated reliably for the solver's
// control path.
func (l *LeastSquares) Value(x []float64) float64 {
	l.a.MulVec(nil, x, l.rv)
	linalg.Sub(nil, l.rv, l.b, l.rv)
	if l.loss == nil {
		return linalg.SqNorm2(nil, l.rv)
	}
	var v float64
	for _, r := range l.rv {
		v += l.loss.Rho(nil, r)
	}
	return v
}

// AnnealParam implements Annealable: the annealed parameter is the loss
// shape. Zero (legacy or quadratic loss, which has no shape) means nothing
// to anneal and the solver skips.
func (l *LeastSquares) AnnealParam() float64 {
	if l.loss == nil {
		return 0
	}
	return l.loss.Shape()
}

// SetAnnealParam implements Annealable (reliable control path).
func (l *LeastSquares) SetAnnealParam(s float64) {
	if l.loss != nil {
		l.loss.SetShape(s)
	}
}

// Lipschitz estimates λmax(AᵀA), the gradient's Lipschitz constant, as a
// reliable setup step. Step sizes around 1/λmax are stable for this
// problem.
func (l *LeastSquares) Lipschitz() float64 {
	return linalg.PowerEstimate(l.a, 30)
}

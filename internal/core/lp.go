package core

import (
	"errors"
	"fmt"

	"robustify/internal/fpu"
	"robustify/internal/linalg"
	"robustify/internal/robust"
)

// LinearProgram is the constrained variational form
//
//	minimize Cᵀx  subject to  Ineq·x ≤ BIneq, Eq·x = BEq.
//
// Either constraint block may be nil. Many of the paper's combinatorial
// transformations (sorting, matching, max-flow, shortest paths) land in this
// form; it is P-complete, which is what makes the methodology generic.
type LinearProgram struct {
	C     []float64
	Ineq  *linalg.Dense
	BIneq []float64
	Eq    *linalg.Dense
	BEq   []float64
}

// ErrBadProgram is returned for structurally invalid linear programs.
var ErrBadProgram = errors.New("core: malformed linear program")

// Validate checks dimensional consistency.
func (lp *LinearProgram) Validate() error {
	n := len(lp.C)
	if n == 0 {
		return fmt.Errorf("%w: empty objective", ErrBadProgram)
	}
	if (lp.Ineq == nil) != (lp.BIneq == nil) {
		return fmt.Errorf("%w: inequality matrix/rhs mismatch", ErrBadProgram)
	}
	if lp.Ineq != nil && (lp.Ineq.Cols != n || lp.Ineq.Rows != len(lp.BIneq)) {
		return fmt.Errorf("%w: inequality block is %dx%d with rhs %d, objective %d",
			ErrBadProgram, lp.Ineq.Rows, lp.Ineq.Cols, len(lp.BIneq), n)
	}
	if (lp.Eq == nil) != (lp.BEq == nil) {
		return fmt.Errorf("%w: equality matrix/rhs mismatch", ErrBadProgram)
	}
	if lp.Eq != nil && (lp.Eq.Cols != n || lp.Eq.Rows != len(lp.BEq)) {
		return fmt.Errorf("%w: equality block is %dx%d with rhs %d, objective %d",
			ErrBadProgram, lp.Eq.Rows, lp.Eq.Cols, len(lp.BEq), n)
	}
	return nil
}

// Dim returns the number of variables.
func (lp *LinearProgram) Dim() int { return len(lp.C) }

// MaxViolation returns the largest constraint violation at x, computed
// reliably (a control/metric path).
func (lp *LinearProgram) MaxViolation(x []float64) float64 {
	var worst float64
	if lp.Ineq != nil {
		r := make([]float64, lp.Ineq.Rows)
		lp.Ineq.MulVec(nil, x, r)
		for i, v := range r {
			if d := v - lp.BIneq[i]; d > worst {
				worst = d
			}
		}
	}
	if lp.Eq != nil {
		r := make([]float64, lp.Eq.Rows)
		lp.Eq.MulVec(nil, x, r)
		for i, v := range r {
			d := v - lp.BEq[i]
			if d < 0 {
				d = -d
			}
			if d > worst {
				worst = d
			}
		}
	}
	return worst
}

// PenaltyKind selects the exact penalty flavour of Theorem 2.
type PenaltyKind int

const (
	// PenaltyAbs is the ℓ1 exact penalty: μ·Σ|h| + μ·Σ[g]₊.
	PenaltyAbs PenaltyKind = iota + 1
	// PenaltyQuad is the quadratic penalty: μ·Σh² + μ·Σ[g]₊², the form
	// used in the paper's sorting/matching transformation (Eq 4.4).
	PenaltyQuad
	// PenaltyLoss applies a pluggable robust loss ρ to each violation:
	// μ·Σρ(h) + μ·Σρ([g]₊) (see NewRobustPenaltyLP). With the quadratic
	// Robustifier it reproduces PenaltyQuad bit-for-bit.
	PenaltyLoss
)

// String returns the penalty kind's name.
func (k PenaltyKind) String() string {
	switch k {
	case PenaltyAbs:
		return "abs"
	case PenaltyQuad:
		return "quad"
	case PenaltyLoss:
		return "loss"
	default:
		return "unknown"
	}
}

// PenaltyLP is the unconstrained exact-penalty form of a LinearProgram. It
// implements Problem (noisy gradients on the stochastic FPU, reliable
// Value) and Annealable.
type PenaltyLP struct {
	u    *fpu.Unit
	lp   LinearProgram
	kind PenaltyKind
	loss robust.Robustifier // non-nil iff kind == PenaltyLoss
	mu   float64

	// scratch buffers for gradient evaluation
	ri []float64
	re []float64
}

var (
	_ Problem    = (*PenaltyLP)(nil)
	_ Annealable = (*PenaltyLP)(nil)
)

// NewPenaltyLP converts lp into unconstrained exact penalty form with
// weight mu, evaluated on unit u (nil u = reliable).
func NewPenaltyLP(u *fpu.Unit, lp LinearProgram, kind PenaltyKind, mu float64) (*PenaltyLP, error) {
	if err := lp.Validate(); err != nil {
		return nil, err
	}
	if kind != PenaltyAbs && kind != PenaltyQuad {
		return nil, fmt.Errorf("%w: unknown penalty kind %d", ErrBadProgram, kind)
	}
	return newPenaltyLP(u, lp, kind, nil, mu)
}

// NewRobustPenaltyLP converts lp into unconstrained penalty form with each
// violation scored by the robust loss ρ: μ·Σρ(h) + μ·Σρ([g]₊). With the
// quadratic Robustifier the op sequence — and hence every per-seed outcome —
// is identical to NewPenaltyLP with PenaltyQuad; bounded-influence losses
// (Huber, Geman–McClure, …) cap how hard a single corrupted constraint row
// can yank the iterate.
func NewRobustPenaltyLP(u *fpu.Unit, lp LinearProgram, loss robust.Robustifier, mu float64) (*PenaltyLP, error) {
	if err := lp.Validate(); err != nil {
		return nil, err
	}
	if loss == nil {
		return nil, fmt.Errorf("%w: nil robust loss", ErrBadProgram)
	}
	return newPenaltyLP(u, lp, PenaltyLoss, loss, mu)
}

func newPenaltyLP(u *fpu.Unit, lp LinearProgram, kind PenaltyKind, loss robust.Robustifier, mu float64) (*PenaltyLP, error) {
	if mu <= 0 {
		return nil, fmt.Errorf("%w: penalty weight must be positive", ErrBadProgram)
	}
	p := &PenaltyLP{u: u, lp: lp, kind: kind, loss: loss, mu: mu}
	if lp.Ineq != nil {
		p.ri = make([]float64, lp.Ineq.Rows)
	}
	if lp.Eq != nil {
		p.re = make([]float64, lp.Eq.Rows)
	}
	return p, nil
}

// Kind returns the penalty flavour.
func (p *PenaltyLP) Kind() PenaltyKind { return p.kind }

// Dim implements Problem.
func (p *PenaltyLP) Dim() int { return p.lp.Dim() }

// AnnealParam implements Annealable: the annealed parameter is μ.
func (p *PenaltyLP) AnnealParam() float64 { return p.mu }

// SetAnnealParam implements Annealable.
func (p *PenaltyLP) SetAnnealParam(mu float64) { p.mu = mu }

// Grad implements Problem: ∇f = c + μ·Σ penalty terms, computed on the
// stochastic FPU.
func (p *PenaltyLP) Grad(x, grad []float64) {
	p.gradOn(p.u, x, grad)
}

// Value implements Problem: the exact objective, computed reliably.
func (p *PenaltyLP) Value(x []float64) float64 {
	return p.valueOn(nil, x)
}

func (p *PenaltyLP) valueOn(u *fpu.Unit, x []float64) float64 {
	v := linalg.Dot(u, p.lp.C, x)
	if p.lp.Ineq != nil {
		p.lp.Ineq.MulVec(u, x, p.ri)
		for i, r := range p.ri {
			viol := u.Hinge(u.Sub(r, p.lp.BIneq[i]))
			switch p.kind {
			case PenaltyAbs: // the hinge already is the absolute violation
			case PenaltyQuad:
				viol = u.Mul(viol, viol)
			case PenaltyLoss:
				viol = p.loss.Rho(u, viol)
			}
			v = u.Add(v, u.Mul(p.mu, viol))
		}
	}
	if p.lp.Eq != nil {
		p.lp.Eq.MulVec(u, x, p.re)
		for i, r := range p.re {
			d := u.Sub(r, p.lp.BEq[i])
			switch p.kind {
			case PenaltyQuad:
				d = u.Mul(d, d)
			case PenaltyLoss:
				d = p.loss.Rho(u, d)
			case PenaltyAbs:
				d = u.Abs(d)
			default:
				d = u.Abs(d)
			}
			v = u.Add(v, u.Mul(p.mu, d))
		}
	}
	return v
}

func (p *PenaltyLP) gradOn(u *fpu.Unit, x, grad []float64) {
	if len(x) != p.Dim() || len(grad) != p.Dim() {
		panic(linalg.ErrShape)
	}
	copy(grad, p.lp.C)
	if p.lp.Ineq != nil {
		p.lp.Ineq.MulVec(u, x, p.ri)
		for i, r := range p.ri {
			viol := u.Hinge(u.Sub(r, p.lp.BIneq[i]))
			if viol == 0 {
				continue
			}
			// abs: +μ·row; quad: +2μ·viol·row; loss: +2μ·ψ(viol)·row
			w := p.mu
			switch p.kind {
			case PenaltyAbs: // subgradient weight is μ itself
			case PenaltyQuad:
				w = u.Mul(u.Mul(2, p.mu), viol)
			case PenaltyLoss:
				w = u.Mul(u.Mul(2, p.mu), p.loss.Psi(u, viol))
			}
			linalg.Axpy(u, w, p.lp.Ineq.Row(i), grad)
		}
	}
	if p.lp.Eq != nil {
		p.lp.Eq.MulVec(u, x, p.re)
		for i, r := range p.re {
			d := u.Sub(r, p.lp.BEq[i])
			if d == 0 {
				continue
			}
			var w float64
			switch {
			case p.kind == PenaltyQuad:
				w = u.Mul(u.Mul(2, p.mu), d)
			case p.kind == PenaltyLoss:
				w = u.Mul(u.Mul(2, p.mu), p.loss.Psi(u, d))
			case d > 0: // sign-bit read: reliable, like Hinge
				w = p.mu
			default:
				w = -p.mu
			}
			linalg.Axpy(u, w, p.lp.Eq.Row(i), grad)
		}
	}
}

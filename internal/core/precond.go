package core

import (
	"fmt"

	"robustify/internal/fpu"
	"robustify/internal/linalg"
)

// PreconditionedLP is the §6.2.1 transformation of an inequality-only
// penalty LP: with A = Q·R (thin QR) and y = R·x, minimize
//
//	c_newᵀ·y + μ·Σ[Q·y − b]₊ᵖ    where Rᵀ·c_new = c,
//
// whose constraint geometry (orthonormal Q) is far better conditioned than
// the original. The factorization and the final back-substitution are
// one-time setup/recovery steps on the reliable path; gradient evaluations
// in y-space run on the stochastic FPU.
type PreconditionedLP struct {
	inner *PenaltyLP
	r     *linalg.Dense
}

var (
	_ Problem    = (*PreconditionedLP)(nil)
	_ Annealable = (*PreconditionedLP)(nil)
)

// Precondition rewrites the inequality-only program lp in QR-preconditioned
// coordinates, with gradients evaluated on u. The inequality matrix must be
// tall (rows ≥ cols) and of full column rank.
func Precondition(u *fpu.Unit, lp LinearProgram, kind PenaltyKind, mu float64) (*PreconditionedLP, error) {
	if err := lp.Validate(); err != nil {
		return nil, err
	}
	if lp.Eq != nil {
		return nil, fmt.Errorf("%w: preconditioning requires an inequality-only program", ErrBadProgram)
	}
	if lp.Ineq == nil {
		return nil, fmt.Errorf("%w: preconditioning requires constraints", ErrBadProgram)
	}
	// Reliable setup: A = Q R.
	f, err := linalg.QR(nil, lp.Ineq)
	if err != nil {
		return nil, fmt.Errorf("core: preconditioner QR: %w", err)
	}
	q := f.Q(nil)
	r := f.R()
	// Rᵀ c_new = c.
	cNew, err := linalg.SolveUpperT(nil, r, lp.C)
	if err != nil {
		return nil, fmt.Errorf("core: preconditioner objective transform: %w", err)
	}
	b := make([]float64, len(lp.BIneq))
	copy(b, lp.BIneq)
	inner, err := NewPenaltyLP(u, LinearProgram{C: cNew, Ineq: q, BIneq: b}, kind, mu)
	if err != nil {
		return nil, err
	}
	return &PreconditionedLP{inner: inner, r: r}, nil
}

// Dim implements Problem.
func (p *PreconditionedLP) Dim() int { return p.inner.Dim() }

// Grad implements Problem in the preconditioned coordinates.
func (p *PreconditionedLP) Grad(y, grad []float64) { p.inner.Grad(y, grad) }

// Value implements Problem (reliable evaluation in y-space).
func (p *PreconditionedLP) Value(y []float64) float64 { return p.inner.Value(y) }

// AnnealParam implements Annealable: the annealed parameter is μ.
func (p *PreconditionedLP) AnnealParam() float64 { return p.inner.AnnealParam() }

// SetAnnealParam implements Annealable.
func (p *PreconditionedLP) SetAnnealParam(mu float64) { p.inner.SetAnnealParam(mu) }

// InitialY maps an initial iterate into y-space: y₀ = R·x₀ (reliable setup).
func (p *PreconditionedLP) InitialY(x0 []float64) []float64 {
	y := make([]float64, len(x0))
	p.r.MulVec(nil, x0, y)
	return y
}

// Recover maps a y-space solution back to x: solve R·x = y reliably.
func (p *PreconditionedLP) Recover(y []float64) ([]float64, error) {
	return linalg.SolveUpper(nil, p.r, y)
}

package core

import (
	"fmt"

	"robustify/internal/fpu"
	"robustify/internal/linalg"
)

// Assignment is the unconstrained exact quadratic penalty form of the
// linear assignment family (paper Eqs 4.3–4.5), shared by the sorting and
// bipartite matching transformations:
//
//	maximize  Σᵢⱼ Wᵢⱼ·Xᵢⱼ
//	s.t.      Xᵢⱼ ≥ 0,  Σⱼ Xᵢⱼ ≤ 1,  Σᵢ Xᵢⱼ ≤ 1,
//
// i.e. a linear objective over doubly (sub)stochastic matrices, whose
// extreme points are the permutation/assignment matrices. The penalized
// objective minimized here is
//
//	f(X) = −Σ Wᵢⱼ·Xᵢⱼ + μ·λ₁·Σ[−Xᵢⱼ]₊² + μ·λ₂·Σᵢ[Σⱼ Xᵢⱼ−1]₊² + μ·λ₂·Σⱼ[Σᵢ Xᵢⱼ−1]₊².
//
// For the LP optimum to be a full assignment, weights should be positive;
// callers with signed data (e.g. sorting arbitrary arrays) shift them first.
type Assignment struct {
	u      *fpu.Unit
	w      *linalg.Dense
	l1, l2 float64
	mu     float64

	rowSum, colSum []float64 // gradient scratch
}

var (
	_ Problem    = (*Assignment)(nil)
	_ Annealable = (*Assignment)(nil)
)

// NewAssignment builds the penalized assignment problem over weight matrix
// w (maximized), evaluated on unit u. l1 weighs the non-negativity
// penalties, l2 the row/column-sum penalties; the anneal multiplier μ
// starts at 1 and scales both.
func NewAssignment(u *fpu.Unit, w *linalg.Dense, l1, l2 float64) (*Assignment, error) {
	if w == nil || w.Rows == 0 || w.Cols == 0 {
		return nil, fmt.Errorf("%w: empty weight matrix", ErrBadProgram)
	}
	if l1 <= 0 || l2 <= 0 {
		return nil, fmt.Errorf("%w: penalty weights must be positive", ErrBadProgram)
	}
	return &Assignment{
		u:      u,
		w:      w,
		l1:     l1,
		l2:     l2,
		mu:     1,
		rowSum: make([]float64, w.Rows),
		colSum: make([]float64, w.Cols),
	}, nil
}

// Dim implements Problem: X is optimized flattened row-major.
func (a *Assignment) Dim() int { return a.w.Rows * a.w.Cols }

// AnnealParam implements Annealable: the annealed parameter is μ.
func (a *Assignment) AnnealParam() float64 { return a.mu }

// SetAnnealParam implements Annealable.
func (a *Assignment) SetAnnealParam(mu float64) { a.mu = mu }

// UniformStart returns the center of the Birkhoff polytope, X₀ = 1/max(n,m)
// everywhere — the natural unbiased initial iterate.
func (a *Assignment) UniformStart() []float64 {
	x := make([]float64, a.Dim())
	d := a.w.Rows
	if a.w.Cols > d {
		d = a.w.Cols
	}
	linalg.Fill(x, 1/float64(d))
	return x
}

// Grad implements Problem (the sign-corrected Eq 4.5):
//
//	[∇f]ᵢⱼ = −Wᵢⱼ − 2μλ₁[−Xᵢⱼ]₊ + 2μλ₂[Σⱼ Xᵢⱼ−1]₊ + 2μλ₂[Σᵢ Xᵢⱼ−1]₊.
func (a *Assignment) Grad(x, grad []float64) {
	a.gradOn(a.u, x, grad)
}

// Value implements Problem: exact penalized objective, evaluated reliably.
func (a *Assignment) Value(x []float64) float64 {
	return a.valueOn(nil, x)
}

// sums accumulates row and column sums of X with batched kernels: per row,
// all row-sum adds then all column-sum adds, rather than interleaving the
// two per element. The op count and fault statistics are unchanged, but
// scheduled faults land on different operations than under the interleaved
// order, so per-seed outcomes differ from (while remaining statistically
// equivalent to) the unbatched form.
func (a *Assignment) sums(u *fpu.Unit, x []float64) {
	rows, cols := a.w.Rows, a.w.Cols
	linalg.Fill(a.colSum, 0)
	for i := 0; i < rows; i++ {
		row := x[i*cols : (i+1)*cols]
		a.rowSum[i] = linalg.Sum(u, row)
		linalg.Add(u, a.colSum, row, a.colSum)
	}
}

func (a *Assignment) valueOn(u *fpu.Unit, x []float64) float64 {
	if len(x) != a.Dim() {
		panic(linalg.ErrShape)
	}
	rows, cols := a.w.Rows, a.w.Cols
	a.sums(u, x)
	var v float64
	for i := 0; i < rows; i++ {
		base := i * cols
		for j := 0; j < cols; j++ {
			xij := x[base+j]
			v = u.Sub(v, u.Mul(a.w.At(i, j), xij))
			neg := u.Hinge(u.Neg(xij))
			if neg != 0 {
				v = u.Add(v, u.Mul(u.Mul(a.mu, a.l1), u.Mul(neg, neg)))
			}
		}
	}
	for _, s := range a.rowSum {
		over := u.Hinge(u.Sub(s, 1))
		if over != 0 {
			v = u.Add(v, u.Mul(u.Mul(a.mu, a.l2), u.Mul(over, over)))
		}
	}
	for _, s := range a.colSum {
		over := u.Hinge(u.Sub(s, 1))
		if over != 0 {
			v = u.Add(v, u.Mul(u.Mul(a.mu, a.l2), u.Mul(over, over)))
		}
	}
	return v
}

func (a *Assignment) gradOn(u *fpu.Unit, x, grad []float64) {
	if len(x) != a.Dim() || len(grad) != a.Dim() {
		panic(linalg.ErrShape)
	}
	rows, cols := a.w.Rows, a.w.Cols
	a.sums(u, x)
	// Precompute per-row and per-column overshoot terms 2μλ₂[s−1]₊.
	two := u.Mul(2, a.mu)
	for i, s := range a.rowSum {
		a.rowSum[i] = u.Mul(u.Mul(two, a.l2), u.Hinge(u.Sub(s, 1)))
	}
	for j, s := range a.colSum {
		a.colSum[j] = u.Mul(u.Mul(two, a.l2), u.Hinge(u.Sub(s, 1)))
	}
	for i := 0; i < rows; i++ {
		base := i * cols
		for j := 0; j < cols; j++ {
			// The linear term −Wᵢⱼ passes through the FPU every iteration
			// (the paper evaluates −uᵢ·vⱼ on the faulty unit per step), so
			// faults on it stay transient and unbiased.
			g := u.Neg(u.Mul(a.w.At(i, j), 1))
			if neg := u.Hinge(u.Neg(x[base+j])); neg != 0 {
				g = u.Sub(g, u.Mul(u.Mul(two, a.l1), neg))
			}
			if a.rowSum[i] != 0 {
				g = u.Add(g, a.rowSum[i])
			}
			if a.colSum[j] != 0 {
				g = u.Add(g, a.colSum[j])
			}
			grad[base+j] = g
		}
	}
}

// ToLP expresses the assignment constraints as an inequality-only
// LinearProgram (for the preconditioned solver path, §6.2.1):
// rows: n row-sum rows, m column-sum rows, then n·m non-negativity rows.
func (a *Assignment) ToLP() LinearProgram {
	rows, cols := a.w.Rows, a.w.Cols
	n := rows * cols
	c := make([]float64, n)
	for i := 0; i < rows; i++ {
		for j := 0; j < cols; j++ {
			c[i*cols+j] = -a.w.At(i, j)
		}
	}
	ineq := linalg.NewDense(rows+cols+n, n)
	b := make([]float64, rows+cols+n)
	for i := 0; i < rows; i++ {
		for j := 0; j < cols; j++ {
			ineq.Set(i, i*cols+j, 1)
		}
		b[i] = 1
	}
	for j := 0; j < cols; j++ {
		for i := 0; i < rows; i++ {
			ineq.Set(rows+j, i*cols+j, 1)
		}
		b[rows+j] = 1
	}
	for k := 0; k < n; k++ {
		ineq.Set(rows+cols+k, k, -1)
		b[rows+cols+k] = 0
	}
	return LinearProgram{C: c, Ineq: ineq, BIneq: b}
}

// Round extracts an assignment from a relaxed solution x by reliable greedy
// rounding: repeatedly take the largest remaining entry and cross out its
// row and column. The result maps each row to a column (−1 when the row is
// unassigned, possible only when rows > cols). This is a control step and
// uses exact arithmetic.
func (a *Assignment) Round(x []float64) []int {
	return RoundAssignment(a.w.Rows, a.w.Cols, x)
}

// RoundAssignment is Round as a standalone function over a flattened
// rows×cols matrix, for callers that solved the problem in transformed
// coordinates (e.g. the preconditioned path).
func RoundAssignment(rows, cols int, x []float64) []int {
	assign := make([]int, rows)
	for i := range assign {
		assign[i] = -1
	}
	usedRow := make([]bool, rows)
	usedCol := make([]bool, cols)
	k := rows
	if cols < k {
		k = cols
	}
	for picked := 0; picked < k; picked++ {
		bestI, bestJ := -1, -1
		best := 0.0
		for i := 0; i < rows; i++ {
			if usedRow[i] {
				continue
			}
			base := i * cols
			for j := 0; j < cols; j++ {
				if usedCol[j] {
					continue
				}
				v := x[base+j]
				if v != v { // NaN: never pick
					continue
				}
				if bestI < 0 || v > best {
					best, bestI, bestJ = v, i, j
				}
			}
		}
		if bestI < 0 {
			break
		}
		assign[bestI] = bestJ
		usedRow[bestI] = true
		usedCol[bestJ] = true
	}
	return assign
}

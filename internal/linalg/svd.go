package linalg

import "robustify/internal/fpu"

// SVDFactor holds a thin singular value decomposition A = U·diag(S)·Vᵀ with
// A m×n (m ≥ n), U m×n with orthonormal columns, V n×n orthogonal.
type SVDFactor struct {
	U *Dense
	S []float64
	V *Dense
}

// svdMaxSweeps bounds the one-sided Jacobi iteration. 30 sweeps converge
// any well-posed double-precision problem; under fault injection the sweep
// limit keeps the factorization from spinning forever.
const svdMaxSweeps = 30

// SVD computes a thin SVD of A (m×n, m ≥ n) on u using one-sided Jacobi
// rotations (Hestenes method): columns of a working copy of A are rotated
// pairwise until mutually orthogonal; their norms are the singular values.
func SVD(u *fpu.Unit, a *Dense) (*SVDFactor, error) {
	m, n := a.Rows, a.Cols
	if m < n {
		return nil, ErrShape
	}
	w := a.Clone() // working columns, becomes U·diag(S)
	v := Eye(n)
	const tol = 1e-14
	for sweep := 0; sweep < svdMaxSweeps; sweep++ {
		rotated := false
		for p := 0; p < n-1; p++ {
			for q := p + 1; q < n; q++ {
				// Compute the 2×2 Gram entries for columns p, q.
				var app, aqq, apq float64
				for i := 0; i < m; i++ {
					wp := w.At(i, p)
					wq := w.At(i, q)
					app = u.Add(app, u.Mul(wp, wp))
					aqq = u.Add(aqq, u.Mul(wq, wq))
					apq = u.Add(apq, u.Mul(wp, wq))
				}
				if abs(apq) <= tol*u.Sqrt(u.Mul(app, aqq)) {
					continue
				}
				// Jacobi rotation annihilating apq.
				tau := u.Div(u.Sub(aqq, app), u.Mul(2, apq))
				var t float64
				if tau >= 0 {
					t = u.Div(1, u.Add(tau, u.Sqrt(u.Add(1, u.Mul(tau, tau)))))
				} else {
					t = u.Div(-1, u.Add(-tau, u.Sqrt(u.Add(1, u.Mul(tau, tau)))))
				}
				c := u.Div(1, u.Sqrt(u.Add(1, u.Mul(t, t))))
				s := u.Mul(c, t)
				rotateCols(u, w, p, q, c, s)
				rotateCols(u, v, p, q, c, s)
				rotated = true
			}
		}
		if !rotated {
			break
		}
	}
	// Extract singular values and normalize U's columns.
	s := make([]float64, n)
	uMat := NewDense(m, n)
	for j := 0; j < n; j++ {
		var sq float64
		for i := 0; i < m; i++ {
			wij := w.At(i, j)
			sq = u.Add(sq, u.Mul(wij, wij))
		}
		s[j] = u.Sqrt(sq)
		if s[j] > 0 {
			inv := u.Div(1, s[j])
			for i := 0; i < m; i++ {
				uMat.Set(i, j, u.Mul(w.At(i, j), inv))
			}
		}
	}
	// Sort singular values descending (reliable control path).
	order := make([]int, n)
	for i := range order {
		order[i] = i
	}
	for i := 0; i < n; i++ {
		best := i
		for j := i + 1; j < n; j++ {
			if s[order[j]] > s[order[best]] {
				best = j
			}
		}
		order[i], order[best] = order[best], order[i]
	}
	f := &SVDFactor{U: NewDense(m, n), S: make([]float64, n), V: NewDense(n, n)}
	for newJ, oldJ := range order {
		f.S[newJ] = s[oldJ]
		for i := 0; i < m; i++ {
			f.U.Set(i, newJ, uMat.At(i, oldJ))
		}
		for i := 0; i < n; i++ {
			f.V.Set(i, newJ, v.At(i, oldJ))
		}
	}
	return f, nil
}

// rotateCols applies the Givens rotation [c -s; s c] to columns p and q.
func rotateCols(u *fpu.Unit, m *Dense, p, q int, c, s float64) {
	for i := 0; i < m.Rows; i++ {
		mp := m.At(i, p)
		mq := m.At(i, q)
		m.Set(i, p, u.Sub(u.Mul(c, mp), u.Mul(s, mq)))
		m.Set(i, q, u.Add(u.Mul(s, mp), u.Mul(c, mq)))
	}
}

// Solve returns the minimum-norm least-squares solution of A·x = b on u via
// the pseudo-inverse x = V·diag(1/S)·Uᵀ·b. Singular values below rcond
// times the largest are treated as zero.
func (f *SVDFactor) Solve(u *fpu.Unit, b []float64, rcond float64) ([]float64, error) {
	m, n := f.U.Rows, f.V.Rows
	if len(b) != m {
		return nil, ErrShape
	}
	if rcond <= 0 {
		rcond = 1e-13
	}
	cutoff := rcond * f.S[0]
	// c ← Uᵀ b, scaled by 1/s.
	c := make([]float64, n)
	f.U.TMulVec(u, b, c)
	for j := 0; j < n; j++ {
		if f.S[j] > cutoff {
			c[j] = u.Div(c[j], f.S[j])
		} else {
			c[j] = 0
		}
	}
	x := make([]float64, n)
	f.V.MulVec(u, c, x)
	return x, nil
}

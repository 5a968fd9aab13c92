// Package eigen implements the paper's §4.7 extension: computing the top
// eigenpair of a symmetric matrix on a stochastic processor by maximizing
// the Rayleigh quotient with noisy gradient ascent. (Further pairs follow
// by deflating and repeating; no workload here needs them.) The
// conventional power iteration serves as the faulty baseline.
package eigen

import (
	"errors"
	"math"
	"math/rand"

	"robustify/internal/fpu"
	"robustify/internal/linalg"
	"robustify/internal/solver"
)

// ErrBadMatrix is returned for non-square inputs.
var ErrBadMatrix = errors.New("eigen: matrix must be square and symmetric")

// RandomSymmetric generates a random symmetric matrix with a controlled
// spectral gap: eigenvalues n, n−1, …, 1 under a random orthogonal basis.
func RandomSymmetric(rng *rand.Rand, n int) *linalg.Dense {
	// Random orthogonal Q from QR of a Gaussian matrix.
	g := linalg.NewDense(n, n)
	for i := range g.Data {
		g.Data[i] = rng.NormFloat64()
	}
	f, err := linalg.QR(nil, g)
	if err != nil {
		// Probability-zero fallback: identity basis.
		return linalg.Eye(n)
	}
	q := f.Q(nil)
	// M = Q diag(n..1) Qᵀ.
	m := linalg.NewDense(n, n)
	for k := 0; k < n; k++ {
		lambda := float64(n - k)
		for i := 0; i < n; i++ {
			qik := q.At(i, k)
			if qik == 0 {
				continue
			}
			for j := 0; j < n; j++ {
				m.Set(i, j, m.At(i, j)+lambda*qik*q.At(j, k))
			}
		}
	}
	return m
}

// PowerIteration is the conventional baseline: repeated multiplication and
// normalization on u. It returns the eigenvalue estimate and vector.
func PowerIteration(u *fpu.Unit, m *linalg.Dense, iters int) (float64, []float64) {
	n := m.Rows
	x := make([]float64, n)
	y := make([]float64, n)
	for i := range x {
		x[i] = 1 / math.Sqrt(float64(n))
	}
	for k := 0; k < iters; k++ {
		m.MulVec(u, x, y)
		norm := linalg.Norm2(u, y)
		if norm == 0 || norm != norm {
			return math.NaN(), x
		}
		linalg.Scale(u, u.Div(1, norm), y)
		copy(x, y)
	}
	m.MulVec(u, x, y)
	return linalg.Dot(u, x, y), x
}

// Options configures the robust Rayleigh ascent.
type Options struct {
	Iters    int
	Schedule solver.Schedule // nil: Sqrt(0.5/λmax-estimate)
}

// TopEigen robustly computes the dominant eigenpair by maximizing the
// Rayleigh quotient R(x) = xᵀMx / xᵀx: gradient steps on the faulty unit,
// with normalization and step control reliable. The gradient used is
// ∇R ∝ Mx − R(x)·x evaluated at unit norm.
func TopEigen(u *fpu.Unit, m *linalg.Dense, o Options) (float64, []float64, error) {
	n := m.Rows
	if m.Cols != n {
		return 0, nil, ErrBadMatrix
	}
	iters := o.Iters
	if iters <= 0 {
		iters = 300
	}
	sched := o.Schedule
	if sched == nil {
		l := linalg.PowerEstimate(m, 20)
		if l <= 0 {
			l = 1
		}
		sched = solver.Sqrt(0.5 / math.Sqrt(l))
	}
	x := make([]float64, n)
	mx := make([]float64, n)
	grad := make([]float64, n)
	for i := range x {
		x[i] = 1 / math.Sqrt(float64(n))
	}
	lambda := 0.0
	for t := 1; t <= iters; t++ {
		// Data path: M·x and the Rayleigh quotient pieces on the unit.
		m.MulVec(u, x, mx)
		num := linalg.Dot(u, x, mx)
		// Reliable control: normalization keeps ‖x‖ = 1, so R = num.
		if !linalg.AllFinite(mx) || num != num || math.IsInf(num, 0) {
			continue // skip the corrupted step
		}
		lambda = num
		for i := range grad {
			grad[i] = u.Sub(mx[i], u.Mul(num, x[i]))
		}
		if !linalg.AllFinite(grad) {
			continue
		}
		step := sched(t)
		for i := range x {
			x[i] += step * grad[i] // ascent; reliable update
		}
		// Reliable re-normalization (control).
		norm := 0.0
		for _, v := range x {
			norm += v * v
		}
		norm = math.Sqrt(norm)
		if norm == 0 {
			return 0, nil, errors.New("eigen: iterate collapsed")
		}
		for i := range x {
			x[i] /= norm
		}
	}
	return lambda, x, nil
}

package linalg

import "robustify/internal/fpu"

// Operator is a linear operator with forward and transpose matrix-vector
// products evaluated on an FPU unit. Dense and LowerBand both satisfy it,
// letting the least-squares machinery work on dense systems and on the
// banded systems of the IIR transformation alike.
type Operator interface {
	// Dims returns the operator's (rows, cols).
	Dims() (rows, cols int)
	// MulVec sets dst ← A·x on u (dst must not alias x).
	MulVec(u *fpu.Unit, x, dst []float64)
	// TMulVec sets dst ← Aᵀ·x on u (dst must not alias x).
	TMulVec(u *fpu.Unit, x, dst []float64)
}

// Dims implements Operator.
func (m *Dense) Dims() (int, int) { return m.Rows, m.Cols }

// Dims implements Operator.
func (b *LowerBand) Dims() (int, int) { return b.N, b.N }

var (
	_ Operator = (*Dense)(nil)
	_ Operator = (*LowerBand)(nil)
)

// PowerEstimate returns an estimate of the largest eigenvalue of AᵀA by
// power iteration with exact arithmetic. It is used as a reliable setup
// step to pick stable gradient step sizes (the Lipschitz constant of the
// least-squares gradient).
func PowerEstimate(a Operator, iters int) float64 {
	rows, cols := a.Dims()
	x := make([]float64, cols)
	tmp := make([]float64, rows)
	y := make([]float64, cols)
	// Deterministic, generic start vector with energy in all coordinates.
	for i := range x {
		x[i] = 1 + float64(i%7)/7
	}
	lambda := 0.0
	for k := 0; k < iters; k++ {
		a.MulVec(nil, x, tmp)
		a.TMulVec(nil, tmp, y)
		lambda = Norm2(nil, y)
		if lambda == 0 {
			return 0
		}
		Scale(nil, 1/lambda, y)
		copy(x, y)
	}
	return lambda
}

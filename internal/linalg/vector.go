// Package linalg provides dense and banded linear algebra kernels whose
// every floating point operation flows through an fpu.Unit, so the same code
// serves as a reliable reference (nil unit) and as a fault-exposed kernel on
// a stochastic processor.
//
// The package is deliberately small and allocation-conscious: kernels write
// into caller-provided destinations wherever a natural destination exists.
package linalg

import (
	"errors"
	"math"

	"robustify/internal/fpu"
)

// ErrShape is returned when operand dimensions do not conform.
var ErrShape = errors.New("linalg: dimension mismatch")

// Dot returns aᵀb computed on u's batched kernel.
func Dot(u *fpu.Unit, a, b []float64) float64 {
	if len(a) != len(b) {
		panic(ErrShape)
	}
	return u.Dot(a, b)
}

// Axpy sets y ← y + alpha·x on u's batched kernel.
func Axpy(u *fpu.Unit, alpha float64, x, y []float64) {
	if len(x) != len(y) {
		panic(ErrShape)
	}
	u.Axpy(alpha, x, y)
}

// Xpay sets y ← x + alpha·y on u's batched kernel (the CG direction
// recurrence).
func Xpay(u *fpu.Unit, x []float64, alpha float64, y []float64) {
	if len(x) != len(y) {
		panic(ErrShape)
	}
	u.Xpay(x, alpha, y)
}

// Scale sets x ← alpha·x on u's batched kernel.
func Scale(u *fpu.Unit, alpha float64, x []float64) {
	u.Scale(alpha, x)
}

// Sum returns Σ x[i] computed on u's batched kernel.
func Sum(u *fpu.Unit, x []float64) float64 {
	return u.Sum(x)
}

// Norm2 returns ‖x‖₂ computed on u's batched kernel.
func Norm2(u *fpu.Unit, x []float64) float64 {
	return u.Norm2(x)
}

// SqNorm2 returns ‖x‖₂² computed on u.
func SqNorm2(u *fpu.Unit, x []float64) float64 {
	return Dot(u, x, x)
}

// Sub sets dst ← a − b on u's batched kernel.
func Sub(u *fpu.Unit, a, b, dst []float64) {
	if len(a) != len(b) || len(a) != len(dst) {
		panic(ErrShape)
	}
	u.SubVec(a, b, dst)
}

// Add sets dst ← a + b on u's batched kernel.
func Add(u *fpu.Unit, a, b, dst []float64) {
	if len(a) != len(b) || len(a) != len(dst) {
		panic(ErrShape)
	}
	u.AddVec(a, b, dst)
}

// Copy copies src into dst (no FLOPs).
func Copy(dst, src []float64) {
	if len(dst) != len(src) {
		panic(ErrShape)
	}
	copy(dst, src)
}

// Fill sets every element of x to v (no FLOPs).
func Fill(x []float64, v float64) {
	for i := range x {
		x[i] = v
	}
}

// AllFinite reports whether every element of x is finite. This is a
// reliable control-path check (no FPU ops).
func AllFinite(x []float64) bool {
	for _, v := range x {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return false
		}
	}
	return true
}

// RelErr returns ‖a−b‖₂ / ‖b‖₂ computed reliably (control path / metrics).
// A zero-norm b falls back to the absolute error.
func RelErr(a, b []float64) float64 {
	if len(a) != len(b) {
		panic(ErrShape)
	}
	var num, den float64
	for i := range a {
		d := a[i] - b[i]
		num += d * d
		den += b[i] * b[i]
	}
	if den == 0 {
		return math.Sqrt(num)
	}
	return math.Sqrt(num / den)
}

package core

import (
	"math"
	"math/rand"
	"testing"

	"robustify/internal/linalg"
)

func TestPreconditionRequiresIneqOnly(t *testing.T) {
	lp := LinearProgram{
		C:  []float64{1},
		Eq: linalg.DenseOf([][]float64{{1}}), BEq: []float64{0},
	}
	if _, err := Precondition(nil, lp, PenaltyQuad, 1); err == nil {
		t.Error("equality-constrained LP accepted")
	}
	if _, err := Precondition(nil, LinearProgram{C: []float64{1}}, PenaltyQuad, 1); err == nil {
		t.Error("unconstrained LP accepted")
	}
}

// TestPreconditionedValueMatchesOriginal: f_pre(R·x) must equal f(x) for
// any x — the transform is a change of variables, not a different problem.
func TestPreconditionedValueMatchesOriginal(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	c := []float64{1, -2, 0.5}
	lp := boxLP(c, 0, 1)
	orig, err := NewPenaltyLP(nil, lp, PenaltyQuad, 3)
	if err != nil {
		t.Fatal(err)
	}
	pre, err := Precondition(nil, lp, PenaltyQuad, 3)
	if err != nil {
		t.Fatal(err)
	}
	for trial := 0; trial < 50; trial++ {
		x := make([]float64, 3)
		for i := range x {
			x[i] = rng.NormFloat64()
		}
		y := pre.InitialY(x)
		if got, want := pre.Value(y), orig.Value(x); math.Abs(got-want) > 1e-9*(1+math.Abs(want)) {
			t.Fatalf("trial %d: preconditioned value %v, original %v", trial, got, want)
		}
	}
}

func TestPreconditionedRecoverRoundTrips(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	lp := boxLP([]float64{1, 2, 3, 4}, -1, 1)
	pre, err := Precondition(nil, lp, PenaltyAbs, 2)
	if err != nil {
		t.Fatal(err)
	}
	for trial := 0; trial < 20; trial++ {
		x := make([]float64, 4)
		for i := range x {
			x[i] = rng.NormFloat64()
		}
		y := pre.InitialY(x)
		back, err := pre.Recover(y)
		if err != nil {
			t.Fatal(err)
		}
		if re := linalg.RelErr(back, x); re > 1e-10 {
			t.Fatalf("trial %d: recover error %v", trial, re)
		}
	}
}

func TestPreconditionedAnnealDelegates(t *testing.T) {
	lp := boxLP([]float64{1, 1}, 0, 1)
	pre, err := Precondition(nil, lp, PenaltyQuad, 2)
	if err != nil {
		t.Fatal(err)
	}
	pre.SetAnnealParam(10)
	if pre.AnnealParam() != 10 || pre.inner.mu != 10 {
		t.Errorf("anneal delegation broken: mu = %v, inner mu = %v", pre.AnnealParam(), pre.inner.mu)
	}
}

// TestPreconditionedConstraintsOrthonormal: the transformed constraint
// matrix Q has orthonormal columns, i.e. the preconditioned problem's
// constraint Gram matrix is the identity — the "bowl not valley" property.
func TestPreconditionedConstraintsOrthonormal(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	n := 4
	ineq := linalg.NewDense(9, n)
	for i := range ineq.Data {
		ineq.Data[i] = rng.NormFloat64()
	}
	b := make([]float64, 9)
	lp := LinearProgram{C: []float64{1, 1, 1, 1}, Ineq: ineq, BIneq: b}
	pre, err := Precondition(nil, lp, PenaltyQuad, 1)
	if err != nil {
		t.Fatal(err)
	}
	gram := pre.inner.lp.Ineq.Gram(nil)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			want := 0.0
			if i == j {
				want = 1
			}
			if math.Abs(gram.At(i, j)-want) > 1e-10 {
				t.Fatalf("QᵀQ(%d,%d) = %v", i, j, gram.At(i, j))
			}
		}
	}
}

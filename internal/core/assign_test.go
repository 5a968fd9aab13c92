package core

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"robustify/internal/linalg"
)

func randWeights(rng *rand.Rand, r, c int) *linalg.Dense {
	w := linalg.NewDense(r, c)
	for i := range w.Data {
		w.Data[i] = 0.5 + rng.Float64() // positive weights
	}
	return w
}

func TestNewAssignmentRejectsBadArgs(t *testing.T) {
	if _, err := NewAssignment(nil, nil, 1, 1); err == nil {
		t.Error("nil weights accepted")
	}
	w := linalg.NewDense(2, 2)
	if _, err := NewAssignment(nil, w, 0, 1); err == nil {
		t.Error("zero l1 accepted")
	}
	if _, err := NewAssignment(nil, w, 1, -1); err == nil {
		t.Error("negative l2 accepted")
	}
}

func TestAssignmentDims(t *testing.T) {
	a, err := NewAssignment(nil, linalg.NewDense(3, 5), 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	if a.w.Rows != 3 || a.w.Cols != 5 || a.Dim() != 15 {
		t.Errorf("dims = %d %d %d", a.w.Rows, a.w.Cols, a.Dim())
	}
}

func TestUniformStartFeasible(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	a, err := NewAssignment(nil, randWeights(rng, 4, 6), 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	x := a.UniformStart()
	lp := a.ToLP()
	if v := lp.MaxViolation(x); v > 1e-12 {
		t.Errorf("uniform start violates constraints by %v", v)
	}
}

// TestAssignmentValueAtFeasiblePoint: on a feasible X the penalty vanishes
// and f = −ΣWX.
func TestAssignmentValueAtFeasiblePoint(t *testing.T) {
	w := linalg.DenseOf([][]float64{{2, 1}, {1, 3}})
	a, err := NewAssignment(nil, w, 10, 10)
	if err != nil {
		t.Fatal(err)
	}
	// Identity permutation: X = I.
	x := []float64{1, 0, 0, 1}
	if got, want := a.Value(x), -5.0; math.Abs(got-want) > 1e-12 {
		t.Errorf("Value(I) = %v, want %v", got, want)
	}
}

func TestAssignmentPenalizesInfeasible(t *testing.T) {
	w := linalg.DenseOf([][]float64{{1, 1}, {1, 1}})
	a, err := NewAssignment(nil, w, 7, 9)
	if err != nil {
		t.Fatal(err)
	}
	// Negative entry: λ1 penalty.
	xNeg := []float64{-0.5, 0, 0, 0}
	want := 0.5 + 7*0.25 // -W·X = +0.5, penalty 7*(0.5)^2
	if got := a.Value(xNeg); math.Abs(got-want) > 1e-12 {
		t.Errorf("Value(neg) = %v, want %v", got, want)
	}
	// Row 0 sums to 2: λ2 penalty (1)^2; col sums are 1 each: no penalty.
	xOver := []float64{1, 1, 0, 0}
	want = -2 + 9*1
	if got := a.Value(xOver); math.Abs(got-want) > 1e-12 {
		t.Errorf("Value(over) = %v, want %v", got, want)
	}
}

func TestAssignmentGradMatchesFiniteDifference(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for trial := 0; trial < 20; trial++ {
		r, c := 2+rng.Intn(3), 2+rng.Intn(3)
		a, err := NewAssignment(nil, randWeights(rng, r, c), 3, 5)
		if err != nil {
			t.Fatal(err)
		}
		x := make([]float64, a.Dim())
		for i := range x {
			// Sample away from hinge kinks at 0 and sum=1.
			x[i] = 0.3 + 0.6*rng.Float64()
		}
		grad := make([]float64, a.Dim())
		a.Grad(x, grad)
		const h = 1e-6
		for i := range x {
			xp := append([]float64(nil), x...)
			xm := append([]float64(nil), x...)
			xp[i] += h
			xm[i] -= h
			fd := (a.Value(xp) - a.Value(xm)) / (2 * h)
			if math.Abs(fd-grad[i]) > 1e-4*(1+math.Abs(fd)) {
				t.Fatalf("trial %d: grad[%d] = %v, fd = %v", trial, i, grad[i], fd)
			}
		}
	}
}

// TestRoundIsAssignment: rounding any vector yields a valid partial
// assignment: distinct columns, each row at most once.
func TestRoundIsAssignment(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		r, c := 1+rng.Intn(6), 1+rng.Intn(6)
		a, err := NewAssignment(nil, randWeights(rng, r, c), 1, 1)
		if err != nil {
			return false
		}
		x := make([]float64, a.Dim())
		for i := range x {
			x[i] = rng.NormFloat64()
		}
		assign := a.Round(x)
		if len(assign) != r {
			return false
		}
		seen := make(map[int]bool)
		count := 0
		for _, j := range assign {
			if j == -1 {
				continue
			}
			if j < 0 || j >= c || seen[j] {
				return false
			}
			seen[j] = true
			count++
		}
		want := r
		if c < want {
			want = c
		}
		return count == want
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestRoundSkipsNaN(t *testing.T) {
	w := linalg.DenseOf([][]float64{{1, 1}, {1, 1}})
	a, err := NewAssignment(nil, w, 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	x := []float64{math.NaN(), 0.9, 0.8, math.NaN()}
	assign := a.Round(x)
	if assign[0] != 1 || assign[1] != 0 {
		t.Errorf("Round with NaNs = %v, want [1 0]", assign)
	}
}

func TestRoundPicksMaxPermutation(t *testing.T) {
	w := linalg.DenseOf([][]float64{{1, 1, 1}, {1, 1, 1}, {1, 1, 1}})
	a, err := NewAssignment(nil, w, 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	// X close to the permutation (0->2, 1->0, 2->1).
	x := []float64{
		0.1, 0.0, 0.9,
		0.8, 0.1, 0.1,
		0.1, 0.9, 0.0,
	}
	assign := a.Round(x)
	want := []int{2, 0, 1}
	for i := range want {
		if assign[i] != want[i] {
			t.Fatalf("Round = %v, want %v", assign, want)
		}
	}
}

func TestToLPShape(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	a, err := NewAssignment(nil, randWeights(rng, 3, 4), 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	lp := a.ToLP()
	if err := lp.Validate(); err != nil {
		t.Fatalf("ToLP invalid: %v", err)
	}
	if lp.Ineq.Rows != 3+4+12 || lp.Ineq.Cols != 12 {
		t.Errorf("ToLP ineq shape = %dx%d", lp.Ineq.Rows, lp.Ineq.Cols)
	}
	// A feasible permutation satisfies the LP, an infeasible X violates it.
	x := make([]float64, 12)
	x[0*4+1] = 1
	x[1*4+2] = 1
	x[2*4+3] = 1
	if v := lp.MaxViolation(x); v > 1e-12 {
		t.Errorf("permutation violates ToLP by %v", v)
	}
	x[0*4+2] = 1.5 // row 0 now sums to 2.5, col 2 to 2.5
	if v := lp.MaxViolation(x); math.Abs(v-1.5) > 1e-12 {
		t.Errorf("violation = %v, want 1.5", v)
	}
}

// TestToLPValueMatchesAssignment: the generic penalty LP over ToLP() and
// the specialized Assignment problem are the same function (quad kind).
func TestToLPValueMatchesAssignment(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	w := randWeights(rng, 3, 3)
	a, err := NewAssignment(nil, w, 6, 6) // equal λ so single-μ LP matches
	if err != nil {
		t.Fatal(err)
	}
	p, err := NewPenaltyLP(nil, a.ToLP(), PenaltyQuad, 6)
	if err != nil {
		t.Fatal(err)
	}
	for trial := 0; trial < 50; trial++ {
		x := make([]float64, a.Dim())
		for i := range x {
			x[i] = rng.NormFloat64()
		}
		va, vp := a.Value(x), p.Value(x)
		if math.Abs(va-vp) > 1e-9*(1+math.Abs(vp)) {
			t.Fatalf("trial %d: Assignment=%v PenaltyLP=%v", trial, va, vp)
		}
	}
}

package core

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"robustify/internal/linalg"
)

// boxLP builds min cᵀx s.t. lo ≤ x ≤ hi expressed as inequalities.
func boxLP(c []float64, lo, hi float64) LinearProgram {
	n := len(c)
	ineq := linalg.NewDense(2*n, n)
	b := make([]float64, 2*n)
	for i := 0; i < n; i++ {
		ineq.Set(i, i, 1)
		b[i] = hi
		ineq.Set(n+i, i, -1)
		b[n+i] = -lo
	}
	return LinearProgram{C: c, Ineq: ineq, BIneq: b}
}

func TestValidate(t *testing.T) {
	good := boxLP([]float64{1, -1}, 0, 1)
	if err := good.Validate(); err != nil {
		t.Fatalf("valid LP rejected: %v", err)
	}
	cases := map[string]LinearProgram{
		"empty objective": {},
		"ineq rhs mismatch": {
			C: []float64{1}, Ineq: linalg.NewDense(2, 1), BIneq: []float64{1},
		},
		"ineq cols mismatch": {
			C: []float64{1, 2}, Ineq: linalg.NewDense(2, 1), BIneq: []float64{1, 1},
		},
		"eq without rhs": {
			C: []float64{1}, Eq: linalg.NewDense(1, 1),
		},
		"eq rhs mismatch": {
			C: []float64{1}, Eq: linalg.NewDense(1, 1), BEq: []float64{1, 2},
		},
	}
	for name, lp := range cases {
		if err := lp.Validate(); err == nil {
			t.Errorf("%s: want error", name)
		}
	}
}

func TestNewPenaltyLPRejectsBadArgs(t *testing.T) {
	lp := boxLP([]float64{1}, 0, 1)
	if _, err := NewPenaltyLP(nil, lp, PenaltyKind(99), 1); err == nil {
		t.Error("unknown penalty kind accepted")
	}
	if _, err := NewPenaltyLP(nil, lp, PenaltyAbs, 0); err == nil {
		t.Error("non-positive mu accepted")
	}
	if _, err := NewPenaltyLP(nil, LinearProgram{}, PenaltyAbs, 1); err == nil {
		t.Error("invalid LP accepted")
	}
}

// TestPenaltyEqualsObjectiveWhenFeasible: Theorem 2's starting point — at a
// feasible x the penalized objective equals the raw objective.
func TestPenaltyEqualsObjectiveWhenFeasible(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(6)
		c := make([]float64, n)
		x := make([]float64, n)
		for i := range c {
			c[i] = rng.NormFloat64()
			x[i] = rng.Float64() // strictly inside [0, 1]
		}
		lp := boxLP(c, 0, 1)
		for _, kind := range []PenaltyKind{PenaltyAbs, PenaltyQuad} {
			p, err := NewPenaltyLP(nil, lp, kind, 10)
			if err != nil {
				return false
			}
			want := linalg.Dot(nil, c, x)
			if math.Abs(p.Value(x)-want) > 1e-12 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestPenaltyPenalizesViolations(t *testing.T) {
	lp := boxLP([]float64{0, 0}, 0, 1)
	p, err := NewPenaltyLP(nil, lp, PenaltyQuad, 5)
	if err != nil {
		t.Fatal(err)
	}
	// x = (2, -1): violates x0 <= 1 by 1 and -x1 <= 0 by 1.
	got := p.Value([]float64{2, -1})
	if want := 5.0*1 + 5.0*1; math.Abs(got-want) > 1e-12 {
		t.Errorf("quad penalty = %v, want %v", got, want)
	}
	pAbs, err := NewPenaltyLP(nil, lp, PenaltyAbs, 5)
	if err != nil {
		t.Fatal(err)
	}
	got = pAbs.Value([]float64{3, 0.5})
	if want := 5.0 * 2; math.Abs(got-want) > 1e-12 { // x0=3 violates by 2
		t.Errorf("abs penalty = %v, want %v", got, want)
	}
}

func TestEqualityPenalty(t *testing.T) {
	eq := linalg.DenseOf([][]float64{{1, 1}})
	lp := LinearProgram{C: []float64{0, 0}, Eq: eq, BEq: []float64{1}}
	pq, err := NewPenaltyLP(nil, lp, PenaltyQuad, 3)
	if err != nil {
		t.Fatal(err)
	}
	// x sums to 3: violation 2, squared 4, times mu 3 = 12.
	if got := pq.Value([]float64{1, 2}); math.Abs(got-12) > 1e-12 {
		t.Errorf("quad equality penalty = %v, want 12", got)
	}
	pa, err := NewPenaltyLP(nil, lp, PenaltyAbs, 3)
	if err != nil {
		t.Fatal(err)
	}
	if got := pa.Value([]float64{1, 2}); math.Abs(got-6) > 1e-12 {
		t.Errorf("abs equality penalty = %v, want 6", got)
	}
	// Violation from below has the same magnitude.
	if got := pa.Value([]float64{0, -1}); math.Abs(got-6) > 1e-12 {
		t.Errorf("abs equality penalty below = %v, want 6", got)
	}
}

// TestGradMatchesFiniteDifference validates the analytic subgradient on
// smooth regions of the penalty surface.
func TestGradMatchesFiniteDifference(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	for trial := 0; trial < 25; trial++ {
		n := 2 + rng.Intn(4)
		c := make([]float64, n)
		for i := range c {
			c[i] = rng.NormFloat64()
		}
		lp := boxLP(c, 0, 1)
		eq := linalg.NewDense(1, n)
		for j := 0; j < n; j++ {
			eq.Set(0, j, rng.NormFloat64())
		}
		lp.Eq = eq
		lp.BEq = []float64{rng.NormFloat64()}
		for _, kind := range []PenaltyKind{PenaltyAbs, PenaltyQuad} {
			p, err := NewPenaltyLP(nil, lp, kind, 4)
			if err != nil {
				t.Fatal(err)
			}
			// Stay away from hinge kinks: sample x far from 0/1 boundaries.
			x := make([]float64, n)
			for i := range x {
				x[i] = 1.5 + rng.Float64() // all > 1: upper constraints active
			}
			grad := make([]float64, n)
			p.Grad(x, grad)
			const h = 1e-6
			for i := 0; i < n; i++ {
				xp := append([]float64(nil), x...)
				xm := append([]float64(nil), x...)
				xp[i] += h
				xm[i] -= h
				fd := (p.Value(xp) - p.Value(xm)) / (2 * h)
				if math.Abs(fd-grad[i]) > 1e-4*(1+math.Abs(fd)) {
					t.Fatalf("trial %d kind %v: grad[%d] = %v, fd = %v",
						trial, kind, i, grad[i], fd)
				}
			}
		}
	}
}

func TestMaxViolation(t *testing.T) {
	lp := boxLP([]float64{0, 0}, 0, 1)
	if v := lp.MaxViolation([]float64{0.5, 0.5}); v != 0 {
		t.Errorf("feasible point violation = %v", v)
	}
	if v := lp.MaxViolation([]float64{1.75, 0.5}); math.Abs(v-0.75) > 1e-12 {
		t.Errorf("violation = %v, want 0.75", v)
	}
	eqLP := LinearProgram{
		C:  []float64{0},
		Eq: linalg.DenseOf([][]float64{{1}}), BEq: []float64{2},
	}
	if v := eqLP.MaxViolation([]float64{-1}); math.Abs(v-3) > 1e-12 {
		t.Errorf("equality violation = %v, want 3", v)
	}
}

func TestPenaltyKindString(t *testing.T) {
	if PenaltyAbs.String() != "abs" || PenaltyQuad.String() != "quad" {
		t.Error("penalty kind names wrong")
	}
	if PenaltyKind(0).String() != "unknown" {
		t.Error("zero kind should be unknown")
	}
}

func TestAnnealableRoundTrip(t *testing.T) {
	p, err := NewPenaltyLP(nil, boxLP([]float64{1}, 0, 1), PenaltyAbs, 2)
	if err != nil {
		t.Fatal(err)
	}
	if p.AnnealParam() != 2 {
		t.Errorf("initial mu = %v", p.AnnealParam())
	}
	p.SetAnnealParam(8)
	if p.AnnealParam() != 8 {
		t.Errorf("mu after set = %v", p.AnnealParam())
	}
	// Penalty value scales with mu.
	v8 := p.Value([]float64{2}) // violation 1 beyond hi=1
	p.SetAnnealParam(16)
	if v16 := p.Value([]float64{2}); math.Abs(v16-2*v8+linalg.Dot(nil, p.lp.C, []float64{2})) > 1e-9 {
		// v = c x + mu*viol; doubling mu doubles the penalty part.
		cx := 2.0
		if math.Abs((v16-cx)-2*(v8-cx)) > 1e-9 {
			t.Errorf("penalty did not scale with mu: %v -> %v", v8, v16)
		}
	}
}

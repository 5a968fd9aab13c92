package linalg

import (
	"math"
	"math/rand"
	"testing"

	"robustify/internal/fpu"
)

// residual returns ||A x - b||_2 computed reliably.
func residual(a *Dense, x, b []float64) float64 {
	r := make([]float64, a.Rows)
	a.MulVec(nil, x, r)
	Sub(nil, r, b, r)
	return Norm2(nil, r)
}

func TestQRReconstructs(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 10; trial++ {
		m, n := 4+rng.Intn(10), 2+rng.Intn(4)
		if m < n {
			m, n = n, m
		}
		a := randMat(rng, m, n)
		f, err := QR(nil, a)
		if err != nil {
			t.Fatalf("QR: %v", err)
		}
		qr := f.Q(nil).Mul(nil, f.R())
		for i := range a.Data {
			if math.Abs(qr.Data[i]-a.Data[i]) > 1e-10 {
				t.Fatalf("trial %d: QR reconstruction off at %d: %v vs %v",
					trial, i, qr.Data[i], a.Data[i])
			}
		}
	}
}

func TestQROrthonormalQ(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	a := randMat(rng, 12, 5)
	f, err := QR(nil, a)
	if err != nil {
		t.Fatal(err)
	}
	q := f.Q(nil)
	qtq := q.Gram(nil)
	for i := 0; i < 5; i++ {
		for j := 0; j < 5; j++ {
			want := 0.0
			if i == j {
				want = 1
			}
			if math.Abs(qtq.At(i, j)-want) > 1e-10 {
				t.Fatalf("QtQ(%d,%d) = %v", i, j, qtq.At(i, j))
			}
		}
	}
}

func TestQRSolveLeastSquares(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	a := randMat(rng, 20, 6)
	xTrue := randVec(rng, 6)
	b := make([]float64, 20)
	a.MulVec(nil, xTrue, b)
	f, err := QR(nil, a)
	if err != nil {
		t.Fatal(err)
	}
	x, err := f.Solve(nil, b)
	if err != nil {
		t.Fatal(err)
	}
	if re := RelErr(x, xTrue); re > 1e-10 {
		t.Errorf("QR solve relative error = %v", re)
	}
}

func TestQRRejectsWideMatrix(t *testing.T) {
	if _, err := QR(nil, NewDense(2, 5)); err == nil {
		t.Error("QR of wide matrix must fail")
	}
}

func TestCholeskySolve(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	a := randMat(rng, 15, 5)
	spd := a.Gram(nil) // A^T A is SPD w.p. 1
	xTrue := randVec(rng, 5)
	b := make([]float64, 5)
	spd.MulVec(nil, xTrue, b)
	f, err := Cholesky(nil, spd)
	if err != nil {
		t.Fatal(err)
	}
	x, err := f.Solve(nil, b)
	if err != nil {
		t.Fatal(err)
	}
	if re := RelErr(x, xTrue); re > 1e-8 {
		t.Errorf("Cholesky solve relative error = %v", re)
	}
	// L L^T must reconstruct.
	l := f.L()
	llt := l.Mul(nil, l.T())
	for i := range spd.Data {
		if math.Abs(llt.Data[i]-spd.Data[i]) > 1e-8 {
			t.Fatalf("LL^T reconstruction off at %d", i)
		}
	}
}

func TestCholeskyRejectsIndefinite(t *testing.T) {
	m := DenseOf([][]float64{{1, 0}, {0, -1}})
	if _, err := Cholesky(nil, m); err == nil {
		t.Error("Cholesky of indefinite matrix must fail")
	}
}

func TestSVDReconstructs(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 10; trial++ {
		m, n := 5+rng.Intn(10), 2+rng.Intn(4)
		if m < n {
			m, n = n, m
		}
		a := randMat(rng, m, n)
		f, err := SVD(nil, a)
		if err != nil {
			t.Fatal(err)
		}
		// Rebuild U diag(S) V^T.
		us := f.U.Clone()
		for j := 0; j < n; j++ {
			for i := 0; i < m; i++ {
				us.Set(i, j, us.At(i, j)*f.S[j])
			}
		}
		rec := us.Mul(nil, f.V.T())
		for i := range a.Data {
			if math.Abs(rec.Data[i]-a.Data[i]) > 1e-9 {
				t.Fatalf("trial %d: SVD reconstruction off at %d: %v vs %v",
					trial, i, rec.Data[i], a.Data[i])
			}
		}
		// Singular values sorted descending and non-negative.
		for j := 1; j < n; j++ {
			if f.S[j] > f.S[j-1] {
				t.Fatalf("singular values not sorted: %v", f.S)
			}
			if f.S[j] < 0 {
				t.Fatalf("negative singular value: %v", f.S)
			}
		}
	}
}

func TestSVDSolveMatchesQR(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	a := randMat(rng, 25, 6)
	b := randVec(rng, 25)
	sf, err := SVD(nil, a)
	if err != nil {
		t.Fatal(err)
	}
	xs, err := sf.Solve(nil, b, 0)
	if err != nil {
		t.Fatal(err)
	}
	qf, err := QR(nil, a)
	if err != nil {
		t.Fatal(err)
	}
	xq, err := qf.Solve(nil, b)
	if err != nil {
		t.Fatal(err)
	}
	if re := RelErr(xs, xq); re > 1e-8 {
		t.Errorf("SVD and QR least-squares solutions differ: %v", re)
	}
}

func TestSVDCond(t *testing.T) {
	// diag(4, 2) has condition number 2: the singular values come out in
	// descending order, so it is their first over their last.
	a := DenseOf([][]float64{{4, 0}, {0, 2}})
	f, err := SVD(nil, a)
	if err != nil {
		t.Fatal(err)
	}
	if cond := f.S[0] / f.S[len(f.S)-1]; math.Abs(cond-2) > 1e-10 {
		t.Errorf("s_max/s_min = %v (S = %v), want 2", cond, f.S)
	}
}

func TestFactorizationsUnstableUnderFaults(t *testing.T) {
	// The paper's premise (Ch. 4.1): direct decompositions are
	// "disastrously unstable" under FPU noise. Check that at a 1% fault
	// rate at least one trial produces a solution far from truth.
	rng := rand.New(rand.NewSource(9))
	a := randMat(rng, 30, 6)
	xTrue := randVec(rng, 6)
	b := make([]float64, 30)
	a.MulVec(nil, xTrue, b)
	bad := 0
	const trials = 20
	for trial := 0; trial < trials; trial++ {
		u := fpu.New(fpu.WithFaultRate(0.01, uint64(trial+1)))
		f, err := QR(u, a)
		if err != nil {
			bad++
			continue
		}
		x, err := f.Solve(u, b)
		if err != nil || !AllFinite(x) || RelErr(x, xTrue) > 1e-3 {
			bad++
		}
	}
	if bad == 0 {
		t.Error("QR under 1% faults never degraded; fault plumbing broken?")
	}
}

func TestSolveUpper(t *testing.T) {
	r := DenseOf([][]float64{{2, 1}, {0, 4}})
	x, err := SolveUpper(nil, r, []float64{5, 8})
	if err != nil {
		t.Fatal(err)
	}
	// 4 x1 = 8 -> x1 = 2; 2 x0 + 1*2 = 5 -> x0 = 1.5
	if math.Abs(x[0]-1.5) > 1e-12 || math.Abs(x[1]-2) > 1e-12 {
		t.Errorf("SolveUpper = %v", x)
	}
	xt, err := SolveUpperT(nil, r, []float64{2, 9})
	if err != nil {
		t.Fatal(err)
	}
	// R^T x = y: 2 x0 = 2 -> x0=1 ; 1*1 + 4 x1 = 9 -> x1 = 2
	if math.Abs(xt[0]-1) > 1e-12 || math.Abs(xt[1]-2) > 1e-12 {
		t.Errorf("SolveUpperT = %v", xt)
	}
}

func TestSolveUpperSingular(t *testing.T) {
	r := DenseOf([][]float64{{1, 1}, {0, 0}})
	if _, err := SolveUpper(nil, r, []float64{1, 1}); err == nil {
		t.Error("singular upper solve must fail")
	}
	if _, err := SolveUpperT(nil, r, []float64{1, 1}); err == nil {
		t.Error("singular transposed solve must fail")
	}
}

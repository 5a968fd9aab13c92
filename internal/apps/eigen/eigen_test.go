package eigen

import (
	"math"
	"math/rand"
	"testing"

	"robustify/internal/fpu"
	"robustify/internal/linalg"
)

func TestRandomSymmetricSpectrum(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	m := RandomSymmetric(rng, 6)
	// Symmetric.
	for i := 0; i < 6; i++ {
		for j := 0; j < 6; j++ {
			if math.Abs(m.At(i, j)-m.At(j, i)) > 1e-10 {
				t.Fatalf("asymmetric at (%d,%d)", i, j)
			}
		}
	}
	// Top eigenvalue is n by construction (power iteration check).
	lambda, _ := PowerIteration(nil, m, 500)
	if math.Abs(lambda-6) > 1e-6 {
		t.Errorf("top eigenvalue = %v, want 6", lambda)
	}
}

func TestPowerIterationReliable(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	m := RandomSymmetric(rng, 5)
	lambda, v := PowerIteration(nil, m, 500)
	if math.Abs(lambda-5) > 1e-6 {
		t.Errorf("lambda = %v", lambda)
	}
	// Residual ‖Mv − λv‖ small.
	mv := make([]float64, 5)
	m.MulVec(nil, v, mv)
	linalg.Axpy(nil, -lambda, v, mv)
	if r := linalg.Norm2(nil, mv); r > 1e-5 {
		t.Errorf("residual = %v", r)
	}
}

func TestTopEigenReliable(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	m := RandomSymmetric(rng, 5)
	lambda, v, err := TopEigen(nil, m, Options{Iters: 2000})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(lambda-5) > 1e-3 {
		t.Errorf("lambda = %v, want 5", lambda)
	}
	mv := make([]float64, 5)
	m.MulVec(nil, v, mv)
	linalg.Axpy(nil, -lambda, v, mv)
	if r := linalg.Norm2(nil, mv); r > 1e-2 {
		t.Errorf("residual = %v", r)
	}
}

func TestTopEigenBeatsPowerUnderFaults(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	m := RandomSymmetric(rng, 6)
	var robustErr, baseErr float64
	const trials = 8
	for trial := 0; trial < trials; trial++ {
		ub := fpu.New(fpu.WithFaultRate(0.01, uint64(trial+1)))
		lb, _ := PowerIteration(ub, m, 300)
		e := math.Abs(lb - 6)
		if e != e || e > 10 {
			e = 10
		}
		baseErr += e
		ur := fpu.New(fpu.WithFaultRate(0.01, uint64(trial+101)))
		lr, _, err := TopEigen(ur, m, Options{Iters: 2000})
		if err != nil {
			t.Fatal(err)
		}
		e = math.Abs(lr - 6)
		if e != e || e > 10 {
			e = 10
		}
		robustErr += e
	}
	if robustErr >= baseErr {
		t.Errorf("robust err %v not below baseline %v", robustErr/trials, baseErr/trials)
	}
}

func TestTopEigenValidation(t *testing.T) {
	if _, _, err := TopEigen(nil, linalg.NewDense(2, 3), Options{}); err == nil {
		t.Error("non-square matrix accepted")
	}
}

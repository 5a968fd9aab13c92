package iir

import (
	"math"
	"math/rand"
	"testing"

	"robustify/internal/fpu"
	"robustify/internal/linalg"
)

func testSignal(n int, seed int64) []float64 {
	rng := rand.New(rand.NewSource(seed))
	u := make([]float64, n)
	for i := range u {
		u[i] = math.Sin(2*math.Pi*float64(i)/23) + 0.3*rng.NormFloat64()
	}
	return u
}

func TestNewFilterValidation(t *testing.T) {
	if _, err := NewFilter(nil, []float64{1}); err == nil {
		t.Error("empty numerator accepted")
	}
	if _, err := NewFilter([]float64{1}, nil); err == nil {
		t.Error("empty denominator accepted")
	}
	if _, err := NewFilter([]float64{1}, []float64{0, 1}); err == nil {
		t.Error("b0 = 0 accepted")
	}
	f, err := NewFilter([]float64{1, 2}, []float64{1, 0.5, 0.1})
	if err != nil {
		t.Fatal(err)
	}
	if len(f.A) != 2 || len(f.B) != 3 {
		t.Errorf("len(A), len(B) = %d, %d; want 2, 3", len(f.A), len(f.B))
	}
}

func TestLowpassStable(t *testing.T) {
	f, err := Lowpass(10, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	if len(f.A)+len(f.B) != 10 {
		t.Errorf("total taps = %d+%d, want 10", len(f.A), len(f.B))
	}
	// Impulse response of a stable filter decays.
	impulse := make([]float64, 400)
	impulse[0] = 1
	h := f.Ideal(impulse)
	var early, late float64
	for i := 0; i < 50; i++ {
		early += math.Abs(h[i])
	}
	for i := 350; i < 400; i++ {
		late += math.Abs(h[i])
	}
	if late > 1e-6*early {
		t.Errorf("impulse response does not decay: early=%v late=%v", early, late)
	}
	// DC gain ≈ 1 by construction.
	step := make([]float64, 600)
	for i := range step {
		step[i] = 1
	}
	y := f.Ideal(step)
	if g := y[len(y)-1]; math.Abs(g-1) > 1e-6 {
		t.Errorf("DC gain = %v, want 1", g)
	}
}

func TestLowpassValidation(t *testing.T) {
	if _, err := Lowpass(1, 0.5); err == nil {
		t.Error("1 tap accepted")
	}
	if _, err := Lowpass(10, 1.0); err == nil {
		t.Error("unit pole radius accepted")
	}
}

// TestPostConditionHolds: the ideal feed-forward output satisfies
// B·x = A·u — the variational transformation's foundation (Eq 4.1/4.2).
func TestPostConditionHolds(t *testing.T) {
	f, err := Lowpass(10, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	u := testSignal(120, 1)
	x := f.Ideal(u)
	aOp, bOp := f.Matrices(len(u))
	au := make([]float64, len(u))
	bx := make([]float64, len(u))
	aOp.MulVec(nil, u, au)
	bOp.MulVec(nil, x, bx)
	if re := linalg.RelErr(bx, au); re > 1e-10 {
		t.Errorf("post-condition violated: ‖Bx−Au‖ rel = %v", re)
	}
}

func TestRobustMatchesIdealReliably(t *testing.T) {
	f, err := Lowpass(10, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	u := testSignal(150, 2)
	ideal := f.Ideal(u)
	y, _, err := f.Robust(nil, u, Options{Iters: 200})
	if err != nil {
		t.Fatal(err)
	}
	if esr := ErrorToSignal(y, ideal); esr > 1e-9 {
		t.Errorf("robust solve on reliable unit: ESR = %v", esr)
	}
}

// TestRobustBeatsBaselineUnderFaults is Fig 6.3's headline: at a moderate
// fault rate the variational solve delivers orders of magnitude lower
// error-to-signal ratio than the recursive baseline.
func TestRobustBeatsBaselineUnderFaults(t *testing.T) {
	f, err := Lowpass(10, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	u := testSignal(150, 3)
	ideal := f.Ideal(u)
	var base, robust float64
	const trials = 6
	for trial := 0; trial < trials; trial++ {
		ub := fpu.New(fpu.WithFaultRate(0.01, uint64(trial+1)))
		base += math.Min(ErrorToSignal(f.Feedforward(ub, u), ideal), 10)
		ur := fpu.New(fpu.WithFaultRate(0.01, uint64(trial+101)))
		y, _, err := f.Robust(ur, u, Options{Iters: 400})
		if err != nil {
			t.Fatal(err)
		}
		robust += math.Min(ErrorToSignal(y, ideal), 10)
	}
	base /= trials
	robust /= trials
	if robust >= base {
		t.Errorf("robust ESR %v not below baseline ESR %v", robust, base)
	}
}

func TestRobustEmptySignal(t *testing.T) {
	f, err := Lowpass(4, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := f.Robust(nil, nil, Options{Iters: 10}); err == nil {
		t.Error("empty signal accepted")
	}
}

func TestErrorToSignalMetric(t *testing.T) {
	ideal := []float64{3, 4}
	if got := ErrorToSignal([]float64{3, 4}, ideal); got != 0 {
		t.Errorf("ESR identical = %v", got)
	}
	if got := ErrorToSignal(nil, ideal); got < 1e29 {
		t.Errorf("ESR nil = %v", got)
	}
	if got := ErrorToSignal([]float64{math.Inf(1), 0}, ideal); got < 1e29 {
		t.Errorf("ESR inf = %v", got)
	}
}

func TestFeedforwardCountsFLOPs(t *testing.T) {
	f, err := Lowpass(6, 0.6)
	if err != nil {
		t.Fatal(err)
	}
	u := fpu.New()
	f.Feedforward(u, testSignal(50, 4))
	if u.FLOPs() == 0 {
		t.Error("feed-forward did not route through the unit")
	}
}

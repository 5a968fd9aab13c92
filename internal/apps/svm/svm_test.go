package svm

import (
	"math"
	"math/rand"
	"testing"

	"robustify/internal/fpu"
)

func testData(seed int64) *Dataset {
	rng := rand.New(rand.NewSource(seed))
	return TwoGaussians(rng, 200, 400, 8, 2.5)
}

func TestTwoGaussiansShape(t *testing.T) {
	d := testData(1)
	if d.X.Rows != 200 || d.X.Cols != 8 || len(d.Y) != 200 {
		t.Fatalf("train shape wrong")
	}
	if d.TestX.Rows != 400 || len(d.TestY) != 400 {
		t.Fatalf("test shape wrong")
	}
	for _, y := range d.Y {
		if y != 1 && y != -1 {
			t.Fatalf("label %v", y)
		}
	}
}

func TestSqrtHelper(t *testing.T) {
	for _, v := range []float64{0, 1, 2, 100, 1e-8} {
		if got, want := sqrt(v), math.Sqrt(v); math.Abs(got-want) > 1e-9*(1+want) {
			t.Errorf("sqrt(%v) = %v, want %v", v, got, want)
		}
	}
}

func TestNewProblemValidation(t *testing.T) {
	d := testData(2)
	if _, err := NewRobustProblem(nil, d, 0, nil); err == nil {
		t.Error("zero lambda accepted")
	}
	if _, err := NewRobustProblem(nil, &Dataset{}, 0.1, nil); err == nil {
		t.Error("empty dataset accepted")
	}
}

func TestGradMatchesFiniteDifference(t *testing.T) {
	d := testData(3)
	p, err := NewRobustProblem(nil, d, 0.05, nil)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(4))
	w := make([]float64, p.Dim())
	for i := range w {
		w[i] = 0.3 * rng.NormFloat64()
	}
	grad := make([]float64, p.Dim())
	p.Grad(w, grad)
	const h = 1e-6
	for i := range w {
		wp := append([]float64(nil), w...)
		wm := append([]float64(nil), w...)
		wp[i] += h
		wm[i] -= h
		fd := (p.Value(wp) - p.Value(wm)) / (2 * h)
		if math.Abs(fd-grad[i]) > 1e-4*(1+math.Abs(fd)) {
			t.Errorf("grad[%d] = %v, fd = %v", i, grad[i], fd)
		}
	}
}

func TestTrainSeparatesReliably(t *testing.T) {
	d := testData(5)
	w, _, err := Train(nil, d, Options{Iters: 2000})
	if err != nil {
		t.Fatal(err)
	}
	if acc := d.Accuracy(w); acc < 0.95 {
		t.Errorf("reliable accuracy = %v", acc)
	}
}

func TestPerceptronSeparatesReliably(t *testing.T) {
	d := testData(6)
	w := Perceptron(nil, d, 10)
	if acc := d.Accuracy(w); acc < 0.9 {
		t.Errorf("reliable perceptron accuracy = %v", acc)
	}
}

func TestRobustTrainingBeatsPerceptronUnderFaults(t *testing.T) {
	d := testData(7)
	var svmAcc, percAcc float64
	const trials = 6
	for trial := 0; trial < trials; trial++ {
		up := fpu.New(fpu.WithFaultRate(0.02, uint64(trial+1)))
		percAcc += d.Accuracy(Perceptron(up, d, 10))
		ut := fpu.New(fpu.WithFaultRate(0.02, uint64(trial+101)))
		w, _, err := Train(ut, d, Options{Iters: 2000})
		if err != nil {
			t.Fatal(err)
		}
		svmAcc += d.Accuracy(w)
	}
	svmAcc /= trials
	percAcc /= trials
	if svmAcc < 0.9 {
		t.Errorf("robust SVM accuracy under faults = %v", svmAcc)
	}
	if svmAcc <= percAcc-0.02 {
		t.Errorf("robust SVM (%v) should not trail perceptron (%v)", svmAcc, percAcc)
	}
}

func TestAccuracyGuards(t *testing.T) {
	d := testData(8)
	if d.Accuracy(nil) != 0 {
		t.Error("nil weights should score 0")
	}
	if d.Accuracy([]float64{math.NaN(), 0, 0, 0, 0, 0, 0, 0}) != 0 {
		t.Error("NaN weights should score 0")
	}
}

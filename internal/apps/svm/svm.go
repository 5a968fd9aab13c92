// Package svm implements the §4.7 extension: training a linear support
// vector machine on a stochastic processor. SVM fitting is already a
// variational problem — the regularized hinge loss
//
//	f(w) = λ/2·‖w‖² + (1/n)·Σᵢ [1 − yᵢ·⟨w, xᵢ⟩]₊
//
// — so the robustification is direct: evaluate subgradients on the faulty
// FPU and descend with the paper's schedules (the Pegasos family the paper
// cites). The baseline is the classic perceptron, whose mistake-driven
// updates hinge on exactly the kind of corrupted comparisons a faulty FPU
// produces.
package svm

import (
	"errors"
	"math/rand"

	"robustify/internal/core"
	"robustify/internal/fpu"
	"robustify/internal/linalg"
	"robustify/internal/robust"
	"robustify/internal/solver"
)

// Dataset is a binary classification problem with labels in {−1, +1}.
type Dataset struct {
	X      *linalg.Dense // n×d features
	Y      []float64     // n labels, ±1
	TestX  *linalg.Dense
	TestY  []float64
	Margin float64 // generative margin, for reference
}

// ErrBadData is returned for malformed datasets.
var ErrBadData = errors.New("svm: malformed dataset")

// TwoGaussians generates a linearly separable two-class problem: points
// drawn from two Gaussians whose means are 2·margin apart along a random
// direction, split into train and test halves.
func TwoGaussians(rng *rand.Rand, nTrain, nTest, dim int, margin float64) *Dataset {
	dirVec := make([]float64, dim)
	var norm float64
	for i := range dirVec {
		dirVec[i] = rng.NormFloat64()
		norm += dirVec[i] * dirVec[i]
	}
	norm = sqrt(norm)
	for i := range dirVec {
		dirVec[i] /= norm
	}
	gen := func(n int) (*linalg.Dense, []float64) {
		x := linalg.NewDense(n, dim)
		y := make([]float64, n)
		for i := 0; i < n; i++ {
			label := 1.0
			if rng.Intn(2) == 0 {
				label = -1
			}
			y[i] = label
			for j := 0; j < dim; j++ {
				x.Set(i, j, label*margin*dirVec[j]+rng.NormFloat64())
			}
		}
		return x, y
	}
	d := &Dataset{Margin: margin}
	d.X, d.Y = gen(nTrain)
	d.TestX, d.TestY = gen(nTest)
	return d
}

// sqrt is a dependency-free Newton square root for dataset generation.
func sqrt(v float64) float64 {
	if v <= 0 {
		return 0
	}
	x := v
	for i := 0; i < 40; i++ {
		x = 0.5 * (x + v/x)
	}
	return x
}

// Accuracy scores a weight vector on the held-out set (reliable metric).
func (d *Dataset) Accuracy(w []float64) float64 {
	if w == nil || !linalg.AllFinite(w) {
		return 0
	}
	n := d.TestX.Rows
	correct := 0
	for i := 0; i < n; i++ {
		score := linalg.Dot(nil, d.TestX.Row(i), w)
		if (score >= 0) == (d.TestY[i] > 0) {
			correct++
		}
	}
	return float64(correct) / float64(n)
}

// Problem is the regularized hinge-loss objective with subgradients on a
// stochastic FPU.
type Problem struct {
	u      *fpu.Unit
	x      *linalg.Dense
	y      []float64
	lambda float64
	loss   robust.Robustifier // nil = plain hinge, the legacy path
}

var _ core.Problem = (*Problem)(nil)

// NewRobustProblem builds the training objective with the margin violation
// m = [1 − y·⟨w, x⟩]₊ scored by the robust loss ρ instead of linearly:
// f(w) = λ/2·‖w‖² + (1/n)·Σρ(mᵢ). A nil loss keeps the paper's plain hinge
// bit for bit; a bounded-influence ρ caps the pull of examples whose score
// a fault has blown up.
func NewRobustProblem(u *fpu.Unit, d *Dataset, lambda float64, loss robust.Robustifier) (*Problem, error) {
	if d.X == nil || d.X.Rows != len(d.Y) || lambda <= 0 {
		return nil, ErrBadData
	}
	return &Problem{u: u, x: d.X, y: d.Y, lambda: lambda, loss: loss}, nil
}

// Dim implements core.Problem.
func (p *Problem) Dim() int { return p.x.Cols }

// Grad implements core.Problem: λw + (1/n)·Σ −yᵢxᵢ over margin violators,
// with the scores and the violation test on the faulty unit.
func (p *Problem) Grad(w, grad []float64) {
	u := p.u
	n := p.x.Rows
	inv := 1 / float64(n)
	linalg.Copy(grad, w)
	linalg.Scale(u, p.lambda, grad)
	for i := 0; i < n; i++ {
		row := p.x.Row(i)
		score := u.Mul(p.y[i], linalg.Dot(u, row, w))
		if u.Less(score, 1) { // margin violated (faulty comparison)
			c := u.Mul(-p.y[i], inv)
			if p.loss != nil {
				// ∂ρ(m)/∂w = 2ψ(m)·∂m/∂w with m = 1 − y·score.
				m := u.Sub(1, score)
				c = u.Mul(c, u.Mul(2, p.loss.Psi(u, m)))
			}
			linalg.Axpy(u, c, row, grad)
		}
	}
}

// Value implements core.Problem: the exact objective (control path).
func (p *Problem) Value(w []float64) float64 {
	n := p.x.Rows
	v := 0.5 * p.lambda * linalg.SqNorm2(nil, w)
	for i := 0; i < n; i++ {
		m := 1 - p.y[i]*linalg.Dot(nil, p.x.Row(i), w)
		if m > 0 {
			if p.loss != nil {
				m = p.loss.Rho(nil, m)
			}
			v += m / float64(n)
		}
	}
	return v
}

// Options configures robust training.
type Options struct {
	Iters    int
	Lambda   float64         // regularization; 0 picks 0.01
	Schedule solver.Schedule // nil: Pegasos-style 1/(λ·t)
	Tail     int             // Polyak tail-averaging window (0 = Iters/4)
	// Loss scores margin violations with a robust loss (nil = the plain
	// hinge, bit-identical to the pre-loss trainer).
	Loss robust.Robustifier
}

// Train fits a robust linear SVM on u.
func Train(u *fpu.Unit, d *Dataset, o Options) ([]float64, solver.Result, error) {
	lambda := o.Lambda
	if lambda == 0 {
		lambda = 0.01
	}
	p, err := NewRobustProblem(u, d, lambda, o.Loss)
	if err != nil {
		return nil, solver.Result{}, err
	}
	sched := o.Schedule
	if sched == nil {
		sched = solver.Linear(1 / lambda) // Pegasos: η_t = 1/(λ·t)
	}
	tail := o.Tail
	if tail == 0 {
		tail = o.Iters / 4
	}
	res, err := solver.SGD(p, make([]float64, p.Dim()), solver.Options{
		Iters:       o.Iters,
		Schedule:    sched,
		TailAverage: tail,
		Unit:        u,
	})
	if err != nil {
		return nil, res, err
	}
	return res.X, res, nil
}

// Perceptron is the fragile baseline: the classic mistake-driven update
// rule with scoring and mistake detection on the faulty unit. A corrupted
// comparison triggers an update in the wrong direction, and the damage is
// permanent because the algorithm never revisits it.
func Perceptron(u *fpu.Unit, d *Dataset, epochs int) []float64 {
	w := make([]float64, d.X.Cols)
	for e := 0; e < epochs; e++ {
		for i := 0; i < d.X.Rows; i++ {
			row := d.X.Row(i)
			score := linalg.Dot(u, row, w)
			predPos := !u.Less(score, 0)
			wantPos := d.Y[i] > 0
			if predPos != wantPos {
				linalg.Axpy(u, d.Y[i], row, w)
			}
		}
	}
	return w
}

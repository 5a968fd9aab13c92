// Package robsort implements the paper's sorting application (§4.3,
// Fig 6.1): the quicksort baseline whose comparisons run on the faulty FPU,
// and the robustified form that recasts sorting as a linear assignment over
// doubly stochastic matrices (Brockett's observation) solved by penalized
// stochastic gradient descent.
package robsort

import (
	"errors"
	"sort"

	"robustify/internal/core"
	"robustify/internal/fpu"
	"robustify/internal/linalg"
	"robustify/internal/solver"
)

// ErrEmpty is returned for empty inputs.
var ErrEmpty = errors.New("robsort: empty input")

// Baseline sorts a copy of data in ascending order with quicksort
// (median-of-three pivots, insertion sort below a cutoff), every comparison
// on fp — the stand-in for the paper's STL sort baseline. On a faulty unit
// the output may be misordered; it is always a permutation of the input
// because data movement is exact.
func Baseline(fp *fpu.Unit, data []float64) []float64 {
	out := append([]float64(nil), data...)
	quicksort(fp, out, 0, len(out)-1)
	return out
}

func quicksort(fp *fpu.Unit, a []float64, lo, hi int) {
	for lo < hi {
		if hi-lo < 8 {
			insertion(fp, a, lo, hi)
			return
		}
		p := partition(fp, a, lo, hi)
		// Recurse on the smaller side to bound stack depth even when
		// faulty comparisons skew the partition.
		if p-lo < hi-p {
			quicksort(fp, a, lo, p-1)
			lo = p + 1
		} else {
			quicksort(fp, a, p+1, hi)
			hi = p - 1
		}
	}
}

func insertion(fp *fpu.Unit, a []float64, lo, hi int) {
	for i := lo + 1; i <= hi; i++ {
		for j := i; j > lo && fp.Less(a[j], a[j-1]); j-- {
			a[j], a[j-1] = a[j-1], a[j]
		}
	}
}

func partition(fp *fpu.Unit, a []float64, lo, hi int) int {
	mid := lo + (hi-lo)/2
	// Median-of-three pivot selection, all through the faulty comparator.
	if fp.Less(a[mid], a[lo]) {
		a[mid], a[lo] = a[lo], a[mid]
	}
	if fp.Less(a[hi], a[lo]) {
		a[hi], a[lo] = a[lo], a[hi]
	}
	if fp.Less(a[hi], a[mid]) {
		a[hi], a[mid] = a[mid], a[hi]
	}
	pivot := a[mid]
	a[mid], a[hi-1] = a[hi-1], a[mid]
	i := lo
	for j := lo; j < hi-1; j++ {
		if fp.Less(a[j], pivot) {
			a[i], a[j] = a[j], a[i]
			i++
		}
	}
	a[i], a[hi-1] = a[hi-1], a[i]
	return i
}

// Options configures the robustified sort.
type Options struct {
	Iters      int
	Schedule   solver.Schedule // nil: Sqrt(0.5/n)
	Momentum   float64
	Aggressive *solver.Aggressive
	Anneal     *solver.Anneal
	Tail       int     // Polyak tail-averaging window (0 = off)
	Guard      float64 // gradient magnitude guard (0 = off)
	L1, L2     float64 // penalty weights; 0 picks the defaults (2, 2)
}

// Robust sorts data on fp via the assignment transformation: among all
// permutations X of the (positively shifted) input u, the one maximizing
// vᵀXu with v = [1..n] sorts u ascending. The LP is solved in exact
// quadratic penalty form by SGD; the final rounding of X to a permutation
// and the application of that permutation to the original data are reliable
// control steps.
func Robust(fp *fpu.Unit, data []float64, o Options) ([]float64, solver.Result, error) {
	n := len(data)
	if n == 0 {
		return nil, solver.Result{}, ErrEmpty
	}
	if n == 1 {
		return append([]float64(nil), data...), solver.Result{}, nil
	}
	// Reliable transformation setup: shift the values positive (sorting is
	// shift-invariant) and normalize both factors to O(1) so one penalty
	// weight fits all inputs.
	lo, hi := data[0], data[0]
	for _, v := range data[1:] {
		if v < lo {
			lo = v
		}
		if v > hi {
			hi = v
		}
	}
	span := hi - lo
	if span == 0 {
		span = 1 // constant array: any permutation sorts it
	}
	w := newOuterWeights(n, data, lo, span)
	l1, l2 := o.L1, o.L2
	if l1 == 0 {
		l1 = 2
	}
	if l2 == 0 {
		l2 = 2
	}
	prob, err := core.NewAssignment(fp, w, l1, l2)
	if err != nil {
		return nil, solver.Result{}, err
	}
	sched := o.Schedule
	if sched == nil {
		sched = solver.Sqrt(0.5 / float64(n))
	}
	res, err := solver.SGD(prob, prob.UniformStart(), solver.Options{
		Iters:          o.Iters,
		Schedule:       sched,
		Momentum:       o.Momentum,
		Aggressive:     o.Aggressive,
		Anneal:         o.Anneal,
		TailAverage:    o.Tail,
		GuardThreshold: o.Guard,
		Unit:           fp,
	})
	if err != nil {
		return nil, res, err
	}
	// Reliable rounding and output assembly: position i takes input j.
	assign := prob.Round(res.X)
	out := make([]float64, n)
	for i, j := range assign {
		if j < 0 {
			// Rounding starved (only possible when the iterate collapsed);
			// emit the input order for the missing slot, scored as failure.
			j = i
		}
		out[i] = data[j]
	}
	return out, res, nil
}

// newOuterWeights builds the sorting weight matrix Wᵢⱼ = vᵢ·ũⱼ with
// v = (1..n)/n and ũ = (u−lo)/span + ε, both O(1), so a single penalty
// weight fits all inputs.
func newOuterWeights(n int, data []float64, lo, span float64) *linalg.Dense {
	w := linalg.NewDense(n, n)
	for i := 0; i < n; i++ {
		vi := float64(i+1) / float64(n)
		for j := 0; j < n; j++ {
			uj := (data[j]-lo)/span + 0.1
			w.Set(i, j, vi*uj)
		}
	}
	return w
}

// Sorted reports whether a is ascending (reliable metric path). NaN
// anywhere counts as unsorted, matching the paper's success criterion.
func Sorted(a []float64) bool {
	for i, v := range a {
		if v != v {
			return false
		}
		if i > 0 && v < a[i-1] {
			return false
		}
	}
	return true
}

// SameMultiset reports whether a is a permutation of b (reliable metric
// path).
func SameMultiset(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	as := append([]float64(nil), a...)
	bs := append([]float64(nil), b...)
	sort.Float64s(as)
	sort.Float64s(bs)
	for i := range as {
		if as[i] != bs[i] && !(as[i] != as[i] && bs[i] != bs[i]) {
			return false
		}
	}
	return true
}

// Success is the Fig 6.1 criterion: the output is exactly the ascending
// sort of the input (any NaN or misplaced element is a failure).
func Success(output, input []float64) bool {
	return Sorted(output) && SameMultiset(output, input)
}

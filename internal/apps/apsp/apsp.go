// Package apsp implements the paper's all-pairs shortest path application
// (§4.6): the Floyd-Warshall baseline on the faulty FPU and the robustified
// LP form of Eqs 4.10–4.12 solved by penalized stochastic gradient descent.
package apsp

import (
	"math/rand"

	"robustify/internal/core"
	"robustify/internal/fpu"
	"robustify/internal/graph"
	"robustify/internal/linalg"
	"robustify/internal/robust"
	"robustify/internal/solver"
)

// Instance is an APSP problem with its exact distance matrix for scoring.
type Instance struct {
	G     *graph.DiGraph
	Exact *linalg.Dense // reliable all-pairs Dijkstra
}

// NewInstance wraps a digraph, solving it reliably for the reference
// distances.
func NewInstance(g *graph.DiGraph) *Instance {
	return &Instance{G: g, Exact: graph.AllPairsDijkstra(g)}
}

// RandomInstance generates a strongly connected random digraph.
func RandomInstance(rng *rand.Rand, n, extraEdges int, maxLen float64) *Instance {
	return NewInstance(graph.RandomDiGraph(rng, n, extraEdges, maxLen))
}

// MeanRelErr is the quality metric: the mean relative error of all
// off-diagonal pairwise distances, evaluated reliably. Non-finite entries
// score 1e30.
func (inst *Instance) MeanRelErr(d *linalg.Dense) float64 {
	n := inst.G.N
	var sum float64
	var count int
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			if i == j {
				continue
			}
			got, want := d.At(i, j), inst.Exact.At(i, j)
			if got != got || got > 1e308 || got < -1e308 {
				return 1e30
			}
			diff := got - want
			if diff < 0 {
				diff = -diff
			}
			if want != 0 {
				diff /= want
			}
			sum += diff
			count++
		}
	}
	if count == 0 {
		return 0
	}
	return sum / float64(count)
}

// Baseline runs Floyd-Warshall with arithmetic on u, scored against the
// exact distances.
func (inst *Instance) Baseline(u *fpu.Unit) *linalg.Dense {
	return graph.FloydWarshall(u, inst.G)
}

// LP builds the variational form of Eqs 4.10–4.12, with one variable per
// ordered pair (i, j), i ≠ j, and the diagonal pinned to zero structurally:
//
//	minimize  Σ −D(i,j)
//	s.t.      D(u,w) − D(u,v) ≤ L(v,w)   ∀u, ∀edge (v,w), u ≠ w
//
// (rows with u = v degenerate to D(v,w) ≤ L(v,w)). The LP maximum equals
// the shortest-path distances.
func (inst *Instance) LP() core.LinearProgram {
	n := inst.G.N
	nVar := n * (n - 1)
	c := make([]float64, nVar)
	for k := range c {
		c[k] = -1
	}
	// Count constraint rows: for each source u and edge (v,w) with w ≠ u.
	type row struct {
		u, v, w int
		length  float64
	}
	var rows []row
	for u := 0; u < n; u++ {
		for v := 0; v < n; v++ {
			for w := 0; w < n; w++ {
				if inst.G.HasEdge(v, w) && w != u {
					rows = append(rows, row{u: u, v: v, w: w, length: inst.G.Len.At(v, w)})
				}
			}
		}
	}
	ineq := linalg.NewDense(len(rows), nVar)
	b := make([]float64, len(rows))
	for r, rw := range rows {
		ineq.Set(r, varIndex(n, rw.u, rw.w), 1)
		if rw.u != rw.v {
			ineq.Set(r, varIndex(n, rw.u, rw.v), -1)
		}
		b[r] = rw.length
	}
	return core.LinearProgram{C: c, Ineq: ineq, BIneq: b}
}

// varIndex maps the ordered pair (i, j), i ≠ j, to its flat variable index.
func varIndex(n, i, j int) int {
	k := i*(n-1) + j
	if j > i {
		k--
	}
	return k
}

// Options configures the robustified solve.
type Options struct {
	Iters    int
	Schedule solver.Schedule // nil: Sqrt-scaled default
	Momentum float64
	Anneal   *solver.Anneal
	Tail     int     // Polyak tail-averaging window (0 = off)
	Mu       float64 // penalty weight; 0 picks the default
	Kind     core.PenaltyKind
	// Loss, when non-nil, scores constraint violations with a robust loss
	// instead of Kind's |·| or (·)² penalty (Kind is then ignored). A
	// bounded-influence loss caps how hard one corrupted constraint row
	// can yank the iterate.
	Loss robust.Robustifier
}

// DistOf unflattens a solution vector into a distance matrix with a zero
// diagonal (reliable metric path).
func (inst *Instance) DistOf(x []float64) *linalg.Dense {
	n := inst.G.N
	d := linalg.NewDense(n, n)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			if i != j {
				d.Set(i, j, x[varIndex(n, i, j)])
			}
		}
	}
	return d
}

// Robust solves the APSP LP on u from the zero iterate (feasible, since
// all edge lengths are positive) and returns the recovered distance matrix.
func (inst *Instance) Robust(u *fpu.Unit, o Options) (*linalg.Dense, solver.Result, error) {
	n := inst.G.N
	lp := inst.LP()
	mu := o.Mu
	if mu == 0 {
		mu = 8
	}
	var prob *core.PenaltyLP
	var err error
	if o.Loss != nil {
		prob, err = core.NewRobustPenaltyLP(u, lp, o.Loss, mu)
	} else {
		kind := o.Kind
		if kind == 0 {
			// The quadratic penalty's finite-μ bias telescopes along path
			// chains (each hop overshoots by ~1/(4μ)); the ℓ1 penalty is
			// exact at finite μ, so it is the default here.
			kind = core.PenaltyAbs
		}
		prob, err = core.NewPenaltyLP(u, lp, kind, mu)
	}
	if err != nil {
		return nil, solver.Result{}, err
	}
	sched := o.Schedule
	if sched == nil {
		// Large enough that the cumulative step mass covers the distance
		// scale; safe because the ℓ1 penalty's subgradient is bounded.
		sched = solver.Sqrt(0.5 / float64(n))
	}
	res, err := solver.SGD(prob, make([]float64, lp.Dim()), solver.Options{
		Iters:       o.Iters,
		Schedule:    sched,
		Momentum:    o.Momentum,
		Anneal:      o.Anneal,
		TailAverage: o.Tail,
		Unit:        u,
	})
	if err != nil {
		return nil, res, err
	}
	return inst.DistOf(res.X), res, nil
}

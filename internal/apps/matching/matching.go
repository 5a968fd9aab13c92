// Package matching implements the paper's bipartite graph matching
// application (§4.4, Figs 6.4 and 6.5): the Hungarian baseline on the
// faulty FPU (standing in for the OpenCV routine) and the robustified
// assignment-LP form with the §6.2 enhancement stack — step scaling,
// momentum, QR preconditioning, and penalty annealing.
package matching

import (
	"math/rand"

	"robustify/internal/core"
	"robustify/internal/fpu"
	"robustify/internal/graph"
	"robustify/internal/solver"
)

// Instance is a matching problem with its exact optimum for scoring.
type Instance struct {
	G *graph.Bipartite
	// Optimal is the reliable Hungarian solution; OptimalWeight its weight.
	Optimal       []int
	OptimalWeight float64
}

// NewInstance wraps a bipartite graph, solving it reliably for the
// reference optimum.
func NewInstance(g *graph.Bipartite) *Instance {
	assign, ok := graph.Hungarian(nil, g)
	if !ok {
		// Unreachable on a reliable unit; keep the zero matching to stay
		// total.
		assign = make([]int, g.Left)
		for i := range assign {
			assign[i] = -1
		}
	}
	w, _ := g.MatchingWeight(assign)
	return &Instance{G: g, Optimal: assign, OptimalWeight: w}
}

// RandomInstance generates the paper's Fig 6.4/6.5 instance family:
// left×right vertices (11 nodes as 5×6 in the paper), the given edge count,
// and weights in [1, 2) so the optimum is unique with probability one.
func RandomInstance(rng *rand.Rand, left, right, edges int) *Instance {
	return NewInstance(graph.RandomBipartite(rng, left, right, edges, 1, 2))
}

// Success is the Fig 6.4 criterion: every edge of the output matches the
// reference optimum's weight (all edges accurately chosen). Assignments
// touching non-edges or reusing columns fail outright.
func (inst *Instance) Success(assign []int) bool {
	if assign == nil {
		return false
	}
	w, valid := inst.G.MatchingWeight(assign)
	if !valid {
		return false
	}
	return w >= inst.OptimalWeight-1e-9
}

// Baseline runs the Hungarian algorithm with arithmetic on u and reports
// the resulting assignment (nil when the faulty run collapsed).
func (inst *Instance) Baseline(u *fpu.Unit) []int {
	assign, ok := graph.Hungarian(u, inst.G)
	if !ok {
		return nil
	}
	return assign
}

// Options configures the robustified solve; the zero value is the paper's
// "Basic,LS" configuration.
type Options struct {
	Iters      int
	Schedule   solver.Schedule // nil: Linear(0.5/max(n,m))
	Momentum   float64
	Aggressive *solver.Aggressive
	Anneal     *solver.Anneal
	Precond    bool
	Tail       int     // Polyak tail-averaging window (0 = off)
	L1, L2     float64 // penalty weights; 0 picks the defaults (2, 2)
}

// Robust solves the matching LP on u: maximize Σ Wᵢⱼ·Xᵢⱼ over doubly
// substochastic X in exact quadratic penalty form, with non-edges pinned at
// weight 0 so rounding never selects them at a feasible optimum. Rounding
// to an assignment (and preconditioner setup/recovery when enabled) are
// reliable control steps.
func (inst *Instance) Robust(u *fpu.Unit, o Options) ([]int, solver.Result, error) {
	l1, l2 := o.L1, o.L2
	if l1 == 0 {
		l1 = 2
	}
	if l2 == 0 {
		l2 = 2
	}
	rows, cols := inst.G.Left, inst.G.Right
	prob, err := core.NewAssignment(u, inst.G.W, l1, l2)
	if err != nil {
		return nil, solver.Result{}, err
	}
	sched := o.Schedule
	if sched == nil {
		d := rows
		if cols > d {
			d = cols
		}
		sched = solver.Linear(0.5 / float64(d))
	}
	opts := solver.Options{
		Iters:       o.Iters,
		Schedule:    sched,
		Momentum:    o.Momentum,
		Aggressive:  o.Aggressive,
		Anneal:      o.Anneal,
		TailAverage: o.Tail,
		Unit:        u,
	}
	x0 := prob.UniformStart()

	var x []float64
	var res solver.Result
	if o.Precond {
		// The preconditioned path follows §6.2.1 literally: the ℓ1 exact
		// penalty cᵀy + μ[Qy − b]₊ over the QR-transformed constraints.
		pre, err := core.Precondition(u, prob.ToLP(), core.PenaltyAbs, 2*l2)
		if err != nil {
			return nil, solver.Result{}, err
		}
		res, err = solver.SGD(pre, pre.InitialY(x0), opts)
		if err != nil {
			return nil, res, err
		}
		x, err = pre.Recover(res.X)
		if err != nil {
			return nil, res, err
		}
	} else {
		res, err = solver.SGD(prob, x0, opts)
		if err != nil {
			return nil, res, err
		}
		x = res.X
	}

	// Reliable rounding, restricted to real edges: a slot whose best
	// remaining entry is a non-edge stays unmatched.
	assign := core.RoundAssignment(rows, cols, maskNonEdges(inst.G, x))
	return assign, res, nil
}

// maskNonEdges forces entries at non-edges to an un-pickable value so the
// greedy rounding only selects real edges (reliable control step).
func maskNonEdges(g *graph.Bipartite, x []float64) []float64 {
	out := append([]float64(nil), x...)
	for i := 0; i < g.Left; i++ {
		for j := 0; j < g.Right; j++ {
			if !g.HasEdge(i, j) {
				out[i*g.Right+j] = -1e30
			}
		}
	}
	return out
}

// Variant is a named solver configuration of the Fig 6.5 enhancement
// study.
type Variant struct {
	Name string
	Opts Options
}

// Variants returns the Fig 6.5 ladder for an instance with the given
// iteration budget: Basic,LS → SQS → PRECOND → ANNEAL → ALL. The ALL stack
// composes annealing with momentum on the SQS schedule — the combination
// that measures best on this substrate (QR preconditioning is kept as its
// own rung: its dense-LP gradient costs ~20× the specialized one in FLOPs,
// which multiplies fault exposure under a per-FLOP fault model, so stacking
// it into ALL hurts at high rates here; see EXPERIMENTS.md).
func Variants(iters int, dim int) []Variant {
	ls := solver.Linear(0.5 / float64(dim))
	sqs := solver.Sqrt(0.5 / float64(dim))
	return []Variant{
		{Name: "Basic,LS", Opts: Options{Iters: iters, Schedule: ls}},
		{Name: "SQS", Opts: Options{Iters: iters, Schedule: sqs}},
		{Name: "PRECOND", Opts: Options{Iters: iters, Schedule: solver.Sqrt(0.02), Precond: true}},
		{Name: "ANNEAL", Opts: Options{Iters: iters, Schedule: sqs, Anneal: solver.DefaultAnneal()}},
		{Name: "ALL", Opts: Options{
			Iters:    iters,
			Schedule: sqs,
			Momentum: 0.5,
			Anneal:   solver.DefaultAnneal(),
		}},
	}
}

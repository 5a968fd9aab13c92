// Package maxflow implements the paper's maximum flow application (§4.5):
// the Ford-Fulkerson (Edmonds-Karp) baseline on the faulty FPU and the
// robustified LP form of Eqs 4.6–4.9 solved by penalized stochastic
// gradient descent.
package maxflow

import (
	"math/rand"

	"robustify/internal/core"
	"robustify/internal/fpu"
	"robustify/internal/graph"
	"robustify/internal/linalg"
	"robustify/internal/solver"
)

// Instance is a max-flow problem with its exact optimum for scoring.
type Instance struct {
	Net *graph.FlowNetwork
	// Opt is the exact maximum flow value (reliable Edmonds-Karp).
	Opt float64
	// edges enumerates the directed edges with positive capacity; the LP
	// optimizes one flow variable per edge.
	edges []edge
}

type edge struct {
	from, to int
	cap      float64
}

// NewInstance wraps a network, solving it reliably for the reference value.
func NewInstance(net *graph.FlowNetwork) *Instance {
	flow, _ := graph.MaxFlow(nil, net)
	inst := &Instance{Net: net, Opt: graph.FlowValue(net, flow)}
	for i := 0; i < net.N; i++ {
		for j := 0; j < net.N; j++ {
			if c := net.Cap.At(i, j); c > 0 {
				inst.edges = append(inst.edges, edge{from: i, to: j, cap: c})
			}
		}
	}
	return inst
}

// RandomInstance generates a random layered network with n nodes.
func RandomInstance(rng *rand.Rand, n, outDeg int, maxCap float64) *Instance {
	return NewInstance(graph.RandomFlowNetwork(rng, n, outDeg, maxCap))
}

// RelErr scores a flow value against the exact maximum (reliable metric).
func (inst *Instance) RelErr(value float64) float64 {
	if value != value { // NaN
		return 1e30
	}
	d := value - inst.Opt
	if d < 0 {
		d = -d
	}
	if inst.Opt == 0 {
		return d
	}
	return d / inst.Opt
}

// Baseline runs Edmonds-Karp with arithmetic on u and returns the achieved
// flow value, scored reliably. Corrupted runs may return wildly wrong
// values or fail outright (reported as a huge error).
func (inst *Instance) Baseline(u *fpu.Unit) float64 {
	flow, ok := graph.MaxFlow(u, inst.Net)
	if !ok {
		return 1e30
	}
	if !graph.FlowFeasible(inst.Net, flow, 1e-6*inst.Opt+1e-9) {
		// The faulty run "converged" to an infeasible flow: score its
		// claimed value anyway; feasibility violations show up as error.
		return graph.FlowValue(inst.Net, flow)
	}
	return graph.FlowValue(inst.Net, flow)
}

// LP builds the variational form of Eqs 4.6–4.9 over one variable per
// positive-capacity edge:
//
//	minimize  Σ −F(s→v)
//	s.t.      Σᵤ F(u→v) − Σᵤ F(v→u) = 0   for v ∉ {s, t}
//	          F(u→v) ≤ C(u→v),  −F(u→v) ≤ 0.
func (inst *Instance) LP() core.LinearProgram {
	nE := len(inst.edges)
	c := make([]float64, nE)
	for k, e := range inst.edges {
		if e.from == inst.Net.Source {
			c[k] = -1
		}
	}
	// Equality block: conservation at interior nodes.
	interior := make([]int, 0, inst.Net.N)
	for v := 0; v < inst.Net.N; v++ {
		if v != inst.Net.Source && v != inst.Net.Sink {
			interior = append(interior, v)
		}
	}
	var eq *linalg.Dense
	var beq []float64
	if len(interior) > 0 {
		eq = linalg.NewDense(len(interior), nE)
		beq = make([]float64, len(interior))
		for r, v := range interior {
			for k, e := range inst.edges {
				if e.to == v {
					eq.Set(r, k, 1)
				}
				if e.from == v {
					eq.Set(r, k, eq.At(r, k)-1)
				}
			}
		}
	}
	// Inequality block: capacity and non-negativity.
	ineq := linalg.NewDense(2*nE, nE)
	b := make([]float64, 2*nE)
	for k, e := range inst.edges {
		ineq.Set(k, k, 1)
		b[k] = e.cap
		ineq.Set(nE+k, k, -1)
		b[nE+k] = 0
	}
	return core.LinearProgram{C: c, Ineq: ineq, BIneq: b, Eq: eq, BEq: beq}
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
}

// Robust solves the max-flow LP on u and returns the achieved flow value
// (the reliable Σ F(s→v) of the final iterate) along with the raw flows.
func (inst *Instance) Robust(u *fpu.Unit, o Options) (float64, []float64, error) {
	lp := inst.LP()
	mu := o.Mu
	if mu == 0 {
		mu = 8
	}
	kind := o.Kind
	if kind == 0 {
		// ℓ1 penalty: exact at finite μ, avoiding the quadratic form's
		// systematic capacity/conservation overshoot.
		kind = core.PenaltyAbs
	}
	prob, err := core.NewPenaltyLP(u, lp, kind, mu)
	if err != nil {
		return 0, nil, err
	}
	sched := o.Schedule
	if sched == nil {
		sched = solver.Sqrt(0.5 / float64(inst.Net.N))
	}
	res, err := solver.SGD(prob, make([]float64, len(inst.edges)), solver.Options{
		Iters:       o.Iters,
		Schedule:    sched,
		Momentum:    o.Momentum,
		Anneal:      o.Anneal,
		TailAverage: o.Tail,
		Unit:        u,
	})
	if err != nil {
		return 0, nil, err
	}
	return inst.FlowValue(res.X), res.X, nil
}

// FlowValue sums the flow out of the source (reliable metric path).
func (inst *Instance) FlowValue(x []float64) float64 {
	var total float64
	for k, e := range inst.edges {
		if e.from == inst.Net.Source {
			total += x[k]
		}
		if e.to == inst.Net.Source {
			total -= x[k]
		}
	}
	return total
}

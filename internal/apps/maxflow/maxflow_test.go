package maxflow

import (
	"math"
	"math/rand"
	"testing"

	"robustify/internal/fpu"
	"robustify/internal/graph"
)

func diamond() *Instance {
	net := graph.NewFlowNetwork(4, 0, 3)
	net.Cap.Set(0, 1, 3)
	net.Cap.Set(1, 3, 3)
	net.Cap.Set(0, 2, 2)
	net.Cap.Set(2, 3, 2)
	return NewInstance(net)
}

func TestInstanceReference(t *testing.T) {
	inst := diamond()
	if math.Abs(inst.Opt-5) > 1e-9 {
		t.Fatalf("Opt = %v, want 5", inst.Opt)
	}
	if len(inst.edges) != 4 {
		t.Errorf("edges = %d", len(inst.edges))
	}
}

func TestRelErrMetric(t *testing.T) {
	inst := diamond()
	if inst.RelErr(5) != 0 {
		t.Error("exact value should score 0")
	}
	if got := inst.RelErr(4); math.Abs(got-0.2) > 1e-12 {
		t.Errorf("RelErr(4) = %v", got)
	}
	if inst.RelErr(math.NaN()) < 1e29 {
		t.Error("NaN should score huge")
	}
}

func TestBaselineExactReliably(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 10; trial++ {
		inst := RandomInstance(rng, 4+rng.Intn(5), 2, 5)
		if re := inst.RelErr(inst.Baseline(nil)); re > 1e-9 {
			t.Fatalf("trial %d: reliable baseline rel err %v", trial, re)
		}
	}
}

func TestBaselineDegradesUnderFaults(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	inst := RandomInstance(rng, 10, 3, 5)
	bad := 0
	const trials = 20
	for trial := 0; trial < trials; trial++ {
		u := fpu.New(fpu.WithFaultRate(0.05, uint64(trial+1)))
		if inst.RelErr(inst.Baseline(u)) > 0.01 {
			bad++
		}
	}
	if bad == 0 {
		t.Error("faulty Edmonds-Karp never degraded at 5%")
	}
}

// TestLPOptimumIsMaxFlow: solving the LP variational form reliably
// recovers the max-flow value — the transformation is sound.
func TestLPOptimumIsMaxFlow(t *testing.T) {
	inst := diamond()
	value, x, err := inst.Robust(nil, Options{Iters: 20000})
	if err != nil {
		t.Fatal(err)
	}
	if re := inst.RelErr(value); re > 0.02 {
		t.Errorf("robust value %v vs opt %v (rel %v)", value, inst.Opt, re)
	}
	lp := inst.LP()
	if v := lp.MaxViolation(x); v > 0.05 {
		t.Errorf("constraint violation %v", v)
	}
}

func TestRobustRandomNetworksReliable(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 3; trial++ {
		inst := RandomInstance(rng, 6, 2, 4)
		value, _, err := inst.Robust(nil, Options{Iters: 20000, Tail: 4000})
		if err != nil {
			t.Fatal(err)
		}
		if re := inst.RelErr(value); re > 0.05 {
			t.Errorf("trial %d: rel err %v (value %v, opt %v)", trial, re, value, inst.Opt)
		}
	}
}

func TestRobustTolerantUnderFaults(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	inst := RandomInstance(rng, 6, 2, 4)
	ok := 0
	const trials = 6
	for trial := 0; trial < trials; trial++ {
		u := fpu.New(fpu.WithFaultRate(0.02, uint64(trial+1)))
		value, _, err := inst.Robust(u, Options{Iters: 20000, Tail: 4000})
		if err != nil {
			t.Fatal(err)
		}
		if inst.RelErr(value) < 0.10 {
			ok++
		}
	}
	if ok < trials/2 {
		t.Errorf("robust max-flow at 2%% faults: %d/%d within 10%%", ok, trials)
	}
}

func TestLPShape(t *testing.T) {
	inst := diamond()
	lp := inst.LP()
	if err := lp.Validate(); err != nil {
		t.Fatal(err)
	}
	if lp.Eq == nil || lp.Eq.Rows != 2 {
		t.Error("conservation rows missing (2 interior nodes)")
	}
	if lp.Ineq.Rows != 8 {
		t.Errorf("capacity+nonneg rows = %d, want 8", lp.Ineq.Rows)
	}
	// The exact max flow (3 on top path, 2 on bottom) is feasible.
	x := []float64{3, 2, 3, 2}
	if v := lp.MaxViolation(x); v > 1e-12 {
		t.Errorf("exact flow violates LP by %v", v)
	}
	if got := inst.FlowValue(x); math.Abs(got-5) > 1e-12 {
		t.Errorf("FlowValue = %v", got)
	}
}

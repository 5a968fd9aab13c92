package figures

import (
	"fmt"

	"robustify/internal/apps/apsp"
	"robustify/internal/apps/maxflow"
	"robustify/internal/apps/robsort"
	"robustify/internal/apps/svm"
	"robustify/internal/core"
	"robustify/internal/detrand"
	"robustify/internal/fpu"
	"robustify/internal/harness"
)

// planFaultModel addresses Ch. 7's open question — how the methodology
// fares under different fault models — by sweeping the four bit
// distributions on two workloads at each fault rate: robust sorting
// (success rate) and robust least-squares-free IIR-style SGD is already
// covered elsewhere, so the second workload here is the SVM trainer
// (held-out accuracy).
func planFaultModel(c Config) *Plan {
	iters := 10000
	if c.Quick {
		iters = 2000
	}
	trials := c.trials(40, 6)
	rates := []float64{0.05, 0.2, 0.5}
	if c.Quick {
		rates = []float64{0.05, 0.5}
	}
	sweep := harness.Sweep{Rates: rates, Trials: trials, Seed: c.Seed + 71, Workers: c.Workers}
	dists := []*fpu.BitDistribution{
		fpu.EmulatedDistribution(),
		fpu.MeasuredDistribution(),
		fpu.LowOrderDistribution(),
		fpu.UniformDistribution(),
	}
	var units []Unit
	for _, dist := range dists {
		units = append(units, Unit{
			Series: "sort/" + dist.Name(), Agg: "mean", Sweep: sweep,
			Fn: func(rate float64, seed uint64) float64 {
				data := SortData(seed, 5)
				inj := fpu.NewInjector(rate, seed, fpu.WithDistribution(dist))
				u := fpu.New(fpu.WithInjector(inj))
				out, _, err := robsort.Robust(u, data, robsort.Options{
					Iters: iters, Tail: iters / 5, Guard: 1e3,
				})
				if err != nil {
					return 0
				}
				return b2f(robsort.Success(out, data))
			},
		})
	}
	return &Plan{
		ID: "faultmodel",
		Skeleton: harness.Table{
			Title:  fmt.Sprintf("Ch.7 ablation: robust sort success under different fault models (%d iterations)", iters),
			YLabel: "success rate",
			Notes: []string{
				"with the magnitude guard (reliable range check at 1e3), mantissa-dominated models stay correct; uniform faults (17% exponent-bit mass, unbounded errors) remain the worst case",
			},
		},
		Units: units,
	}
}

// planPenalty measures the ℓ1-vs-quadratic exact penalty design choice
// on the two graph LPs, where the quadratic form's finite-μ bias is
// structural (it telescopes along shortest-path chains and flow paths).
func planPenalty(c Config) *Plan {
	iters := 20000
	if c.Quick {
		iters = 4000
	}
	trials := c.trials(12, 3)
	rates := []float64{0, 0.01, 0.05}
	if c.Quick {
		rates = []float64{0, 0.05}
	}
	sweep := harness.Sweep{Rates: rates, Trials: trials, Seed: c.Seed + 72, Workers: c.Workers}

	rngA := detrand.New(int64(c.Seed) + 720)
	apspInst := apsp.RandomInstance(rngA, 6, 8, 5)
	rngF := detrand.New(int64(c.Seed) + 721)
	flowInst := maxflow.RandomInstance(rngF, 6, 2, 4)

	apspRun := func(kind core.PenaltyKind) harness.TrialFunc {
		return func(rate float64, seed uint64) float64 {
			u := c.Unit(rate, seed)
			d, _, err := apspInst.Robust(u, apsp.Options{Iters: iters, Kind: kind, Tail: iters / 5})
			if err != nil {
				return 1e6
			}
			return capErr(apspInst.MeanRelErr(d))
		}
	}
	flowRun := func(kind core.PenaltyKind) harness.TrialFunc {
		return func(rate float64, seed uint64) float64 {
			u := c.Unit(rate, seed)
			value, _, err := flowInst.Robust(u, maxflow.Options{Iters: iters, Kind: kind, Tail: iters / 5})
			if err != nil {
				return 1e6
			}
			return capErr(flowInst.RelErr(value))
		}
	}
	return &Plan{
		ID: "penalty",
		Skeleton: harness.Table{
			Title:  fmt.Sprintf("Design ablation: exact penalty form on the graph LPs (%d iterations)", iters),
			YLabel: "mean relative error (lower is better)",
			Notes: []string{
				"the quadratic penalty's finite-mu constraint overshoot telescopes along path/flow chains; the l1 penalty is exact at finite mu (Theorem 2)",
			},
		},
		Units: []Unit{
			{Series: "apsp/abs", Agg: "median", Sweep: sweep, Fn: apspRun(core.PenaltyAbs)},
			{Series: "apsp/quad", Agg: "median", Sweep: sweep, Fn: apspRun(core.PenaltyQuad)},
			{Series: "maxflow/abs", Agg: "median", Sweep: sweep, Fn: flowRun(core.PenaltyAbs)},
			{Series: "maxflow/quad", Agg: "median", Sweep: sweep, Fn: flowRun(core.PenaltyQuad)},
		},
	}
}

// planSVM measures the §4.7 SVM workload: robust Pegasos-style
// training against the mistake-driven perceptron baseline.
func planSVM(c Config) *Plan {
	iters := 2000
	if c.Quick {
		iters = 500
	}
	trials := c.trials(20, 4)
	rates := []float64{0.001, 0.01, 0.05, 0.2}
	if c.Quick {
		rates = []float64{0.01, 0.2}
	}
	rng := detrand.New(int64(c.Seed) + 73)
	data := svm.TwoGaussians(rng, 200, 400, 8, 2.5)
	sweep := harness.Sweep{Rates: rates, Trials: trials, Seed: c.Seed + 73, Workers: c.Workers}
	return &Plan{
		ID: "svm",
		Skeleton: harness.Table{
			Title:  fmt.Sprintf("§4.7 extension: SVM training accuracy under FPU faults (%d iterations)", iters),
			YLabel: "held-out accuracy",
		},
		Units: []Unit{
			{Series: "perceptron", Agg: "mean", Sweep: sweep, Fn: func(rate float64, seed uint64) float64 {
				u := c.Unit(rate, seed)
				return data.Accuracy(svm.Perceptron(u, data, 10))
			}},
			{Series: "robust-pegasos", Agg: "mean", Sweep: sweep, Fn: func(rate float64, seed uint64) float64 {
				u := c.Unit(rate, seed)
				w, _, err := svm.Train(u, data, svm.Options{Iters: iters})
				if err != nil {
					return 0
				}
				return data.Accuracy(w)
			}},
		},
	}
}

package figures

import (
	"fmt"
	"math"

	"robustify/internal/apps/apsp"
	"robustify/internal/apps/eigen"
	"robustify/internal/apps/maxflow"
	"robustify/internal/detrand"
	"robustify/internal/harness"
)

// planGraphLP measures the §4.5/§4.6 transformations the paper describes but
// does not plot: max-flow and all-pairs shortest paths as penalized LPs
// against their conventional baselines, across fault rates.
func planGraphLP(c Config) *Plan {
	iters := 20000
	if c.Quick {
		iters = 4000
	}
	trials := c.trials(15, 3)
	rates := []float64{1e-3, 0.01, 0.05}
	if c.Quick {
		rates = []float64{0.01}
	}
	sweep := harness.Sweep{Rates: rates, Trials: trials, Seed: c.Seed + 74, Workers: c.Workers}

	rngF := detrand.New(int64(c.Seed) + 740)
	flowInst := maxflow.RandomInstance(rngF, 6, 2, 4)
	rngA := detrand.New(int64(c.Seed) + 741)
	apspInst := apsp.RandomInstance(rngA, 6, 8, 5)

	return &Plan{
		ID: "graphlp",
		Skeleton: harness.Table{
			Title:  fmt.Sprintf("§4.5/§4.6: graph LPs vs conventional baselines (%d iterations)", iters),
			YLabel: "relative error (median; lower is better)",
		},
		Units: []Unit{
			{Series: "maxflow/FordFulkerson", Agg: "median", Sweep: sweep, Fn: func(rate float64, seed uint64) float64 {
				u := c.Unit(rate, seed)
				return capErr(flowInst.RelErr(flowInst.Baseline(u)))
			}},
			{Series: "maxflow/robust-LP", Agg: "median", Sweep: sweep, Fn: func(rate float64, seed uint64) float64 {
				u := c.Unit(rate, seed)
				value, _, err := flowInst.Robust(u, maxflow.Options{Iters: iters, Tail: iters / 5})
				if err != nil {
					return 1e6
				}
				return capErr(flowInst.RelErr(value))
			}},
			{Series: "apsp/FloydWarshall", Agg: "median", Sweep: sweep, Fn: func(rate float64, seed uint64) float64 {
				u := c.Unit(rate, seed)
				return capErr(apspInst.MeanRelErr(apspInst.Baseline(u)))
			}},
			{Series: "apsp/robust-LP", Agg: "median", Sweep: sweep, Fn: func(rate float64, seed uint64) float64 {
				u := c.Unit(rate, seed)
				d, _, err := apspInst.Robust(u, apsp.Options{Iters: iters, Tail: iters / 5})
				if err != nil {
					return 1e6
				}
				return capErr(apspInst.MeanRelErr(d))
			}},
		},
	}
}

// planEigen measures the §4.7 Rayleigh-quotient transformation: absolute
// error of the dominant eigenvalue for robust gradient ascent vs the
// conventional power iteration, across fault rates.
func planEigen(c Config) *Plan {
	n := 6
	iters := 2000
	powIters := 300
	if c.Quick {
		iters, powIters = 500, 100
	}
	trials := c.trials(20, 4)
	rates := []float64{1e-3, 0.01, 0.05}
	if c.Quick {
		rates = []float64{0.01}
	}
	rng := detrand.New(int64(c.Seed) + 75)
	m := eigen.RandomSymmetric(rng, n)
	wantTop := float64(n) // by construction of RandomSymmetric
	sweep := harness.Sweep{Rates: rates, Trials: trials, Seed: c.Seed + 75, Workers: c.Workers}

	score := func(lambda float64) float64 {
		if lambda != lambda || math.IsInf(lambda, 0) {
			return 1e6
		}
		return capErr(math.Abs(lambda-wantTop) / wantTop)
	}
	return &Plan{
		ID: "eigen",
		Skeleton: harness.Table{
			Title:  fmt.Sprintf("§4.7: dominant eigenpair, robust Rayleigh ascent vs power iteration (n=%d)", n),
			YLabel: "relative eigenvalue error (median; lower is better)",
		},
		Units: []Unit{
			{Series: "power-iteration", Agg: "median", Sweep: sweep, Fn: func(rate float64, seed uint64) float64 {
				u := c.Unit(rate, seed)
				lambda, _ := eigen.PowerIteration(u, m, powIters)
				return score(lambda)
			}},
			{Series: "robust-rayleigh", Agg: "median", Sweep: sweep, Fn: func(rate float64, seed uint64) float64 {
				u := c.Unit(rate, seed)
				lambda, _, err := eigen.TopEigen(u, m, eigen.Options{Iters: iters})
				if err != nil {
					return 1e6
				}
				return score(lambda)
			}},
		},
	}
}

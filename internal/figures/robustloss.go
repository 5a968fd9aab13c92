package figures

import (
	"fmt"
	"math/rand"

	"robustify/internal/apps/leastsq"
	"robustify/internal/detrand"
	"robustify/internal/harness"
	"robustify/internal/robust"
)

// planRobustLoss measures the robust-loss design axis: least-squares SGD
// under FPU faults with the residual loss swept over the internal/robust
// registry. The quadratic series is the paper's objective (bit-identical to
// the pre-loss solver); the bounded-influence losses cap the pull of a
// residual a fault has blown up, which is exactly the failure mode that
// dominates at high fault rates.
func planRobustLoss(c Config) *Plan {
	iters := 800
	if c.Quick {
		iters = 200
	}
	trials := c.trials(16, 3)
	rates := []float64{0, 0.01, 0.05, 0.2}
	if c.Quick {
		rates = []float64{0.01, 0.2}
	}
	sweep := harness.Sweep{Rates: rates, Trials: trials, Seed: c.Seed + 81, Workers: c.Workers}

	run := func(kind robust.Kind) harness.TrialFunc {
		return func(rate float64, seed uint64) float64 {
			inst, err := LsqInstance(seed)
			if err != nil {
				return 1e6
			}
			// Per-trial loss: a Robustifier carries mutable shape state, so
			// parallel trials must not share one.
			var loss robust.Robustifier
			if kind != robust.Quadratic {
				if loss, err = robust.New(kind, 0); err != nil {
					return 1e6
				}
			}
			u := c.Unit(rate, seed)
			x, _, err := inst.SolveSGD(u, leastsq.SGDOptions{Iters: iters, Loss: loss})
			if err != nil {
				return 1e6
			}
			return capErr(inst.RelErr(x))
		}
	}

	units := make([]Unit, 0, len(robust.Kinds()))
	for _, kind := range robust.Kinds() {
		units = append(units, Unit{
			Series: string(kind), Agg: "median", Sweep: sweep, Fn: run(kind),
		})
	}
	return &Plan{
		ID: "robustloss",
		Skeleton: harness.Table{
			Title:  fmt.Sprintf("Robust-loss ablation: least squares under FPU faults (%d iterations, default shapes)", iters),
			YLabel: "median relative error (lower is better)",
			Notes: []string{
				"quadratic is the paper's objective; bounded-influence losses (huber, pseudo-huber, geman-mcclure, smooth-l1) cap how hard one fault-corrupted residual can pull the gradient",
			},
		},
		Units: units,
	}
}

// LsqInstance derives one least-squares trial's instance (A 30x6 with
// mild observation noise) from its seed.
func LsqInstance(seed uint64) (inst *leastsq.Instance, err error) {
	detrand.Scoped(int64(seed), func(rng *rand.Rand) {
		inst, err = leastsq.Random(rng, 30, 6, 0.01)
	})
	return inst, err
}

package leastsq

import (
	"math"
	"sort"

	"robustify/internal/fpu"
)

// EnergyPoint is one x-position of Fig 6.7: the FPU energy (power × #FLOPs)
// needed to hit an accuracy target with the CG solver at its best
// (voltage, iterations) operating point, against the Cholesky baseline
// pinned at nominal voltage.
type EnergyPoint struct {
	Target         float64 // required relative error
	BaselineEnergy float64 // Cholesky at nominal (guardbanded) voltage
	CGEnergy       float64 // best CG operating point, +Inf when infeasible
	CGVoltage      float64
	CGIters        int
	CGRate         float64 // fault rate at the chosen voltage
	Feasible       bool
}

// EnergyOptions configures the Fig 6.7 sweep.
type EnergyOptions struct {
	Model  fpu.VoltageModel
	Trials int       // runs per operating point (median error is used)
	Seed   uint64    // base RNG seed
	Rates  []float64 // candidate fault rates (≥ the model's knee rate)
	Iters  []int     // candidate CG iteration budgets
}

// DefaultEnergyOptions returns the grid used for the Fig 6.7 reproduction.
// The FPU is modelled single-precision (Leon3's 32-bit FPU), which is what
// creates the paper's ≈1e-7 accuracy wall.
func DefaultEnergyOptions() EnergyOptions {
	return EnergyOptions{
		Model:  fpu.DefaultVoltageModel(),
		Trials: 11,
		Seed:   1,
		Rates:  []float64{1e-7, 1e-6, 1e-5, 1e-4, 1e-3, 1e-2, 5e-2},
		Iters:  []int{4, 6, 8, 10, 14, 20, 30},
	}
}

// operatingPoint is a measured (rate, iters) CG configuration.
type operatingPoint struct {
	rate      float64
	iters     int
	medianErr float64
	meanFLOPs float64
}

// EnergySweep measures Fig 6.7: for each accuracy target, the cheapest CG
// operating point that still meets the target (voltage and iteration count
// co-scaled), versus the Cholesky baseline that must stay at nominal
// voltage because direct factorizations cannot tolerate FPU faults.
func (inst *Instance) EnergySweep(targets []float64, o EnergyOptions) []EnergyPoint {
	if o.Trials <= 0 {
		o.Trials = 11
	}
	// Baseline: Cholesky on a reliable single-precision FPU at nominal
	// voltage. Energy is flat across targets.
	bu := fpu.New(fpu.WithSinglePrecision(), fpu.WithOpEnergy(o.Model.Power(o.Model.Nominal)))
	xb := inst.SolveCholesky(bu)
	baseErr := inst.RelErr(xb)
	baseEnergy := bu.Energy()

	// Measure the CG grid once.
	points := make([]operatingPoint, 0, len(o.Rates)*len(o.Iters))
	for _, rate := range o.Rates {
		for _, iters := range o.Iters {
			errs := make([]float64, 0, o.Trials)
			var flops float64
			for trial := 0; trial < o.Trials; trial++ {
				seed := o.Seed*1_000_003 + uint64(trial)*7919 + uint64(iters)*31 + uint64(rate*1e9)
				inj := fpu.NewInjector(rate, seed)
				u := fpu.New(fpu.WithInjector(inj), fpu.WithSinglePrecision())
				x, _, err := inst.SolveCG(u, iters, 5)
				if err != nil {
					errs = append(errs, math.Inf(1))
					continue
				}
				errs = append(errs, inst.RelErr(x))
				flops += float64(u.FLOPs())
			}
			sort.Float64s(errs)
			points = append(points, operatingPoint{
				rate:      rate,
				iters:     iters,
				medianErr: errs[len(errs)/2],
				meanFLOPs: flops / float64(o.Trials),
			})
		}
	}

	out := make([]EnergyPoint, 0, len(targets))
	for _, target := range targets {
		ep := EnergyPoint{Target: target, CGEnergy: math.Inf(1)}
		// The baseline meets any target down to its own precision floor.
		if baseErr <= target {
			ep.BaselineEnergy = baseEnergy
		} else {
			ep.BaselineEnergy = math.Inf(1)
		}
		for _, pt := range points {
			if pt.medianErr > target {
				continue
			}
			energy := pt.meanFLOPs * o.Model.PowerForRate(pt.rate)
			if energy < ep.CGEnergy {
				ep.CGEnergy = energy
				ep.CGVoltage = o.Model.VoltageFor(pt.rate)
				ep.CGIters = pt.iters
				ep.CGRate = pt.rate
				ep.Feasible = true
			}
		}
		out = append(out, ep)
	}
	return out
}

// Package figures regenerates every table and figure of the paper's
// evaluation (Figs 5.1, 5.2, 6.1–6.7) plus the §6.2.2 momentum and §6.3
// solver-cost ablations, on the simulated stochastic-FPU substrate.
//
// Each figure builds a harness.Table whose series mirror the paper's
// figure legend. Absolute values depend on the substrate; the reproduction
// targets are the curve shapes: who wins, by roughly what factor, and where
// the crossovers fall. EXPERIMENTS.md records paper-vs-measured for each.
package figures

import (
	"fmt"
	"math"
	"math/rand"

	"robustify/internal/apps/iir"
	"robustify/internal/apps/leastsq"
	"robustify/internal/apps/matching"
	"robustify/internal/apps/robsort"
	"robustify/internal/detrand"
	"robustify/internal/fpu"
	"robustify/internal/fpu/faultmodel"
	"robustify/internal/harness"
	"robustify/internal/solver"
)

// Config scales a figure run.
type Config struct {
	// Trials per cell; 0 picks the figure's default.
	Trials int
	// Seed makes the whole figure reproducible.
	Seed uint64
	// Quick shrinks problem sizes and grids for smoke tests and benches.
	Quick bool
	// Workers bounds sweep parallelism (0 = GOMAXPROCS); it never affects
	// results, only scheduling.
	Workers int
	// FaultModel selects the injection model every faulty trial unit runs
	// under (see fpu/faultmodel). Nil keeps the default model and is
	// bit-identical to the pre-faultmodel builders per seed. Builders that
	// pin a specific injector by design (the distribution ablation) ignore
	// it.
	FaultModel *faultmodel.Spec
}

func (c Config) trials(def, quick int) int {
	if c.Trials > 0 {
		return c.Trials
	}
	if c.Quick {
		return quick
	}
	return def
}

// Unit builds one trial's FPU under the configured fault model — the one
// construction point every builder shares, so campaign specs select the
// model for all of them at once. Rate 0 yields a reliable unit under every
// model.
func (c Config) Unit(rate float64, seed uint64) *fpu.Unit {
	return c.FaultModel.Unit(rate, seed)
}

// Builder constructs one figure eagerly.
type Builder func(Config) *harness.Table

// Figure is one entry of the registry. A sweep-shaped figure has a Plan:
// its trial grid, which the campaign engine can execute, persist and
// resume. The others (5.1, 5.2, 6.7, flops) measure distributions,
// analytic curves or FLOP counts and have only an eager builder.
type Figure struct {
	ID, Desc string
	Plan     func(Config) *Plan
	build    Builder
}

// Build runs the figure: its plan when it has one, its builder otherwise.
func (f Figure) Build(c Config) *harness.Table {
	if f.Plan != nil {
		return f.Plan(c).Build()
	}
	return f.build(c)
}

// All returns the figure registry in presentation order.
func All() []Figure {
	return []Figure{
		{ID: "5.1", Desc: "FPU fault bit-position distribution: measured vs emulated", build: Fig51},
		{ID: "5.2", Desc: "FPU error rate vs supply voltage", build: Fig52},
		{ID: "6.1", Desc: "Sorting success rate vs fault rate (10k iterations)", Plan: plan61},
		{ID: "6.2", Desc: "Least squares relative error vs fault rate (1k iterations)", Plan: plan62},
		{ID: "6.3", Desc: "IIR error-to-signal ratio vs fault rate (1k iterations)", Plan: plan63},
		{ID: "6.4", Desc: "Bipartite matching success rate vs fault rate (10k iterations)", Plan: plan64},
		{ID: "6.5", Desc: "Matching enhancement ladder vs fault rate", Plan: plan65},
		{ID: "6.6", Desc: "CG-based least squares accuracy vs fault rate", Plan: plan66},
		{ID: "6.7", Desc: "Least squares energy vs accuracy target", build: Fig67},
		{ID: "momentum", Desc: "§6.2.2 momentum ablation on sorting and matching", Plan: planMomentum},
		{ID: "flops", Desc: "§6.3 solver cost in FLOPs (least squares 100x10)", build: SolverFLOPs},
		{ID: "faultmodel", Desc: "Ch.7 ablation: robust sort under different fault models", Plan: planFaultModel},
		{ID: "penalty", Desc: "design ablation: l1 vs quadratic exact penalty on graph LPs", Plan: planPenalty},
		{ID: "svm", Desc: "§4.7 extension: robust SVM training vs perceptron", Plan: planSVM},
		{ID: "robustloss", Desc: "robust-loss ablation: residual loss vs fault rate on least squares", Plan: planRobustLoss},
		{ID: "graphlp", Desc: "§4.5/§4.6: max-flow and APSP LPs vs conventional baselines", Plan: planGraphLP},
		{ID: "eigen", Desc: "§4.7 extension: dominant eigenpair vs power iteration", Plan: planEigen},
	}
}

// find returns the registry entry for id, or the zero Figure.
func find(id string) Figure {
	for _, f := range All() {
		if f.ID == id {
			return f
		}
	}
	return Figure{}
}

// Lookup returns the builder for a figure id, or nil.
func Lookup(id string) Builder {
	if f := find(id); f.ID != "" {
		return f.Build
	}
	return nil
}

// Fig51 reproduces Fig 5.1: the measured bit-position fault histogram and
// the emulated mixture used by the injector, with an empirical sample check.
func Fig51(c Config) *harness.Table {
	measured := fpu.MeasuredDistribution()
	emulated := fpu.EmulatedDistribution()
	n := c.trials(2_000_000, 100_000)
	rng := fpu.NewLFSR(c.Seed + 51)
	counts := make([]int, fpu.WordBits)
	for i := 0; i < n; i++ {
		counts[emulated.Sample(rng.Float64())]++
	}
	var mSer, eSer, sSer harness.Series
	mSer.Name = "measured"
	eSer.Name = "emulated"
	sSer.Name = "emulated(sampled)"
	for bit := 0; bit < fpu.WordBits; bit++ {
		x := float64(bit)
		mSer.Points = append(mSer.Points, harness.Point{Rate: x, Value: measured.Prob(bit)})
		eSer.Points = append(eSer.Points, harness.Point{Rate: x, Value: emulated.Prob(bit)})
		sSer.Points = append(sSer.Points, harness.Point{Rate: x, Value: float64(counts[bit]) / float64(n)})
	}
	return &harness.Table{
		Title:  "Fig 5.1: distribution of FPU faults across result bits",
		XLabel: "bit (0=mantissa LSB, 51=mantissa MSB, 52-62=exp, 63=sign)",
		YLabel: "fault probability",
		Series: []harness.Series{mSer, eSer, sSer},
		Notes: []string{
			"bimodal: timing faults cluster in the upper mantissa (large but bounded errors) and the low-order bits (small errors)",
		},
	}
}

// Fig52 reproduces Fig 5.2: the voltage → error-rate curve of the FPU
// model used for all energy accounting.
func Fig52(c Config) *harness.Table {
	m := fpu.DefaultVoltageModel()
	var rate, power harness.Series
	rate.Name = "error rate (errors/op)"
	power.Name = "power (norm.)"
	for step := 0; step <= 24; step++ {
		v := 1.20 - 0.025*float64(step)
		rate.Points = append(rate.Points, harness.Point{Rate: v, Value: m.ErrorRate(v)})
		power.Points = append(power.Points, harness.Point{Rate: v, Value: m.Power(v)})
	}
	return &harness.Table{
		Title:  "Fig 5.2: FPU error rate as supply voltage is scaled",
		XLabel: "supply voltage (V)",
		YLabel: "errors per operation",
		Series: []harness.Series{rate, power},
		Notes: []string{
			fmt.Sprintf("knee at %.2fV (first errors, %.0e/op), one decade per %.0fmV, saturating at %.1f",
				m.Knee, m.KneeRate, m.DecadeStep*1000, m.MaxRate),
		},
	}
}

// sortRates is the Fig 6.1/6.4 fault-rate grid (fractions of FLOPs).
func sortRates(quick bool) []float64 {
	if quick {
		return []float64{0.001, 0.05, 0.5}
	}
	return []float64{0.001, 0.005, 0.01, 0.02, 0.05, 0.10, 0.25, 0.50}
}

// plan61 reproduces Fig 6.1: sorting success rate for the quicksort
// baseline and the SGD variants, 5-element arrays, 10 000 iterations.
func plan61(c Config) *Plan {
	const n = 5
	iters := 10000
	if c.Quick {
		iters = 2000
	}
	trials := c.trials(100, 8)
	sweep := harness.Sweep{Rates: sortRates(c.Quick), Trials: trials, Seed: c.Seed + 61, Workers: c.Workers}

	runRobust := func(opts robsort.Options) harness.TrialFunc {
		return func(rate float64, seed uint64) float64 {
			data := SortData(seed, n)
			u := c.Unit(rate, seed)
			out, _, err := robsort.Robust(u, data, opts)
			if err != nil {
				return 0
			}
			return b2f(robsort.Success(out, data))
		}
	}
	ls := solver.Linear(0.5 / n)
	sqs := solver.Sqrt(0.5 / n)
	units := []Unit{
		{Series: "Base", Agg: "mean", Sweep: sweep, Fn: func(rate float64, seed uint64) float64 {
			data := SortData(seed, n)
			u := c.Unit(rate, seed)
			return b2f(robsort.Success(robsort.Baseline(u, data), data))
		}},
		{Series: "SGD", Agg: "mean", Sweep: sweep, Fn: runRobust(robsort.Options{Iters: iters, Schedule: ls})},
		{Series: "SGD+AS,LS", Agg: "mean", Sweep: sweep, Fn: runRobust(robsort.Options{
			Iters: iters, Schedule: ls, Aggressive: solver.DefaultAggressive()})},
		{Series: "SGD+AS,SQS", Agg: "mean", Sweep: sweep, Fn: runRobust(robsort.Options{
			Iters: iters, Schedule: sqs, Aggressive: solver.DefaultAggressive(), Tail: iters / 5})},
	}
	return &Plan{
		ID: "6.1",
		Skeleton: harness.Table{
			Title:  fmt.Sprintf("Fig 6.1: accuracy of sort, %d iterations (%d-element arrays)", iters, n),
			YLabel: "success rate",
			Notes: []string{
				"LS = 1/t step scaling, SQS = 1/sqrt(t); SQS series uses Polyak tail averaging (the Theorem 1 convex-case iterate)",
			},
		},
		Units: units,
	}
}

// lsqRates is the Fig 6.2/6.6 fault-rate grid.
func lsqRates(quick bool) []float64 {
	if quick {
		return []float64{1e-4, 0.01, 0.1}
	}
	return []float64{1e-4, 1e-3, 5e-3, 0.01, 0.02, 0.05, 0.10}
}

// plan62 reproduces Fig 6.2: least squares relative error for the SVD
// baseline and the SGD variants (A ∈ R^100×10, 1000 iterations).
func plan62(c Config) *Plan {
	m, n, iters := 100, 10, 1000
	if c.Quick {
		m, n, iters = 40, 6, 300
	}
	trials := c.trials(25, 5)
	rng := detrand.New(int64(c.Seed) + 62)
	inst, err := leastsq.Random(rng, m, n, 0.01)
	if err != nil {
		panic(fmt.Sprintf("figures: lsq instance: %v", err))
	}
	sweep := harness.Sweep{Rates: lsqRates(c.Quick), Trials: trials, Seed: c.Seed + 62, Workers: c.Workers}

	runSGD := func(o leastsq.SGDOptions) harness.TrialFunc {
		return func(rate float64, seed uint64) float64 {
			u := c.Unit(rate, seed)
			x, _, err := inst.SolveSGD(u, o)
			if err != nil {
				return 1e30
			}
			return capErr(inst.RelErr(x))
		}
	}
	units := []Unit{
		{Series: "Base: SVD", Agg: "median", Sweep: sweep, Fn: func(rate float64, seed uint64) float64 {
			u := c.Unit(rate, seed)
			return capErr(inst.RelErr(inst.SolveSVD(u)))
		}},
		{Series: "SGD,LS", Agg: "median", Sweep: sweep, Fn: runSGD(leastsq.SGDOptions{
			Iters: iters, Schedule: inst.LinearSchedule(8)})},
		{Series: "SGD+AS,LS", Agg: "median", Sweep: sweep, Fn: runSGD(leastsq.SGDOptions{
			Iters: iters, Schedule: inst.LinearSchedule(8), Aggressive: solver.DefaultAggressive()})},
		// With the same η₀ as the LS series, the 1/√t schedule keeps the
		// step above the curvature stability bound through the early
		// iterations — the instability behind the paper's "SQS results in
		// errors larger than 1.0".
		{Series: "SGD,SQS", Agg: "median", Sweep: sweep, Fn: runSGD(leastsq.SGDOptions{
			Iters: iters, Schedule: inst.SqrtSchedule(8)})},
	}
	return &Plan{
		ID: "6.2",
		Skeleton: harness.Table{
			Title:  fmt.Sprintf("Fig 6.2: accuracy of least squares, %d iterations (A %dx%d)", iters, m, n),
			YLabel: "relative error w.r.t. ideal (median; lower is better)",
			Notes:  []string{"the SGD,SQS series reproduces the paper's remark that SQS errors exceed the useful range"},
		},
		Units: units,
	}
}

// plan63 reproduces Fig 6.3: IIR error-to-signal ratio for the procedural
// baseline and SGD variants (10-tap filter, 500 samples, 1000 iterations).
func plan63(c Config) *Plan {
	taps, samples, iters := 10, 500, 1000
	if c.Quick {
		taps, samples, iters = 6, 100, 300
	}
	trials := c.trials(15, 4)
	filter, err := iir.Lowpass(taps, 0.5)
	if err != nil {
		panic(fmt.Sprintf("figures: filter design: %v", err))
	}
	rng := detrand.New(int64(c.Seed) + 63)
	signal := make([]float64, samples)
	for i := range signal {
		signal[i] = math.Sin(2*math.Pi*float64(i)/23) + 0.3*rng.NormFloat64()
	}
	ideal := filter.Ideal(signal)
	rates := []float64{1e-4, 1e-3, 5e-3, 0.01, 0.02, 0.05}
	if c.Quick {
		rates = []float64{1e-3, 0.01}
	}
	sweep := harness.Sweep{Rates: rates, Trials: trials, Seed: c.Seed + 63, Workers: c.Workers}

	runRobust := func(o iir.Options) harness.TrialFunc {
		return func(rate float64, seed uint64) float64 {
			u := c.Unit(rate, seed)
			y, _, err := filter.Robust(u, signal, o)
			if err != nil {
				return 1e30
			}
			return capErr(iir.ErrorToSignal(y, ideal))
		}
	}
	units := []Unit{
		{Series: "Base", Agg: "median", Sweep: sweep, Fn: func(rate float64, seed uint64) float64 {
			u := c.Unit(rate, seed)
			return capErr(iir.ErrorToSignal(filter.Feedforward(u, signal), ideal))
		}},
		{Series: "SGD,LS", Agg: "median", Sweep: sweep, Fn: runRobust(iir.Options{
			Iters: iters, Schedule: filter.LinearSchedule(samples, 8)})},
		{Series: "SGD+AS,LS", Agg: "median", Sweep: sweep, Fn: runRobust(iir.Options{
			Iters: iters, Schedule: filter.LinearSchedule(samples, 8), Aggressive: solver.DefaultAggressive()})},
		{Series: "SGD+AS,SQS", Agg: "median", Sweep: sweep, Fn: runRobust(iir.Options{
			Iters: iters, Schedule: filter.SqrtSchedule(samples, 4), Aggressive: solver.DefaultAggressive()})},
	}
	return &Plan{
		ID: "6.3",
		Skeleton: harness.Table{
			Title:  fmt.Sprintf("Fig 6.3: accuracy of IIR, %d iterations (%d taps, %d samples)", iters, taps, samples),
			YLabel: "error energy / signal energy (median; lower is better)",
		},
		Units: units,
	}
}

// plan64 reproduces Fig 6.4: matching success rate for the Hungarian
// baseline and the basic SGD variants (11 nodes, 30 edges, 10 000
// iterations). The basic variants plateau below ~50%.
func plan64(c Config) *Plan {
	iters := 10000
	if c.Quick {
		iters = 2000
	}
	trials := c.trials(40, 8)
	insts := matchingInstances(c.Seed+64, 8)
	sweep := harness.Sweep{Rates: sortRates(c.Quick), Trials: trials, Seed: c.Seed + 64, Workers: c.Workers}

	pick := func(seed uint64) *matching.Instance { return insts[int(seed%uint64(len(insts)))] }
	runRobust := func(opts matching.Options) harness.TrialFunc {
		return func(rate float64, seed uint64) float64 {
			inst := pick(seed)
			u := c.Unit(rate, seed)
			assign, _, err := inst.Robust(u, opts)
			if err != nil {
				return 0
			}
			return b2f(inst.Success(assign))
		}
	}
	const dim = 6
	ls := solver.Linear(0.5 / dim)
	sqs := solver.Sqrt(0.5 / dim)
	units := []Unit{
		{Series: "Base", Agg: "mean", Sweep: sweep, Fn: func(rate float64, seed uint64) float64 {
			inst := pick(seed)
			u := c.Unit(rate, seed)
			return b2f(inst.Success(inst.Baseline(u)))
		}},
		{Series: "SGD,LS", Agg: "mean", Sweep: sweep, Fn: runRobust(matching.Options{Iters: iters, Schedule: ls})},
		{Series: "SGD+AS,LS", Agg: "mean", Sweep: sweep, Fn: runRobust(matching.Options{
			Iters: iters, Schedule: ls, Aggressive: solver.DefaultAggressive()})},
		{Series: "SGD+AS,SQS", Agg: "mean", Sweep: sweep, Fn: runRobust(matching.Options{
			Iters: iters, Schedule: sqs, Aggressive: solver.DefaultAggressive()})},
	}
	return &Plan{
		ID: "6.4",
		Skeleton: harness.Table{
			Title:  fmt.Sprintf("Fig 6.4: accuracy of matching, %d iterations (5x6 nodes, 30 edges)", iters),
			YLabel: "success rate",
			Notes:  []string{"without the 6.2 enhancements the SGD variants plateau well below 100%"},
		},
		Units: units,
	}
}

// plan65 reproduces Fig 6.5: the enhancement ladder on bipartite matching.
func plan65(c Config) *Plan {
	iters := 10000
	if c.Quick {
		iters = 2000
	}
	trials := c.trials(40, 8)
	insts := matchingInstances(c.Seed+65, 8)
	rates := []float64{0, 0.02, 0.05, 0.10, 0.20, 0.50}
	if c.Quick {
		rates = []float64{0, 0.05, 0.5}
	}
	sweep := harness.Sweep{Rates: rates, Trials: trials, Seed: c.Seed + 65, Workers: c.Workers}
	pick := func(seed uint64) *matching.Instance { return insts[int(seed%uint64(len(insts)))] }

	units := []Unit{
		{Series: "Non-robust", Agg: "mean", Sweep: sweep, Fn: func(rate float64, seed uint64) float64 {
			inst := pick(seed)
			u := c.Unit(rate, seed)
			return b2f(inst.Success(inst.Baseline(u)))
		}},
	}
	for _, v := range matching.Variants(iters, 6) {
		opts := v.Opts
		units = append(units, Unit{
			Series: v.Name, Agg: "mean", Sweep: sweep,
			Fn: func(rate float64, seed uint64) float64 {
				inst := pick(seed)
				u := c.Unit(rate, seed)
				assign, _, err := inst.Robust(u, opts)
				if err != nil {
					return 0
				}
				return b2f(inst.Success(assign))
			},
		})
	}
	return &Plan{
		ID: "6.5",
		Skeleton: harness.Table{
			Title:  fmt.Sprintf("Fig 6.5: effect of gradient descent enhancements on matching (%d iterations)", iters),
			YLabel: "success rate",
			Notes: []string{
				"averaged over 8 random 5x6/30-edge instances (the paper used one hand-built instance)",
			},
		},
		Units: units,
	}
}

// plan66 reproduces Fig 6.6: least squares accuracy of the three direct
// baselines against 10-iteration CG across fault rates.
func plan66(c Config) *Plan {
	m, n := 100, 10
	if c.Quick {
		m, n = 40, 6
	}
	trials := c.trials(25, 5)
	rng := detrand.New(int64(c.Seed) + 66)
	inst, err := leastsq.Random(rng, m, n, 0.01)
	if err != nil {
		panic(fmt.Sprintf("figures: lsq instance: %v", err))
	}
	sweep := harness.Sweep{Rates: lsqRates(c.Quick), Trials: trials, Seed: c.Seed + 66, Workers: c.Workers}
	base := func(solve func(*fpu.Unit) []float64) harness.TrialFunc {
		return func(rate float64, seed uint64) float64 {
			u := c.Unit(rate, seed)
			return capErr(inst.RelErr(solve(u)))
		}
	}
	units := []Unit{
		{Series: "Base: QR", Agg: "median", Sweep: sweep, Fn: base(inst.SolveQR)},
		{Series: "Base: SVD", Agg: "median", Sweep: sweep, Fn: base(inst.SolveSVD)},
		{Series: "Base: Cholesky", Agg: "median", Sweep: sweep, Fn: base(inst.SolveCholesky)},
		{Series: "CG, N=10", Agg: "median", Sweep: sweep, Fn: func(rate float64, seed uint64) float64 {
			u := c.Unit(rate, seed)
			x, _, err := inst.SolveCG(u, 10, 5)
			if err != nil {
				return 1e30
			}
			return capErr(inst.RelErr(x))
		}},
	}
	return &Plan{
		ID: "6.6",
		Skeleton: harness.Table{
			Title:  fmt.Sprintf("Fig 6.6: accuracy of least squares, CG vs direct baselines (A %dx%d)", m, n),
			YLabel: "relative error w.r.t. ideal (median; lower is better)",
		},
		Units: units,
	}
}

// Fig67 reproduces Fig 6.7: FPU energy (power × #FLOPs) versus accuracy
// target for voltage-overscaled CG against the Cholesky baseline pinned at
// nominal voltage. The FPU is single-precision, as on the Leon3.
func Fig67(c Config) *harness.Table {
	m, n := 100, 10
	if c.Quick {
		m, n = 40, 6
	}
	rng := detrand.New(int64(c.Seed) + 67)
	inst, err := leastsq.Random(rng, m, n, 0)
	if err != nil {
		panic(fmt.Sprintf("figures: lsq instance: %v", err))
	}
	o := leastsq.DefaultEnergyOptions()
	o.Seed = c.Seed + 67
	o.Trials = c.trials(11, 3)
	if c.Quick {
		o.Rates = []float64{1e-6, 1e-3}
		o.Iters = []int{6, 12}
	}
	targets := []float64{1e-7, 1e-6, 1e-5, 1e-4, 1e-3, 1e-2, 1e-1}
	if c.Quick {
		targets = []float64{1e-4, 1e-1}
	}
	pts := inst.EnergySweep(targets, o)
	var baseSer, cgSer, voltSer harness.Series
	baseSer.Name = "Base: Cholesky"
	cgSer.Name = "CG"
	voltSer.Name = "CG voltage (V)"
	for _, p := range pts {
		baseSer.Points = append(baseSer.Points, harness.Point{Rate: p.Target, Value: p.BaselineEnergy})
		cgSer.Points = append(cgSer.Points, harness.Point{Rate: p.Target, Value: p.CGEnergy})
		voltSer.Points = append(voltSer.Points, harness.Point{Rate: p.Target, Value: p.CGVoltage})
	}
	return &harness.Table{
		Title:  fmt.Sprintf("Fig 6.7: least squares energy vs accuracy target (A %dx%d, single-precision FPU)", m, n),
		XLabel: "accuracy target (relative error)",
		YLabel: "energy (power x #FLOPs, normalized to nominal-voltage FLOP)",
		Series: []harness.Series{baseSer, cgSer, voltSer},
		Notes: []string{
			"+Inf energy marks infeasible targets (below the single-precision floor for CG)",
			"the baseline must run at nominal voltage: direct factorizations cannot tolerate FPU faults",
		},
	}
}

// planMomentum reproduces §6.2.2: momentum 0.5 against plain gradient
// descent on sorting and matching (LS schedule).
func planMomentum(c Config) *Plan {
	iters := 10000
	if c.Quick {
		iters = 2000
	}
	trials := c.trials(40, 8)
	rates := []float64{0.05, 0.10, 0.25, 0.50}
	if c.Quick {
		rates = []float64{0.05, 0.5}
	}
	sweep := harness.Sweep{Rates: rates, Trials: trials, Seed: c.Seed + 622, Workers: c.Workers}
	insts := matchingInstances(c.Seed+622, 8)
	pick := func(seed uint64) *matching.Instance { return insts[int(seed%uint64(len(insts)))] }

	sortRun := func(momentum float64) harness.TrialFunc {
		return func(rate float64, seed uint64) float64 {
			data := SortData(seed, 5)
			u := c.Unit(rate, seed)
			out, _, err := robsort.Robust(u, data, robsort.Options{
				Iters: iters, Schedule: solver.Linear(0.1), Momentum: momentum})
			if err != nil {
				return 0
			}
			return b2f(robsort.Success(out, data))
		}
	}
	matchRun := func(momentum float64) harness.TrialFunc {
		return func(rate float64, seed uint64) float64 {
			inst := pick(seed)
			u := c.Unit(rate, seed)
			assign, _, err := inst.Robust(u, matching.Options{
				Iters: iters, Schedule: solver.Linear(0.5 / 6), Momentum: momentum})
			if err != nil {
				return 0
			}
			return b2f(inst.Success(assign))
		}
	}
	return &Plan{
		ID: "momentum",
		Skeleton: harness.Table{
			Title:  fmt.Sprintf("§6.2.2: momentum ablation (LS schedule, %d iterations)", iters),
			YLabel: "success rate",
		},
		Units: []Unit{
			{Series: "sort", Agg: "mean", Sweep: sweep, Fn: sortRun(0)},
			{Series: "sort+mom0.5", Agg: "mean", Sweep: sweep, Fn: sortRun(0.5)},
			{Series: "match", Agg: "mean", Sweep: sweep, Fn: matchRun(0)},
			{Series: "match+mom0.5", Agg: "mean", Sweep: sweep, Fn: matchRun(0.5)},
		},
	}
}

// SolverFLOPs reproduces the §6.3 cost comparison: FLOPs per solve for the
// three direct baselines and CG budgets on the Fig 6.6 instance.
func SolverFLOPs(c Config) *harness.Table {
	m, n := 100, 10
	if c.Quick {
		m, n = 40, 6
	}
	rng := detrand.New(int64(c.Seed) + 63)
	inst, err := leastsq.Random(rng, m, n, 0.01)
	if err != nil {
		panic(fmt.Sprintf("figures: lsq instance: %v", err))
	}
	count := func(run func(u *fpu.Unit)) float64 {
		u := fpu.New()
		run(u)
		return float64(u.FLOPs())
	}
	mk := func(name string, v float64) harness.Series {
		return harness.Series{Name: name, Points: []harness.Point{{Rate: 0, Value: v}}}
	}
	return &harness.Table{
		Title:  fmt.Sprintf("§6.3: solver cost in FLOPs (least squares A %dx%d)", m, n),
		XLabel: "-",
		YLabel: "FLOPs per solve",
		Series: []harness.Series{
			mk("Cholesky", count(func(u *fpu.Unit) { inst.SolveCholesky(u) })),
			mk("QR", count(func(u *fpu.Unit) { inst.SolveQR(u) })),
			mk("SVD", count(func(u *fpu.Unit) { inst.SolveSVD(u) })),
			mk("CG,N=5", count(func(u *fpu.Unit) { _, _, _ = inst.SolveCG(u, 5, 0) })),
			mk("CG,N=10", count(func(u *fpu.Unit) { _, _, _ = inst.SolveCG(u, 10, 0) })),
		},
		Notes: []string{
			"the paper reports wall-clock on the Leon3 (CG ~30% faster than QR/SVD); in raw FLOPs CG(10) lands between QR and SVD — see EXPERIMENTS.md",
		},
	}
}

// matchingInstances builds the shared instance pool for the matching
// figures (reliable setup).
func matchingInstances(seed uint64, k int) []*matching.Instance {
	insts := make([]*matching.Instance, k)
	for i := range insts {
		rng := detrand.New(int64(seed) + int64(i)*97)
		insts[i] = matching.RandomInstance(rng, 5, 6, 30)
	}
	return insts
}

// SortData derives one sorting trial's input from its seed: the values
// 2.5, 5, …, 2.5n in the order of a seeded permutation.
func SortData(seed uint64, n int) []float64 {
	data := make([]float64, n)
	detrand.Scoped(int64(seed), func(rng *rand.Rand) {
		for i, p := range rng.Perm(n) {
			data[i] = float64(p+1) * 2.5
		}
	})
	return data
}

// capErr clips error metrics so means/medians stay plottable (shared
// convention: harness.CapErr).
func capErr(v float64) float64 { return harness.CapErr(v) }

func b2f(b bool) float64 {
	if b {
		return 1
	}
	return 0
}

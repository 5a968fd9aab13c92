package campaign

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sort"

	"robustify/internal/apps/apsp"
	"robustify/internal/apps/eigen"
	"robustify/internal/apps/leastsq"
	"robustify/internal/apps/robsort"
	"robustify/internal/apps/svm"
	"robustify/internal/core"
	"robustify/internal/detrand"
	"robustify/internal/figures"
	"robustify/internal/fpu"
	"robustify/internal/harness"
	"robustify/internal/linalg"
	"robustify/internal/robust"
	"robustify/internal/solver"
)

// Knob is one declared tunable parameter of a workload: the paper's
// "knobs" — penalty weight, step-schedule constants, iteration budgets —
// that decide how much fault tolerance the robustified form actually
// delivers. A knob carries its default, validity bounds, and the search
// grid the tune subsystem walks.
type Knob struct {
	Name    string  `json:"name"`
	Desc    string  `json:"desc"`
	Default float64 `json:"default"`
	// Min and Max bound accepted values (inclusive); both zero means
	// unbounded.
	Min float64 `json:"min,omitempty"`
	Max float64 `json:"max,omitempty"`
	// Grid is the declared candidate set for parameter search, in
	// ascending order; it always contains Default.
	Grid []float64 `json:"grid,omitempty"`
}

// UnitFactory builds one trial's simulated FPU for a fault rate and trial
// seed. The campaign compiler derives it from the spec's fault model (see
// faultmodel.Spec.Unit), so workloads stay model-agnostic: they ask the
// factory for a unit and never touch injector construction themselves.
type UnitFactory func(rate float64, seed uint64) *fpu.Unit

// Workload is a named trial function available to custom sweeps.
type Workload struct {
	Name string
	Desc string
	// DefaultIters scales the workload when the spec leaves Iters at 0.
	DefaultIters int
	// Maximize reports the metric direction: true for success rates and
	// accuracies, false for error metrics. Parameter search uses it to
	// rank candidate configurations.
	Maximize bool
	// Knobs declares the workload's tunable parameters. Sweeps may
	// override them via CustomSweep.Params; the tune subsystem searches
	// their grids.
	Knobs []Knob
	// Build returns the trial function for the given iteration budget,
	// fully resolved knob values (every declared knob present), and the
	// spec's unit factory. Every per-trial random choice derives from the
	// trial seed, so the workload is replayable — on resume and on remote
	// workers alike.
	Build func(iters int, params map[string]float64, unit UnitFactory) harness.TrialFunc
}

// Workloads lists the registered custom-sweep workloads.
func Workloads() []Workload {
	return []Workload{
		{
			Name: "sort/base", Desc: "quicksort success rate (5-element arrays)",
			DefaultIters: 0,
			Maximize:     true,
			Build: func(_ int, _ map[string]float64, unit UnitFactory) harness.TrialFunc {
				return func(rate float64, seed uint64) float64 {
					data := figures.SortData(seed, 5)
					u := unit(rate, seed)
					return b2f(robsort.Success(robsort.Baseline(u, data), data))
				}
			},
		},
		{
			Name: "sort/robust", Desc: "robust SGD sort success rate (SGD+AS,SQS with tail averaging)",
			DefaultIters: 10000,
			Maximize:     true,
			Build: func(iters int, _ map[string]float64, unit UnitFactory) harness.TrialFunc {
				return func(rate float64, seed uint64) float64 {
					data := figures.SortData(seed, 5)
					u := unit(rate, seed)
					out, _, err := robsort.Robust(u, data, robsort.Options{
						Iters:      iters,
						Schedule:   solver.Sqrt(0.5 / 5),
						Aggressive: solver.DefaultAggressive(),
						Tail:       iters / 5,
					})
					if err != nil {
						return 0
					}
					return b2f(robsort.Success(out, data))
				}
			},
		},
		{
			Name: "eigen/power", Desc: "power-iteration dominant-eigenvalue relative error (n=6)",
			DefaultIters: 300,
			Build: func(iters int, _ map[string]float64, unit UnitFactory) harness.TrialFunc {
				return func(rate float64, seed uint64) float64 {
					m, want := eigenInstance(seed)
					u := unit(rate, seed)
					lambda, _ := eigen.PowerIteration(u, m, iters)
					return eigenScore(lambda, want)
				}
			},
		},
		{
			Name: "eigen/robust", Desc: "robust Rayleigh-ascent dominant-eigenvalue relative error (n=6)",
			DefaultIters: 2000,
			Build: func(iters int, _ map[string]float64, unit UnitFactory) harness.TrialFunc {
				return func(rate float64, seed uint64) float64 {
					m, want := eigenInstance(seed)
					u := unit(rate, seed)
					lambda, _, err := eigen.TopEigen(u, m, eigen.Options{Iters: iters})
					if err != nil {
						return 1e6
					}
					return eigenScore(lambda, want)
				}
			},
		},
		{
			Name: "lp/apsp", Desc: "penalty-LP all-pairs shortest paths mean relative error (n=5)",
			DefaultIters: 2000,
			Knobs: append([]Knob{
				{
					Name: "mu", Desc: "exact-penalty weight (core/lp PenaltyLP)",
					Default: 8, Min: 1e-6, Max: 1e6,
					Grid: []float64{1, 2, 4, 8, 16, 32},
				},
			}, lossKnobs("legacy l1 exact penalty")...),
			Build: func(iters int, params map[string]float64, unit UnitFactory) harness.TrialFunc {
				mu := params["mu"]
				lossIdx, lossShape := lossSelector(params)
				return func(rate float64, seed uint64) float64 {
					var inst *apsp.Instance
					detrand.Scoped(int64(seed), func(rng *rand.Rand) {
						inst = apsp.RandomInstance(rng, 5, 5, 5)
					})
					u := unit(rate, seed)
					loss, err := lossForTrial(lossIdx, lossShape)
					if err != nil {
						return 1e6
					}
					d, _, err := inst.Robust(u, apsp.Options{
						Iters: iters, Kind: core.PenaltyAbs, Mu: mu, Tail: iters / 5,
						Loss: loss,
					})
					if err != nil {
						return 1e6
					}
					return capErr(inst.MeanRelErr(d))
				}
			},
		},
		{
			Name: "leastsq/sgd", Desc: "robust SGD least squares relative error (A 30x6)",
			DefaultIters: 400,
			Knobs: append([]Knob{
				{
					Name: "boost", Desc: "LS schedule constant: eta0 = boost/lipschitz (1/t decay)",
					Default: 8, Min: 1e-3, Max: 1e3,
					Grid: []float64{1, 2, 4, 8, 16, 32},
				},
			}, lossKnobs("quadratic objective, bit-identical to the pre-loss solver")...),
			Build: func(iters int, params map[string]float64, unit UnitFactory) harness.TrialFunc {
				boost := params["boost"]
				lossIdx, lossShape := lossSelector(params)
				return func(rate float64, seed uint64) float64 {
					inst, err := figures.LsqInstance(seed)
					if err != nil {
						return 1e6
					}
					u := unit(rate, seed)
					loss, err := lossForTrial(lossIdx, lossShape)
					if err != nil {
						return 1e6
					}
					x, _, err := inst.SolveSGD(u, leastsq.SGDOptions{
						Iters:    iters,
						Schedule: inst.LinearSchedule(boost),
						Loss:     loss,
					})
					if err != nil {
						return 1e6
					}
					return capErr(inst.RelErr(x))
				}
			},
		},
		{
			Name: "leastsq/cg", Desc: "conjugate gradient least squares relative error (A 30x6); the budget knob sets CG iterations (Iters is unused)",
			DefaultIters: 0,
			Knobs: append([]Knob{
				{
					Name: "budget", Desc: "CG iteration budget (solver/cg)",
					Default: 10, Min: 1, Max: 1000,
					Grid: []float64{2, 4, 6, 10, 15, 20},
				},
				{
					Name: "restart", Desc: "reset the CG direction every N iterations (0 = off)",
					Default: 0, Min: 0, Max: 1000,
					Grid: []float64{0, 2, 5},
				},
				{
					Name: "outer", Desc: "IRLS reweighting rounds (used when loss > 0)",
					Default: 4, Min: 1, Max: 100,
					Grid: []float64{1, 2, 4, 8},
				},
			}, lossKnobs("plain CG on the normal equations, bit-identical to the pre-loss solver")...),
			Build: func(_ int, params map[string]float64, unit UnitFactory) harness.TrialFunc {
				budget := intParam(params, "budget")
				restart := intParam(params, "restart")
				outer := intParam(params, "outer")
				lossIdx, lossShape := lossSelector(params)
				return func(rate float64, seed uint64) float64 {
					inst, err := figures.LsqInstance(seed)
					if err != nil {
						return 1e6
					}
					u := unit(rate, seed)
					var x []float64
					if lossIdx == 0 {
						x, _, err = inst.SolveCG(u, budget, restart)
					} else {
						var loss robust.Robustifier
						loss, err = lossForTrial(lossIdx, lossShape)
						if err != nil {
							return 1e6
						}
						x, _, err = inst.SolveIRLS(u, loss, outer, budget, restart)
					}
					if err != nil {
						return 1e6
					}
					return capErr(inst.RelErr(x))
				}
			},
		},
		{
			Name: "svm/robust", Desc: "robust Pegasos SVM held-out accuracy (60 train / 100 test, d=6)",
			DefaultIters: 500,
			Maximize:     true,
			Knobs: append([]Knob{
				{
					Name: "lambda", Desc: "hinge-loss regularization weight",
					Default: 0.01, Min: 1e-6, Max: 10,
					Grid: []float64{0.001, 0.003, 0.01, 0.03, 0.1},
				},
				{
					Name: "step", Desc: "step-schedule scale: eta_t = step/(lambda*t)",
					Default: 1, Min: 1e-3, Max: 1e3,
					Grid: []float64{0.25, 0.5, 1, 2, 4},
				},
			}, lossKnobs("plain hinge, bit-identical to the pre-loss trainer")...),
			Build: func(iters int, params map[string]float64, unit UnitFactory) harness.TrialFunc {
				lambda, step := params["lambda"], params["step"]
				lossIdx, lossShape := lossSelector(params)
				return func(rate float64, seed uint64) float64 {
					var data *svm.Dataset
					detrand.Scoped(int64(seed), func(rng *rand.Rand) {
						data = svm.TwoGaussians(rng, 60, 100, 6, 2.0)
					})
					u := unit(rate, seed)
					loss, err := lossForTrial(lossIdx, lossShape)
					if err != nil {
						return 0
					}
					w, _, err := svm.Train(u, data, svm.Options{
						Iters:    iters,
						Lambda:   lambda,
						Schedule: solver.Linear(step / lambda),
						Loss:     loss,
					})
					if err != nil {
						return 0
					}
					return data.Accuracy(w)
				}
			},
		},
	}
}

// WorkloadByName resolves a registered workload; the tune layer shares
// this lookup.
func WorkloadByName(name string) (Workload, error) {
	for _, w := range Workloads() {
		if w.Name == name {
			return w, nil
		}
	}
	return Workload{}, fmt.Errorf("campaign: unknown workload %q", name)
}

// DefaultParams returns every declared knob at its default value.
func (w Workload) DefaultParams() map[string]float64 {
	if len(w.Knobs) == 0 {
		return nil
	}
	p := make(map[string]float64, len(w.Knobs))
	for _, k := range w.Knobs {
		p[k.Name] = k.Default
	}
	return p
}

// resolveParams validates overrides against the declared knobs (see
// checkKnobs) and returns the full parameter map: defaults overlaid with
// overrides. A mistyped knob name must fail at submit time, not silently
// run the defaults.
func (w Workload) resolveParams(overrides map[string]float64) (map[string]float64, error) {
	if err := checkKnobs(w.Knobs, overrides, "workload "+w.Name+" has no knob", "workload "+w.Name+" knob"); err != nil {
		return nil, err
	}
	full := w.DefaultParams()
	for name, v := range overrides {
		full[name] = v
	}
	return full, nil
}

// checkKnobs rejects an override that names no declared knob (unknown
// starts that error) or has a non-finite or out-of-bounds value (kind
// names the knob in that one), reporting the smallest offending key.
func checkKnobs(knobs []Knob, overrides map[string]float64, unknown, kind string) error {
	keys := make([]string, 0, len(overrides))
	for k := range overrides {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, name := range keys {
		v, i := overrides[name], slices.IndexFunc(knobs, func(k Knob) bool { return k.Name == name })
		switch {
		case i < 0:
			names := make([]string, len(knobs))
			for j, k := range knobs {
				names[j] = k.Name
			}
			return fmt.Errorf("campaign: %s %q (declared: %v)", unknown, name, names)
		case math.IsNaN(v) || math.IsInf(v, 0):
			return fmt.Errorf("campaign: %s %q: non-finite value %v", kind, name, v)
		case (knobs[i].Min != 0 || knobs[i].Max != 0) && (v < knobs[i].Min || v > knobs[i].Max):
			return fmt.Errorf("campaign: %s %q: %v outside [%v, %v]", kind, name, v, knobs[i].Min, knobs[i].Max)
		}
	}
	return nil
}

// intParam reads a knob that semantically is a count.
func intParam(params map[string]float64, name string) int {
	return int(math.Round(params[name]))
}

// lossKnobs declares the robust-loss knob pair shared by the loss-aware
// workloads. Knob value 0 selects the workload's legacy objective
// (legacyDesc names it); 1–4 select the internal/robust losses in
// registry order.
func lossKnobs(legacyDesc string) []Knob {
	return []Knob{
		{
			Name: "loss", Desc: "robust loss: 0=" + legacyDesc + ", 1=huber, 2=pseudo-huber, 3=geman-mcclure, 4=smooth-l1",
			Default: 0, Min: 0, Max: 4,
			Grid: []float64{0, 1, 2, 3, 4},
		},
		{
			Name: "shape", Desc: "loss shape (huber/pseudo-huber delta, geman-mcclure sigma, smooth-l1 epsilon); 0 = the loss's default",
			Default: 0, Min: 0, Max: 1e6,
			Grid: []float64{0, 0.1, 0.5, 1, 2.5},
		},
	}
}

// lossSelector extracts the loss knob pair from resolved parameters.
func lossSelector(params map[string]float64) (idx int, shape float64) {
	return intParam(params, "loss"), params["shape"]
}

// lossForTrial builds the selected robust loss fresh for one trial (a
// Robustifier carries mutable shape state, so trials running on parallel
// workers must not share one). Index 0 is the legacy path: a nil loss.
func lossForTrial(idx int, shape float64) (robust.Robustifier, error) {
	if idx == 0 {
		return nil, nil
	}
	return robust.ByIndex(idx, shape)
}

// capErr clamps error metrics so one diverged trial cannot swamp a mean
// (shared convention: harness.CapErr, same clamp the figure builders
// apply).
func capErr(v float64) float64 { return harness.CapErr(v) }

// customPlan compiles a custom sweep to a single-unit figure plan so the
// engine treats figures and custom sweeps identically. The spec's fault
// model — overlaid with any fm_* parameter overrides riding in Params —
// becomes the unit factory every trial builds its FPU through.
func customPlan(spec Spec) (*figures.Plan, error) {
	w, err := WorkloadByName(spec.Custom.Workload)
	if err != nil {
		return nil, err
	}
	workloadParams, modelParams := splitModelParams(spec.Custom.Params)
	params, err := w.resolveParams(workloadParams)
	if err != nil {
		return nil, err
	}
	model, err := applyModelParams(spec.FaultModel, modelParams)
	if err != nil {
		return nil, err
	}
	iters := spec.Custom.Iters
	if iters <= 0 {
		iters = w.DefaultIters
	}
	trials := spec.Trials
	if trials <= 0 {
		trials = 10
	}
	agg := spec.Custom.Agg
	if agg == "" {
		agg = "mean"
	}
	return &figures.Plan{
		ID: "custom:" + w.Name,
		Skeleton: harness.Table{
			Title:  fmt.Sprintf("custom sweep: %s (%s)", w.Name, w.Desc),
			YLabel: w.Desc,
		},
		Units: []figures.Unit{{
			Series: w.Name,
			Agg:    agg,
			Sweep: harness.Sweep{
				Rates:   append([]float64(nil), spec.Custom.Rates...),
				Trials:  trials,
				Seed:    spec.Seed,
				Workers: spec.Workers,
			},
			Fn: w.Build(iters, params, model.Unit),
		}},
	}, nil
}

// eigenInstance derives a per-trial symmetric matrix whose dominant
// eigenvalue is n by construction (mirrors the eigen figure).
func eigenInstance(seed uint64) (m *linalg.Dense, want float64) {
	const n = 6
	detrand.Scoped(int64(seed), func(rng *rand.Rand) {
		m = eigen.RandomSymmetric(rng, n)
	})
	return m, n
}

func eigenScore(lambda, want float64) float64 {
	if lambda != lambda || math.IsInf(lambda, 0) {
		return 1e6
	}
	v := math.Abs(lambda-want) / want
	if v != v || v > 1e6 {
		return 1e6
	}
	return v
}

func b2f(b bool) float64 {
	if b {
		return 1
	}
	return 0
}

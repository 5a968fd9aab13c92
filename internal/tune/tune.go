// Package tune searches a workload's parameter space — the paper's
// actual payoff. The methodology recasts an application as a numerical
// optimization problem whose error tolerance depends on tunable knobs:
// penalty weight, step-schedule constants, iteration budgets. Sweeping
// fault rates at fixed knobs (the campaign layer) measures one
// configuration; tune finds the configuration.
//
// The search is deterministic coordinate descent with successive
// halving: knobs are optimized one at a time in declared order, and each
// coordinate step races the knob's declared grid with doubling trial
// budgets, halving the candidate set per rung. Every candidate
// evaluation is one durable campaign submitted through the campaign
// Manager, so each is automatically checkpointed per trial, resumable
// after a crash, and shardable across a robustworker fleet — the tune
// layer adds zero new execution code.
//
// Progress persists to a tune.json trace beside the evaluations: a
// killed daemon resumes the search from the last completed evaluation
// and finishes with a trace byte-identical to an uninterrupted run
// (pinned by tests). Determinism holds because the search order is a
// pure function of the spec, evaluation seeds derive from the tune seed
// exactly like harness.Sweep.TrialSeed derives trial seeds, and
// campaign tables are themselves byte-deterministic.
package tune

import (
	"bytes"
	"encoding/json"
	"fmt"

	"robustify/internal/campaign"
	"robustify/internal/fpu/faultmodel"
	"robustify/internal/harness"
	"robustify/internal/job"
)

// Tune run lifecycle states: the shared job states (see package job).
// Runs have no concurrency bound, so they never sit queued and there is
// no queued state here; interrupted marks a run whose owning process
// died (or shut down) mid-search, and is resumable.
const (
	StateRunning     = job.StateRunning
	StateDone        = job.StateDone
	StateFailed      = job.StateFailed
	StateCancelled   = job.StateCancelled
	StateInterrupted = job.StateInterrupted
)

// Spec declares a parameter search over one workload's knob space under
// a fixed fault model. Specs round-trip through JSON and persist in the
// tune.json trace, so a trace is self-describing.
type Spec struct {
	// Name is a human label; it defaults to "tune-" + workload.
	Name string `json:"name,omitempty"`
	// Workload names a registered custom-sweep workload with declared
	// knobs (see campaign.Workloads).
	Workload string `json:"workload"`
	// Rates is the fixed fault-rate grid every candidate is evaluated
	// under; comparing configurations requires a fixed fault model.
	Rates []float64 `json:"rates"`
	// Trials is the rung-0 trial budget per cell; each successive-halving
	// rung doubles it (0 = 4).
	Trials int `json:"trials,omitempty"`
	// Iters scales iterative workloads (0 = workload default).
	Iters int `json:"iters,omitempty"`
	// Agg is the per-cell aggregator of each evaluation campaign: "mean"
	// (default) or "median".
	Agg string `json:"agg,omitempty"`
	// Seed derives every evaluation's campaign seed; same spec + seed,
	// same search, same trace.
	Seed uint64 `json:"seed"`
	// Knobs restricts the search to a subset of the workload's declared
	// knobs (default: all, in declared order).
	Knobs []string `json:"knobs,omitempty"`
	// Rounds bounds the coordinate-descent passes over the knob list
	// (0 = 2). A round with no knob change ends the search early.
	Rounds int `json:"rounds,omitempty"`
	// Workers bounds per-evaluation trial parallelism (0 = GOMAXPROCS).
	// Scheduling only — it never changes results.
	Workers int `json:"workers,omitempty"`
	// FaultModel fixes the injection model every evaluation campaign runs
	// under (nil = default; see fpu/faultmodel). Selecting a parameterized
	// family also puts its fm_* parameters (see campaign.ModelKnobs) on
	// the search grid next to the workload's algorithm knobs, so burst
	// length or exponent-weight ratio can be tuned like any other knob.
	FaultModel *faultmodel.Spec `json:"fault_model,omitempty"`
}

// Title returns the display name of the run.
func (s *Spec) Title() string {
	if s.Name != "" {
		return s.Name
	}
	return "tune-" + s.Workload
}

// rung0 returns the rung-0 trial budget.
func (s *Spec) rung0() int {
	if s.Trials > 0 {
		return s.Trials
	}
	return 4
}

// rounds returns the coordinate-descent pass bound.
func (s *Spec) rounds() int {
	if s.Rounds > 0 {
		return s.Rounds
	}
	return 2
}

// Validate checks the spec against the workload registry.
func (s *Spec) Validate() error {
	w, err := WorkloadFor(s)
	if err != nil {
		return err
	}
	if err := s.FaultModel.Validate(); err != nil {
		return err
	}
	if len(s.effectiveKnobs(w)) == 0 {
		return fmt.Errorf("tune: workload %q declares no knobs; nothing to search", s.Workload)
	}
	if len(s.Rates) == 0 {
		return fmt.Errorf("tune: spec needs at least one fault rate")
	}
	for _, r := range s.Rates {
		if r < 0 || r != r {
			return fmt.Errorf("tune: invalid fault rate %v", r)
		}
	}
	if s.Trials < 0 || s.Iters < 0 || s.Rounds < 0 || s.Workers < 0 {
		return fmt.Errorf("tune: negative trials/iters/rounds/workers")
	}
	if _, err := harness.AggregatorByName(s.Agg); err != nil {
		return err
	}
	for _, name := range s.Knobs {
		if _, ok := s.knobByName(w, name); !ok {
			return fmt.Errorf("tune: workload %s has no knob %q", s.Workload, name)
		}
	}
	// Every searched knob needs a non-empty grid: successive halving has
	// no candidates to race otherwise. Rejecting here keeps a
	// mis-declared registry entry from wedging the drive goroutine.
	for _, name := range s.searchKnobs(w) {
		if k, ok := s.knobByName(w, name); !ok || len(k.Grid) == 0 {
			return fmt.Errorf("tune: workload %s knob %q declares no search grid", s.Workload, name)
		}
	}
	return nil
}

// effectiveKnobs is the knob space the search ranges over: the
// workload's declared knobs followed by the fault-model family's fm_*
// parameter knobs (none for the default and memory families). Model
// knobs ride in evaluation Params under their fm_ prefix, which the
// campaign compiler splits back out (see campaign.ModelKnobs).
func (s *Spec) effectiveKnobs(w campaign.Workload) []campaign.Knob {
	knobs := append([]campaign.Knob(nil), w.Knobs...)
	return append(knobs, campaign.ModelKnobs(s.FaultModel.ModelName())...)
}

// knobByName resolves a knob from the effective (workload + fault-model)
// knob space.
func (s *Spec) knobByName(w campaign.Workload, name string) (campaign.Knob, bool) {
	for _, k := range s.effectiveKnobs(w) {
		if k.Name == name {
			return k, true
		}
	}
	return campaign.Knob{}, false
}

// defaultParams is the search's starting configuration: every effective
// knob at its declared default.
func (s *Spec) defaultParams(w campaign.Workload) map[string]float64 {
	knobs := s.effectiveKnobs(w)
	p := make(map[string]float64, len(knobs))
	for _, k := range knobs {
		p[k.Name] = k.Default
	}
	return p
}

// WorkloadFor resolves the spec's workload from the campaign registry.
func WorkloadFor(s *Spec) (campaign.Workload, error) {
	w, err := campaign.WorkloadByName(s.Workload)
	if err != nil {
		return campaign.Workload{}, fmt.Errorf("tune: %w", err)
	}
	return w, nil
}

// searchKnobs returns the knob names the search walks, in declared
// order — workload knobs then fault-model knobs — or the spec's subset
// when given.
func (s *Spec) searchKnobs(w campaign.Workload) []string {
	if len(s.Knobs) == 0 {
		knobs := s.effectiveKnobs(w)
		names := make([]string, len(knobs))
		for i, k := range knobs {
			names[i] = k.Name
		}
		return names
	}
	return s.Knobs
}

// ParseSpec decodes and validates a JSON spec, rejecting unknown fields
// so typos surface at submit time.
func ParseSpec(data []byte) (Spec, error) {
	var s Spec
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&s); err != nil {
		return Spec{}, fmt.Errorf("tune: bad spec: %w", err)
	}
	if err := s.Validate(); err != nil {
		return Spec{}, err
	}
	return s, nil
}

// specKey is the identity of a spec for resume matching: Name and
// Workers don't shape the search.
func specKey(s Spec) string {
	s.Name = ""
	s.Workers = 0
	b, _ := json.Marshal(s)
	return string(b)
}

// ResumeCompatible reports whether a stored spec and a requested spec
// drive the same search.
func ResumeCompatible(a, b Spec) bool { return specKey(a) == specKey(b) }

// EvalSeed derives evaluation n's campaign seed from the tune seed,
// using exactly the mixing Sweep.TrialSeed applies to trial seeds.
func EvalSeed(tuneSeed uint64, n int) uint64 {
	return harness.Sweep{Seed: tuneSeed}.TrialSeed(0, n)
}

// Eval is one candidate evaluation: a full knob configuration run as
// one durable campaign at a successive-halving trial budget. Objective
// is nil until the campaign completes. Evals append to the trace in
// submission order; N is that ordinal and fixes the evaluation's seed.
type Eval struct {
	N      int                `json:"n"`
	Params map[string]float64 `json:"params"`
	Trials int                `json:"trials"`
	Seed   uint64             `json:"seed"`
	// Campaign is the backing campaign's id in the campaign manager.
	Campaign  string   `json:"campaign"`
	Objective *float64 `json:"objective,omitempty"`
}

// BestStep is one improvement in the best-so-far trajectory.
type BestStep struct {
	Eval      int                `json:"eval"`
	Params    map[string]float64 `json:"params"`
	Objective float64            `json:"objective"`
}

// Trace is the durable record of one tune run — the entire search
// state. It is rewritten atomically after every submission and every
// completed evaluation, so a crash at any point loses no completed
// work, and a finished trace for a given spec+seed is byte-identical
// no matter how often the run was interrupted. It deliberately carries
// no timestamps: wall-clock would break that guarantee.
type Trace struct {
	ID    string `json:"id"`
	State string `json:"state"`
	Error string `json:"error,omitempty"`
	Spec  Spec   `json:"spec"`
	// Evals is the per-candidate table, in submission order.
	Evals []*Eval `json:"evals"`
	// Best is the best-so-far trajectory: one step per improvement, in
	// evaluation-completion order (which is deterministic). Evaluations
	// at different successive-halving rungs carry different trial
	// budgets, so early low-budget steps are noisier than later ones;
	// the authoritative winner is Final, chosen at the highest budget.
	Best []BestStep `json:"best,omitempty"`
	// Final is the winning configuration once the search completes.
	Final          map[string]float64 `json:"final,omitempty"`
	FinalObjective *float64           `json:"final_objective,omitempty"`
}

// cloneParams copies a knob configuration.
func cloneParams(p map[string]float64) map[string]float64 {
	c := make(map[string]float64, len(p))
	for k, v := range p {
		c[k] = v
	}
	return c
}

// paramsKey is the cache identity of a configuration at a trial budget.
// JSON marshals map keys sorted, so the key is canonical.
func paramsKey(p map[string]float64, trials int) string {
	b, _ := json.Marshal(p)
	return fmt.Sprintf("%d|%s", trials, b)
}

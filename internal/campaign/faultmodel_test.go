package campaign

import (
	"bytes"
	"context"
	"math"
	"runtime"
	"sort"
	"strings"
	"testing"

	"robustify/internal/fpu/faultmodel"
	"robustify/internal/harness"
)

// renderResultTable renders a result table to text and CSV strings.
func renderResultTable(t *testing.T, table *harness.Table) (string, string) {
	t.Helper()
	var text, csv bytes.Buffer
	if err := table.Render(&text); err != nil {
		t.Fatalf("render: %v", err)
	}
	if err := table.CSV(&csv); err != nil {
		t.Fatalf("csv: %v", err)
	}
	return text.String(), csv.String()
}

// TestDefaultModelWorkloadPins pins representative workloads' trial values
// under the default model to the exact bits they produced before the
// FaultModel refactor (and before the solver memory hooks). Any drift here
// means the pluggable-model plumbing or the CorruptSlice no-op contract
// perturbed the pinned fault stream.
func TestDefaultModelWorkloadPins(t *testing.T) {
	pins := map[string]uint64{
		"leastsq/sgd": 0x3f983ad7979af108,
		"leastsq/cg":  0x3fc9baa7216a9522,
		"lp/apsp":     0x3f79c76330fede9e,
		"svm/robust":  0x3fee147ae147ae14,
	}
	for wl, want := range pins {
		spec := Spec{
			Custom: &CustomSweep{Workload: wl, Rates: []float64{0.05}},
			Trials: 1, Seed: 777,
		}
		camp, err := Compile(spec)
		if err != nil {
			t.Fatalf("%s: %v", wl, err)
		}
		u := camp.Plan.Units[0]
		if got := math.Float64bits(u.Fn(0.05, 777)); got != want {
			t.Errorf("%s: trial value 0x%016x, want pinned 0x%016x", wl, got, want)
		}
	}
}

// TestFaultModelCampaignsDeterministic: every model family run through the
// campaign engine twice from fresh stores produces byte-identical tables.
func TestFaultModelCampaignsDeterministic(t *testing.T) {
	models := map[string]*faultmodel.Spec{
		"default":    nil,
		"stratified": {Name: faultmodel.Stratified, SignWeight: ptr(4)},
		"burst":      {Name: faultmodel.Burst, BurstLen: 32},
		"memory":     {Name: faultmodel.Memory},
	}
	for name, fm := range models {
		spec := Spec{
			Custom:     &CustomSweep{Workload: "leastsq/sgd", Rates: []float64{0.02, 0.1}, Iters: 300},
			FaultModel: fm,
			Trials:     2, Seed: 41,
		}
		text1, csv1 := runAll(t, spec)
		text2, csv2 := runAll(t, spec)
		if text1 != text2 || csv1 != csv2 {
			t.Errorf("%s: campaign not byte-deterministic across runs", name)
		}
		if text1 == "" || csv1 == "" {
			t.Errorf("%s: empty output", name)
		}
	}
}

// TestFaultModelsShapeResults: each non-default family must actually change
// trial outcomes relative to the default model at the same rate and seed —
// in particular the memory model, which only acts through the solvers'
// CorruptSlice hooks.
func TestFaultModelsShapeResults(t *testing.T) {
	run := func(fm *faultmodel.Spec) string {
		_, csv := runAll(t, Spec{
			Custom:     &CustomSweep{Workload: "leastsq/sgd", Rates: []float64{0.05}, Iters: 300},
			FaultModel: fm,
			Trials:     3, Seed: 19,
		})
		return csv
	}
	def := run(nil)
	for _, fm := range []*faultmodel.Spec{
		{Name: faultmodel.Stratified, SignWeight: ptr(8), ExpWeight: ptr(0)},
		{Name: faultmodel.Burst, BurstLen: 16, BurstProb: 1},
		{Name: faultmodel.Memory},
	} {
		if got := run(fm); got == def {
			t.Errorf("%s: results identical to the default model; the model is not live", fm.Name)
		}
	}
}

// TestSpecFaultModelRoundTrip: the fault_model field survives ParseSpec,
// unknown model names and cross-family parameters are rejected at Validate,
// and unknown fields inside fault_model are rejected at parse time.
func TestSpecFaultModelRoundTrip(t *testing.T) {
	spec, err := ParseSpec([]byte(`{
		"custom": {"workload": "leastsq/sgd", "rates": [0.05]},
		"fault_model": {"name": "burst", "burst_len": 128, "burst_prob": 0.25},
		"trials": 2, "seed": 7}`))
	if err != nil {
		t.Fatalf("valid fault-model spec rejected: %v", err)
	}
	if spec.FaultModel == nil || spec.FaultModel.Name != "burst" ||
		spec.FaultModel.BurstLen != 128 || spec.FaultModel.BurstProb != 0.25 {
		t.Errorf("parsed fault model = %+v", spec.FaultModel)
	}
	if err := spec.Validate(); err != nil {
		t.Errorf("validate: %v", err)
	}

	if _, err := ParseSpec([]byte(`{"figure":"6.1","fault_model":{"name":"burst","burst_leng":9}}`)); err == nil {
		t.Error("typo field inside fault_model accepted")
	}
	bad := Spec{Figure: "6.1", FaultModel: &faultmodel.Spec{Name: "gamma-ray"}}
	if err := bad.Validate(); err == nil || !strings.Contains(err.Error(), "gamma-ray") {
		t.Errorf("unknown model error = %v, want it to name the model", err)
	}
	cross := Spec{Figure: "6.1", FaultModel: &faultmodel.Spec{Name: "memory", BurstLen: 8}}
	if err := cross.Validate(); err == nil {
		t.Error("cross-family parameter accepted")
	}
}

// TestFaultModelResumeIdentity: the fault model is part of a campaign's
// resume identity — differing models must not be resume-compatible, while
// a nil model keeps compatibility with specs written before the field
// existed (omitempty keeps the serialized key set unchanged).
func TestFaultModelResumeIdentity(t *testing.T) {
	base := Spec{Custom: &CustomSweep{Workload: "leastsq/sgd", Rates: []float64{0.05}}, Seed: 3}
	burst := base
	burst.FaultModel = &faultmodel.Spec{Name: faultmodel.Burst}
	if ResumeCompatible(base, burst) {
		t.Error("specs with different fault models must not be resume-compatible")
	}
	tuned := burst
	tuned.FaultModel = &faultmodel.Spec{Name: faultmodel.Burst, BurstLen: 256}
	if ResumeCompatible(burst, tuned) {
		t.Error("specs with different model parameters must not be resume-compatible")
	}
	renamed := burst
	renamed.Name = "other"
	renamed.Workers = 9
	if !ResumeCompatible(burst, renamed) {
		t.Error("name/workers must not affect resume identity")
	}
	if !ResumeCompatible(base, base) {
		t.Error("nil fault model must be self-compatible")
	}
}

// TestFaultModelResumeDeterminism is satellite 3's resume guarantee under a
// non-default model: a burst-model campaign killed mid-run and resumed from
// its store finishes byte-identical to an uninterrupted run.
func TestFaultModelResumeDeterminism(t *testing.T) {
	spec := Spec{
		Custom:     &CustomSweep{Workload: "leastsq/sgd", Rates: []float64{0.02, 0.05, 0.1}, Iters: 6000},
		FaultModel: &faultmodel.Spec{Name: faultmodel.Burst, BurstLen: 32},
		Trials:     3, Seed: 23, Workers: 2,
	}
	wantText, wantCSV := runAll(t, spec)

	camp, err := Compile(spec)
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	dir := t.TempDir()
	st, err := Open(dir)
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	exec := NewExecution(camp, st)
	threshold := camp.Total() / 3
	go func() {
		for exec.Progress().Done < threshold {
			runtime.Gosched()
		}
		cancel()
	}()
	if err := exec.Run(ctx); err == nil {
		t.Fatal("interrupted run returned nil error")
	}
	st.Close()
	partial, err := Open(dir)
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer partial.Close()
	if done := partial.Done(camp.Plan); done == 0 || done >= camp.Total() {
		t.Fatalf("interrupt landed at %d/%d trials; expected a strict subset", done, camp.Total())
	}
	resumed := NewExecution(camp, partial)
	if err := resumed.Run(context.Background()); err != nil {
		t.Fatalf("resume: %v", err)
	}
	gotText, gotCSV := renderResultTable(t, resumed.Table())
	if gotText != wantText {
		t.Errorf("resumed burst-model table differs from uninterrupted run:\n--- want ---\n%s--- got ---\n%s",
			wantText, gotText)
	}
	if gotCSV != wantCSV {
		t.Errorf("resumed burst-model CSV differs from uninterrupted run")
	}
}

// TestModelKnobParams: fm_-prefixed params parameterize the model through
// CustomSweep.Params — riding inside the spec's resume identity and the
// tuner's grid — and are validated against the selected family.
func TestModelKnobParams(t *testing.T) {
	run := func(fm *faultmodel.Spec, params map[string]float64) (float64, error) {
		spec := Spec{
			Custom:     &CustomSweep{Workload: "leastsq/sgd", Rates: []float64{0.05}, Params: params},
			FaultModel: fm,
			Trials:     1, Seed: 19,
		}
		if err := spec.Validate(); err != nil {
			return 0, err
		}
		camp, err := Compile(spec)
		if err != nil {
			return 0, err
		}
		u := camp.Plan.Units[0]
		return u.Fn(u.Sweep.Rates[0], u.Sweep.TrialSeed(0, 0)), nil
	}
	burst := &faultmodel.Spec{Name: faultmodel.Burst}
	base, err := run(burst, nil)
	if err != nil {
		t.Fatal(err)
	}
	long, err := run(burst, map[string]float64{"fm_burst_len": 1024, "fm_burst_prob": 1})
	if err != nil {
		t.Fatal(err)
	}
	if base == long {
		t.Error("fm_burst_len/fm_burst_prob had no effect on the trial value")
	}
	again, err := run(burst, map[string]float64{"fm_burst_len": 1024, "fm_burst_prob": 1})
	if err != nil {
		t.Fatal(err)
	}
	if again != long {
		t.Errorf("model params not reproducible: %v vs %v", again, long)
	}
	// Spelled-out spec parameters and fm_ overrides must agree: they are
	// the same knob through two doors.
	direct, err := run(&faultmodel.Spec{Name: faultmodel.Burst, BurstLen: 1024, BurstProb: 1}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if direct != long {
		t.Errorf("fm_ override (%v) disagrees with explicit spec parameters (%v)", long, direct)
	}

	if _, err := run(burst, map[string]float64{"fm_nope": 1}); err == nil {
		t.Error("unknown fm_ knob accepted")
	}
	if _, err := run(nil, map[string]float64{"fm_burst_len": 64}); err == nil {
		t.Error("burst knob accepted under the default model")
	}
	if _, err := run(&faultmodel.Spec{Name: faultmodel.Stratified},
		map[string]float64{"fm_exp_weight": 2}); err != nil {
		t.Errorf("stratified weight knob rejected: %v", err)
	}
}

// TestModelKnobDeclarations holds ModelKnobs to the same registry contract
// as workload knobs: ascending grids containing the default, within bounds,
// names fm_-prefixed, and nothing declared for parameterless families.
func TestModelKnobDeclarations(t *testing.T) {
	for _, family := range faultmodel.Names() {
		knobs := ModelKnobs(family)
		if family == faultmodel.Default || family == faultmodel.Memory {
			if len(knobs) != 0 {
				t.Errorf("%s: parameterless family declares knobs %v", family, knobs)
			}
			continue
		}
		if len(knobs) == 0 {
			t.Errorf("%s: parameterized family declares no knobs", family)
		}
		for _, k := range knobs {
			if !strings.HasPrefix(k.Name, modelKnobPrefix) {
				t.Errorf("%s/%s: model knob without %q prefix", family, k.Name, modelKnobPrefix)
			}
			if len(k.Grid) == 0 || !sort.Float64sAreSorted(k.Grid) {
				t.Errorf("%s/%s: bad grid %v", family, k.Name, k.Grid)
			}
			hasDefault := false
			for _, v := range k.Grid {
				if v == k.Default {
					hasDefault = true
				}
				if v < k.Min || v > k.Max {
					t.Errorf("%s/%s: grid value %v outside [%v, %v]", family, k.Name, v, k.Min, k.Max)
				}
			}
			if !hasDefault {
				t.Errorf("%s/%s: default %v not in grid %v", family, k.Name, k.Default, k.Grid)
			}
		}
	}
}

package campaign

import (
	"fmt"
	"strings"

	"robustify/internal/fpu/faultmodel"
)

// modelKnobPrefix marks CustomSweep.Params keys that parameterize the
// campaign's fault model instead of the workload. The prefix keeps the
// two namespaces from colliding: workload knob names never start with
// "fm_", so splitModelParams can partition a params map without a
// registry lookup.
const modelKnobPrefix = "fm_"

// ModelKnobs declares the tunable parameters of one fault-model family,
// in the same Knob shape workloads declare, so the tune subsystem can put
// fault-model parameters (burst length, exponent-weight ratio) on its
// search grid next to algorithm knobs. Families without parameters —
// default and memory — declare none.
func ModelKnobs(family string) []Knob {
	switch family {
	case faultmodel.Stratified:
		return []Knob{
			{
				Name: "fm_exp_weight", Desc: "stratified model: exponent-class flip weight",
				Default: 1, Min: 0, Max: 1e6,
				Grid: []float64{0.25, 0.5, 1, 2, 4},
			},
			{
				Name: "fm_mant_weight", Desc: "stratified model: mantissa-class flip weight",
				Default: 1, Min: 0, Max: 1e6,
				Grid: []float64{0.25, 0.5, 1, 2, 4},
			},
			{
				Name: "fm_sign_weight", Desc: "stratified model: sign-bit flip weight",
				Default: 1, Min: 0, Max: 1e6,
				Grid: []float64{0, 0.25, 1, 4},
			},
		}
	case faultmodel.Burst:
		return []Knob{
			{
				Name: "fm_burst_len", Desc: "burst model: mean low-voltage window length in FLOPs",
				Default: 64, Min: 0, Max: 1e6,
				Grid: []float64{16, 64, 256, 1024},
			},
			{
				Name: "fm_burst_prob", Desc: "burst model: in-window corruption probability (the voltage curve's saturated MaxRate by default)",
				Default: 0.5, Min: 0, Max: 1,
				Grid: []float64{0.125, 0.25, 0.5, 1},
			},
		}
	case faultmodel.Default, faultmodel.Memory:
		return nil // parameterless families: rate and seed come from the sweep
	}
	return nil
}

// splitModelParams partitions a params map into workload knobs and
// fault-model parameters by the "fm_" prefix. Nil maps come back nil.
func splitModelParams(params map[string]float64) (workload, model map[string]float64) {
	for k, v := range params {
		if strings.HasPrefix(k, modelKnobPrefix) {
			if model == nil {
				model = make(map[string]float64)
			}
			model[k] = v
		} else {
			if workload == nil {
				workload = make(map[string]float64)
			}
			workload[k] = v
		}
	}
	return workload, model
}

// applyModelParams overlays fm_* parameter overrides onto a fault-model
// spec, returning the derived spec the trial units actually run. The base
// spec is never mutated — specs are resume identities, so the overrides
// stay in Params and the derivation happens at compile time. Every
// override must name a knob the selected family declares; fm_* keys with
// no model (or the wrong family) are rejected, mirroring how unknown
// workload knobs fail at submit time.
func applyModelParams(base *faultmodel.Spec, overrides map[string]float64) (*faultmodel.Spec, error) {
	if len(overrides) == 0 {
		return base, nil
	}
	family := base.ModelName()
	if err := checkKnobs(ModelKnobs(family), overrides, fmt.Sprintf("fault model %q has no parameter", family), "fault model parameter"); err != nil {
		return nil, err
	}
	derived := &faultmodel.Spec{}
	if base != nil {
		*derived = *base
	} else {
		derived.Name = family
	}
	for name, v := range overrides {
		switch name {
		case "fm_exp_weight":
			derived.ExpWeight = ptr(v)
		case "fm_mant_weight":
			derived.MantWeight = ptr(v)
		case "fm_sign_weight":
			derived.SignWeight = ptr(v)
		case "fm_burst_len":
			derived.BurstLen = v
		case "fm_burst_prob":
			derived.BurstProb = v
		}
	}
	if err := derived.Validate(); err != nil {
		return nil, err
	}
	return derived, nil
}

// ptr boxes a float for the stratified spec's optional weight fields.
func ptr(v float64) *float64 { return &v }

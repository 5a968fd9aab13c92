// Package faultmodel builds the selectable fault models of the simulated
// FPU: a JSON-serializable Spec names a model family and its parameters,
// and compiles — per trial, per seed — to an fpu.FaultModel.
//
// Four families exist:
//
//   - "default": the paper's injector — independent per-FLOP single-bit
//     flips at a uniform rate, LFSR-spaced, emulated bit distribution.
//     A nil or empty Spec selects it; its op stream is pinned bit-for-bit
//     to the pre-FaultModel-refactor behavior.
//   - "stratified": significance-stratified flips. The overall rate is the
//     sweep's rate, but the flipped bit position follows separate
//     exponent / mantissa / sign class weights, because fault significance
//     depends on data representation (Exploiting Data Representation for
//     Fault Tolerance; Elliott, Hoemmen & Mueller's position on fault
//     models).
//   - "burst": correlated faults driven by the voltage model. A low-voltage
//     window opens for ~burst_len consecutive FLOPs and corrupts each with
//     probability burst_prob (default: the voltage curve's saturated
//     MaxRate); windows close and reopen per deterministic LFSR
//     inter-arrival draws sized so the long-run fault rate still matches
//     the sweep's rate. Per-flip independence is the wrong model for
//     voltage overscaling — droop corrupts runs of consecutive ops.
//   - "memory": memory-resident data faults. FLOPs are exact; instead bits
//     flip in stored vectors between solver iterations, via the
//     fpu.MemoryFaulter hook solvers call at iteration boundaries. The
//     sweep rate is reinterpreted as flips per word scanned.
//
// Every model is deterministic per seed and countdown-aware (the batched
// kernels keep their fast path), and scalar/batched execution is
// bit-identical under all of them.
package faultmodel

import (
	"bytes"
	"encoding/json"
	"fmt"
	"strings"
	"sync/atomic"

	"robustify/internal/fpu"
)

// Model family names, in advertisement order.
const (
	Default    = "default"
	Stratified = "stratified"
	Burst      = "burst"
	Memory     = "memory"
)

// Names lists the selectable model families in advertisement order.
func Names() []string { return []string{Default, Stratified, Burst, Memory} }

// Spec selects and parameterizes a fault model. Specs round-trip through
// JSON inside campaign specs, so they are part of a campaign's resume
// identity: two specs marshaling differently compile different fault
// streams. The zero Spec (and a nil *Spec) selects the default model.
type Spec struct {
	// Name picks the model family; "" means "default".
	Name string `json:"name"`

	// ExpWeight, MantWeight, and SignWeight set the stratified model's
	// per-class flip weights (share of faults striking the exponent,
	// mantissa, and sign fields; each class's weight is spread uniformly
	// over its bits). Nil means 1. At least one must end up positive.
	ExpWeight  *float64 `json:"exp_weight,omitempty"`
	MantWeight *float64 `json:"mant_weight,omitempty"`
	SignWeight *float64 `json:"sign_weight,omitempty"`

	// BurstLen is the burst model's mean low-voltage window length in
	// FLOPs (0 = 64). Window lengths are drawn uniform on
	// {1, …, 2·BurstLen−1} per the LFSR, like fault gaps.
	BurstLen float64 `json:"burst_len,omitempty"`
	// BurstProb is the per-op corruption probability inside an open
	// window (0 = the voltage model's saturated MaxRate, 0.5).
	BurstProb float64 `json:"burst_prob,omitempty"`
}

// Parse reads a Spec from a CLI-ish string: empty means default, a bare
// model name selects that family with default parameters, and a JSON
// object ({"name":"burst","burst_len":128}) sets parameters too. Unknown
// JSON fields are rejected so typos surface instead of silently running
// defaults.
func Parse(s string) (*Spec, error) {
	s = strings.TrimSpace(s)
	if s == "" || s == Default {
		return nil, nil
	}
	var spec Spec
	if strings.HasPrefix(s, "{") {
		dec := json.NewDecoder(bytes.NewReader([]byte(s)))
		dec.DisallowUnknownFields()
		if err := dec.Decode(&spec); err != nil {
			return nil, fmt.Errorf("faultmodel: bad spec %q: %w", s, err)
		}
	} else {
		spec.Name = s
	}
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	return &spec, nil
}

// Validate checks the spec without building a model. Parameters belonging
// to a different family than Name are rejected: a spec carrying stray
// knobs would silently ignore them, and specs are resume identities.
func (s *Spec) Validate() error {
	if s == nil {
		return nil
	}
	name := s.Name
	if name == "" {
		name = Default
	}
	known := false
	for _, n := range Names() {
		if n == name {
			known = true
			break
		}
	}
	if !known {
		return fmt.Errorf("faultmodel: unknown fault model %q (available: %s)", s.Name, strings.Join(Names(), ", "))
	}
	if name != Stratified && (s.ExpWeight != nil || s.MantWeight != nil || s.SignWeight != nil) {
		return fmt.Errorf("faultmodel: exp/mant/sign weights apply only to the stratified model, not %q", name)
	}
	if name != Burst && (s.BurstLen != 0 || s.BurstProb != 0) {
		return fmt.Errorf("faultmodel: burst_len/burst_prob apply only to the burst model, not %q", name)
	}
	if name == Stratified {
		total := 0.0
		for _, w := range []*float64{s.ExpWeight, s.MantWeight, s.SignWeight} {
			v := weight(w)
			if v < 0 || v != v {
				return fmt.Errorf("faultmodel: stratified class weights must be finite and non-negative, got %v", v)
			}
			total += v
		}
		if total <= 0 {
			return fmt.Errorf("faultmodel: stratified model needs at least one positive class weight")
		}
	}
	if name == Burst {
		if s.BurstLen < 0 || s.BurstLen != s.BurstLen {
			return fmt.Errorf("faultmodel: burst_len must be non-negative, got %v", s.BurstLen)
		}
		if s.BurstProb < 0 || s.BurstProb > 1 || s.BurstProb != s.BurstProb {
			return fmt.Errorf("faultmodel: burst_prob must be in [0, 1], got %v", s.BurstProb)
		}
	}
	return nil
}

// ModelName returns the resolved family name ("" resolves to "default");
// a nil spec is the default model.
func (s *Spec) ModelName() string {
	if s == nil || s.Name == "" {
		return Default
	}
	return s.Name
}

// New builds the model for one trial at the given rate and seed. The
// default family returns the plain fpu.Injector, bit-identical to
// fpu.WithFaultRate — selecting "default" explicitly and omitting the
// spec produce the same op stream.
func (s *Spec) New(rate float64, seed uint64) (fpu.FaultModel, error) {
	if err := s.Validate(); err != nil {
		return nil, err
	}
	switch s.ModelName() {
	case Default:
		return fpu.NewInjector(rate, seed), nil
	case Stratified:
		return newStratified(rate, seed, weight(s.ExpWeight), weight(s.MantWeight), weight(s.SignWeight)), nil
	case Burst:
		return newBurst(rate, seed, s.BurstLen, s.BurstProb), nil
	case Memory:
		return newMemory(rate, seed), nil
	}
	panic("faultmodel: unreachable after Validate")
}

// unitObserver, when set, manufactures an fpu.Observer for every faulty
// unit built through Spec.Unit — the observability layer's single hook
// into trial execution. The factory must be cheap and concurrency-safe:
// Unit is called from every trial worker goroutine.
var unitObserver atomic.Pointer[func(rate float64, seed uint64) fpu.Observer]

// SetUnitObserver installs (or, with nil, removes) a process-wide observer
// factory consulted by Spec.Unit. Observers are passive taps on the fault
// injection path (see fpu.Observer) and never alter arithmetic, so
// installing one cannot perturb any per-seed pin. It returns the previous
// factory so tests can restore it.
func SetUnitObserver(factory func(rate float64, seed uint64) fpu.Observer) func(rate float64, seed uint64) fpu.Observer {
	var prev *func(rate float64, seed uint64) fpu.Observer
	if factory == nil {
		prev = unitObserver.Swap(nil)
	} else {
		prev = unitObserver.Swap(&factory)
	}
	if prev == nil {
		return nil
	}
	return *prev
}

// observe attaches the process-wide observer, if any, to a freshly built
// faulty unit. Reliable units are left untouched: they fire no faults, so
// an observer would only cost an interface check per kernel call.
func observe(u *fpu.Unit, rate float64, seed uint64) *fpu.Unit {
	if u.Reliable() {
		return u
	}
	if f := unitObserver.Load(); f != nil {
		if o := (*f)(rate, seed); o != nil {
			u.SetObserver(o)
		}
	}
	return u
}

// Unit builds a one-trial fpu.Unit running this spec's model, the shared
// construction path of workloads and figures. A nil spec (or the default
// family) takes the fpu.WithFaultRate path, pinned bit-identical to the
// pre-refactor units.
func (s *Spec) Unit(rate float64, seed uint64) *fpu.Unit {
	if s == nil || s.ModelName() == Default {
		return observe(fpu.New(fpu.WithFaultRate(rate, seed)), rate, seed)
	}
	m, err := s.New(rate, seed)
	if err != nil {
		// Specs are validated when campaigns and flags are parsed; an
		// invalid spec reaching trial execution is a programming error.
		panic(fmt.Sprintf("faultmodel: building validated spec: %v", err))
	}
	if m.Rate() <= 0 {
		// Rate zero means reliable under every family; drop the model so
		// Unit.Reliable holds, matching WithFaultRate's contract.
		return fpu.New()
	}
	return observe(fpu.New(fpu.WithModel(m)), rate, seed)
}

// weight resolves an optional class weight (nil = 1).
func weight(w *float64) float64 {
	if w == nil {
		return 1
	}
	return *w
}

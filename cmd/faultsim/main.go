// Command faultsim explores the stochastic-FPU fault model: per-bit fault
// histograms and raw corruption traces. The voltage/error-rate grid is
// figure 5.2 (robustbench -fig 5.2).
//
// Usage:
//
//	faultsim -mode hist|trace [-rate R] [-dist emulated|measured|uniform|low]
//	         [-model M] [-n N] [-seed S]
//
// -n is a raw count in every mode: samples drawn in hist mode, ops traced
// in trace mode. -model selects the trace's fault model (default,
// stratified, burst, memory — a bare name or a faultmodel JSON spec like
// {"name":"burst","burst_len":128}); it overrides -dist, which only
// parameterizes the default model, and is an error in hist mode.
package main

import (
	"flag"
	"fmt"
	"math"
	"os"

	"robustify/internal/fpu"
	"robustify/internal/fpu/faultmodel"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "faultsim:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("faultsim", flag.ContinueOnError)
	var (
		mode  = fs.String("mode", "hist", "hist | trace")
		rate  = fs.Float64("rate", 0.01, "faults per FLOP for trace mode")
		dist  = fs.String("dist", "emulated", "bit distribution: emulated | measured | uniform | low")
		model = fs.String("model", "", "trace fault model: name or JSON spec (see fpu/faultmodel); overrides -dist")
		n     = fs.Int("n", 20000, "raw count: samples to draw (hist) / ops to trace (trace)")
		seed  = fs.Uint64("seed", 1, "RNG seed")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *n <= 0 {
		return fmt.Errorf("-n must be positive, got %d", *n)
	}
	switch *mode {
	case "hist":
		if *model != "" {
			return fmt.Errorf("-model applies only to -mode trace")
		}
		return hist(pickDist(*dist), *n, *seed)
	case "trace":
		if *model != "" {
			spec, err := faultmodel.Parse(*model)
			if err != nil {
				return err
			}
			return traceModel(spec, *rate, *n, *seed)
		}
		return trace(pickDist(*dist), *rate, *n, *seed)
	default:
		return fmt.Errorf("unknown mode %q", *mode)
	}
}

func pickDist(name string) *fpu.BitDistribution {
	switch name {
	case "measured":
		return fpu.MeasuredDistribution()
	case "uniform":
		return fpu.UniformDistribution()
	case "low":
		return fpu.LowOrderDistribution()
	default:
		return fpu.EmulatedDistribution()
	}
}

func hist(d *fpu.BitDistribution, n int, seed uint64) error {
	rng := fpu.NewLFSR(seed)
	counts := make([]int, fpu.WordBits)
	for i := 0; i < n; i++ {
		counts[d.Sample(rng.Float64())]++
	}
	fmt.Printf("distribution %q, %d samples\n", d.Name(), n)
	fmt.Println("bit   pmf      sampled  bar")
	for bit := fpu.WordBits - 1; bit >= 0; bit-- {
		p := d.Prob(bit)
		got := float64(counts[bit]) / float64(n)
		bar := ""
		for i := 0; i < int(p*400); i++ {
			bar += "#"
		}
		if p > 0 || got > 0 {
			fmt.Printf("%3d   %.4f   %.4f   %s\n", bit, p, got, bar)
		}
	}
	return nil
}

func trace(d *fpu.BitDistribution, rate float64, n int, seed uint64) error {
	inj := fpu.NewInjector(rate, seed, fpu.WithDistribution(d))
	u := fpu.New(fpu.WithInjector(inj))
	fmt.Printf("tracing %d multiply-accumulate ops at rate %g (%s bits)\n", n, rate, d.Name())
	acc := 0.0
	for i := 0; i < n; i++ {
		exact := acc + 1.1*float64(i+1)
		got := u.FMA(1.1, float64(i+1), acc)
		mark := " "
		if got != exact {
			mark = "*"
			fmt.Printf("%s op %4d: exact %-22.17g got %-22.17g (rel %.2e)\n",
				mark, i, exact, got, relErr(got, exact))
		}
		acc = got
	}
	fmt.Printf("%d FLOPs, %d faults\n", u.FLOPs(), u.Faults())
	return nil
}

// traceModel is trace under a selectable fault model. The loop keeps its
// running state in a small vector it exposes to the model between blocks
// of multiply-accumulates, so memory-resident models have stored words to
// strike and FLOP-level models show their scheduling (the hook is a no-op
// for them).
func traceModel(spec *faultmodel.Spec, rate float64, n int, seed uint64) error {
	u := spec.Unit(rate, seed)
	state := make([]float64, 8)
	fmt.Printf("tracing %d multiply-accumulate ops at rate %g (model %s)\n", n, rate, spec.ModelName())
	exact := make([]float64, 8)
	for i := 0; i < n; i++ {
		slot := i % 8
		want := exact[slot] + 1.1*float64(i+1)
		got := u.FMA(1.1, float64(i+1), state[slot])
		if got != want {
			fmt.Printf("* op %4d: exact %-22.17g got %-22.17g (rel %.2e)\n",
				i, want, got, relErr(got, want))
		}
		state[slot] = got
		// Track the faulted value from here on: each report is one fault,
		// not the echo of every earlier one.
		exact[slot] = got
		if slot == 7 {
			u.CorruptSlice(state)
			for j := range state {
				if state[j] != exact[j] {
					fmt.Printf("* mem slot %d after op %4d: exact %-22.17g got %-22.17g\n",
						j, i, exact[j], state[j])
					exact[j] = state[j]
				}
			}
		}
	}
	var injected uint64
	if m := u.Model(); m != nil {
		injected = m.Injected()
	}
	fmt.Printf("%d FLOPs, %d faults, %d model injections\n", u.FLOPs(), u.Faults(), injected)
	return nil
}

func relErr(got, want float64) float64 {
	if want == 0 {
		return math.Abs(got)
	}
	return math.Abs(got-want) / math.Abs(want)
}

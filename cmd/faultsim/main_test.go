package main

import "testing"

func TestRunModes(t *testing.T) {
	// -n is a raw count in every mode: samples in hist, ops in trace.
	for _, args := range [][]string{
		{"-mode", "hist", "-n", "1000"},
		{"-mode", "hist", "-dist", "measured", "-n", "1000"},
		{"-mode", "hist", "-dist", "uniform", "-n", "1000"},
		{"-mode", "hist", "-dist", "low", "-n", "1000"},
		{"-mode", "trace", "-rate", "0.2", "-n", "50"},
		{"-mode", "trace", "-rate", "0.05", "-dist", "measured", "-n", "200"},
		{"-mode", "trace", "-model", `{"name":"burst","burst_len":32}`, "-rate", "0.02", "-n", "400"},
	} {
		if err := run(args); err != nil {
			t.Errorf("run(%v): %v", args, err)
		}
	}
	// The voltage grid is figure 5.2's, and -model selects a trace's
	// model only: both are errors, not silently something else.
	for _, args := range [][]string{
		{"-mode", "voltage"},
		{"-model", "burst", "-n", "100"},
		{"-mode", "hist", "-model", `{"name":"burst","burst_len":32}`, "-n", "100"},
	} {
		if err := run(args); err == nil {
			t.Errorf("run(%v) accepted", args)
		}
	}
}

func TestRunUnknownMode(t *testing.T) {
	if err := run([]string{"-mode", "nope"}); err == nil {
		t.Error("unknown mode accepted")
	}
}

func TestRunRejectsNonPositiveN(t *testing.T) {
	for _, mode := range []string{"hist", "trace"} {
		if err := run([]string{"-mode", mode, "-n", "0"}); err == nil {
			t.Errorf("mode %s accepted -n 0", mode)
		}
		if err := run([]string{"-mode", mode, "-n", "-5"}); err == nil {
			t.Errorf("mode %s accepted negative -n", mode)
		}
	}
}

func TestRunBadFlag(t *testing.T) {
	if err := run([]string{"-zzz"}); err == nil {
		t.Error("bad flag accepted")
	}
}

func TestPickDistDefaults(t *testing.T) {
	for _, tc := range []struct{ in, want string }{
		{"emulated", "emulated"},
		{"weird-name", "emulated"}, // fallback
		{"measured", "measured"},
	} {
		if d := pickDist(tc.in); d.Name() != tc.want {
			t.Errorf("pickDist(%q).Name() = %q, want %q", tc.in, d.Name(), tc.want)
		}
	}
}

func TestRelErr(t *testing.T) {
	if relErr(2, 1) != 1 {
		t.Error("relErr(2,1)")
	}
	if relErr(3, 0) != 3 {
		t.Error("relErr vs zero should be absolute")
	}
}

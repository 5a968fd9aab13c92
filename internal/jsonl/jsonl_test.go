package jsonl

import (
	"encoding/json"
	"math"
	"math/rand"
	"testing"
)

// floatCases cover both sides of encoding/json's 'f'/'e' switch (1e-6 and
// 1e21), signed zero, the subnormal and float64 extremes, and a
// two-digit negative exponent that keeps its digits.
var floatCases = []float64{
	0, math.Copysign(0, -1), 1, -1, 0.1, 1.5, 1e-7, -1e-7, 1e-6, 9.99999e-7,
	1e20, 1e21, -1e21, 123456789e13, 5e-324, math.SmallestNonzeroFloat64,
	math.MaxFloat64, -math.MaxFloat64, 1e-10, 2.5e-300, 1e300, 0.000123,
}

func TestAppendFloatMatchesJSON(t *testing.T) {
	check := func(f float64) {
		t.Helper()
		want, err := json.Marshal(f)
		if err != nil {
			t.Fatalf("json.Marshal(%v): %v", f, err)
		}
		got, ok := AppendFloat(nil, f)
		if !ok || string(got) != string(want) {
			t.Fatalf("AppendFloat(%v) = %q,%v; json.Marshal = %q", f, got, ok, want)
		}
	}
	for _, f := range floatCases {
		check(f)
	}
	r := rand.New(rand.NewSource(1))
	for i := 0; i < 100000; i++ {
		if f := math.Float64frombits(r.Uint64()); !math.IsNaN(f) && !math.IsInf(f, 0) {
			check(f)
		}
	}
}

func TestAppendFloatRejectsNonFinite(t *testing.T) {
	for _, f := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		if _, err := json.Marshal(f); err == nil {
			t.Fatalf("json.Marshal(%v) unexpectedly succeeded", f)
		}
		if b, ok := AppendFloat([]byte("x"), f); ok || string(b) != "x" {
			t.Errorf("AppendFloat(%v) = %q,%v; want unchanged, false", f, b, ok)
		}
	}
}

func TestAppendStringMatchesJSON(t *testing.T) {
	for _, s := range []string{
		"", "base", "SGD+AS,LS", "CG, N=10", "a<b", "x&y", "<script>", `say "hi"`,
		`back\slash`, "tab\there", "new\nline", "café", " ", "bad\xffutf8",
		"\x7f", "\x00", "rate=0.05 trial=3",
	} {
		want, err := json.Marshal(s)
		if err != nil {
			t.Fatal(err)
		}
		if got := AppendString([]byte("p"), s); string(got) != "p"+string(want) {
			t.Errorf("AppendString(%q) = %q, want %q", s, got[1:], want)
		}
	}
}

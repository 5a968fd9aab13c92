package jsonl

import (
	"bytes"
	"encoding/json"
	"math"
	"math/rand"
	"slices"
	"strconv"
	"testing"
)

// floatCases cover both sides of encoding/json's 'f'/'e' switch (1e-6 and
// 1e21), signed zero, the subnormal and float64 extremes, a two-digit
// negative exponent that keeps its digits, and both sides of the
// whole-number fast path's 2^53 bound.
var floatCases = []float64{
	0, math.Copysign(0, -1), 1, -1, 0.1, 1.5, 1e-7, -1e-7, 1e-6, 9.99999e-7,
	1e20, 1e21, -1e21, 123456789e13, 5e-324, math.SmallestNonzeroFloat64,
	math.MaxFloat64, -math.MaxFloat64, 1e-10, 2.5e-300, 1e300, 0.000123,
	1<<53 - 1, -(1<<53 - 1), 1 << 53, -(1 << 53), 1<<53 + 2, -(1<<53 + 2),
	1<<53 - 0.5, 1 << 54, 1<<63 + 1<<11, -1e20, -1 << 63, 1e22, 4503599627370495.5,
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
		// Whole numbers of every magnitude, on both sides of 2^53.
		f := math.Trunc(math.Ldexp(r.Float64(), r.Intn(70)))
		check(f)
		check(-f)
	}
}

func TestFloatMemoMatchesAppendFloat(t *testing.T) {
	var m FloatMemo
	r := rand.New(rand.NewSource(2))
	values := append(slices.Clone(floatCases), -1.2345678901234567e-6, math.NaN(), math.Inf(1))
	for i := 0; i < 10000; i++ {
		// Repeats, as a batch's rates come, and fresh values.
		f := values[r.Intn(len(values))]
		if i%3 == 0 {
			f = r.Float64()
		}
		want, wok := AppendFloat([]byte("x"), f)
		got, ok := m.Append([]byte("x"), f)
		if ok != wok || string(got) != string(want) {
			t.Fatalf("FloatMemo.Append(%v) = %q,%v; AppendFloat = %q,%v", f, got, ok, want, wok)
		}
	}
	m = FloatMemo{}
	if n := testing.AllocsPerRun(100, func() { m.Append(make([]byte, 0, 32), 0.05) }); n != 0 {
		t.Errorf("FloatMemo.Append: %v allocations, want 0", n)
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

// parserTokens seed FuzzParser and TestParser: tokens the encoders write,
// and near misses they never write.
var parserTokens = []string{
	"0", "-1", "42", "9223372036854775807", "-9223372036854775808", "9223372036854775808",
	"18446744073709551615", "18446744073709551616", "-0", "+1", "01", "00", "1e3", "-",
	"0.1", "-0.5", "1.5", "1e-7", "1e+21", "-1.25e-9", "5e-324", "1e-400", "1e400", "1E-1",
	"4.0", "1.", ".5", "1e-07", "1e+05", "1e7", "0x1p-2", "NaN", "Inf", "1_0",
	`"base"`, `""`, `"SGD+AS,LS"`, `"a<b"`, `"x&y"`, `"x\"`, `"x\"y"`, `"unterminated`,
	`"café"`, "\"\x7f\"", "\"\xff\"", "\"\u2028\"", "\"\u2029\"", "\"tab\there\"", `"a"b"`,
}

// TestParser pins which of the tokens each method accepts: the grammar's
// edges (sign, leading zero, range, exponent form, escapes, UTF-8).
// TestRecordCodecMatchesJSON checks that random encoder output is
// accepted and read back exactly.
func TestParser(t *testing.T) {
	for _, tc := range []struct {
		read func(p *Parser)
		want []string
	}{
		{func(p *Parser) { p.Int("") }, []string{"0", "-1", "42", "9223372036854775807", "-9223372036854775808"}},
		{func(p *Parser) { p.Uint("") }, []string{"0", "42", "9223372036854775807", "9223372036854775808", "18446744073709551615"}},
		{func(p *Parser) { p.Float("") }, []string{"0", "-1", "42", "9223372036854775807", "-9223372036854775808",
			"9223372036854775808", "18446744073709551615", "18446744073709551616", "-0", "0.1", "-0.5", "1.5",
			"1e-7", "1e+21", "-1.25e-9", "5e-324", "1e-400"}},
		{func(p *Parser) { p.String("") }, []string{`"base"`, `"SGD+AS,LS"`, `"café"`, "\"\x7f\""}},
	} {
		var got []string
		for _, tok := range parserTokens {
			p := NewParser([]byte(tok))
			if tc.read(&p); p.Done() {
				got = append(got, tok)
			}
		}
		if !slices.Equal(got, tc.want) {
			t.Errorf("accepted %q, want %q", got, tc.want)
		}
	}
}

// FuzzParser holds the parser's grammar to encoding/json: for arbitrary
// token bytes, whenever Int, Uint, Float or String accepts the whole
// token, json.Unmarshal of the token into int, uint64, float64 or string
// succeeds and yields the same value, bit for bit. Int, Uint and String
// accept only what their encoders write, so re-encoding reproduces the
// token too; Float also accepts non-shortest digits, which parse the same.
func FuzzParser(f *testing.F) {
	for _, tok := range parserTokens {
		f.Add([]byte(tok))
	}
	f.Fuzz(func(t *testing.T, tok []byte) {
		p := NewParser(tok)
		if got := p.Int(""); p.Done() {
			var want int
			if err := json.Unmarshal(tok, &want); err != nil || got != want {
				t.Fatalf("Int(%q) = %d; json.Unmarshal = %d, %v", tok, got, want, err)
			}
			if enc := strconv.AppendInt(nil, int64(got), 10); !bytes.Equal(enc, tok) {
				t.Fatalf("Int accepted %q, which encodes as %q", tok, enc)
			}
		}
		p = NewParser(tok)
		if got := p.Uint(""); p.Done() {
			var want uint64
			if err := json.Unmarshal(tok, &want); err != nil || got != want {
				t.Fatalf("Uint(%q) = %d; json.Unmarshal = %d, %v", tok, got, want, err)
			}
			if enc := strconv.AppendUint(nil, got, 10); !bytes.Equal(enc, tok) {
				t.Fatalf("Uint accepted %q, which encodes as %q", tok, enc)
			}
		}
		p = NewParser(tok)
		if got := p.Float(""); p.Done() {
			var want float64
			if err := json.Unmarshal(tok, &want); err != nil || math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("Float(%q) = %v; json.Unmarshal = %v, %v", tok, got, want, err)
			}
		}
		p = NewParser(tok)
		if got := p.String(""); p.Done() {
			var want string
			if err := json.Unmarshal(tok, &want); err != nil || string(got) != want {
				t.Fatalf("String(%q) = %q; json.Unmarshal = %q, %v", tok, got, want, err)
			}
			if enc := AppendString(nil, want); !bytes.Equal(enc, tok) {
				t.Fatalf("String accepted %q, which encodes as %q", tok, enc)
			}
		}
	})
}

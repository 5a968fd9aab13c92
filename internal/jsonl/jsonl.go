// Package jsonl holds the scalar primitives of the repository's hand-written
// JSON encoders (the trial line that is both a campaign store record and
// a worker report's result, the telemetry envelope, the worker report and
// the lease) and the parser their fast decoders share. Each primitive
// appends exactly the bytes encoding/json would produce for the same Go
// value, so a line written by hand is indistinguishable from one written
// by json.Marshal: readers, older stores and byte-identity pins never see
// the difference. The parser is their mirror: it accepts a value only in
// a byte shape those primitives write, so what it accepts it reads exactly
// as json.Unmarshal does, and a decoder hands anything else to
// json.Unmarshal.
package jsonl

import (
	"bytes"
	"encoding/json"
	"math"
	"strconv"
	"unicode/utf8"
)

// AppendFloat appends f as encoding/json encodes a float64: the shortest
// round-tripping decimal, in 'f' notation unless |f| is below 1e-6 or at
// least 1e21, where it switches to 'e' with a one-digit negative exponent
// written without its leading zero ("1e-7", not "1e-07"). ok is false,
// and b is returned unchanged, for NaN and ±Inf, which encoding/json
// rejects. A whole number below 2^53 in magnitude, whose shortest
// decimal is its integer digits, is written as an integer ("-0" for
// negative zero), without the shortest-decimal search.
func AppendFloat(b []byte, f float64) (_ []byte, ok bool) {
	if math.Abs(f) < 1<<53 && f == math.Trunc(f) {
		if f == 0 && math.Signbit(f) {
			return append(b, "-0"...), true
		}
		return strconv.AppendInt(b, int64(f), 10), true
	}
	if math.IsNaN(f) || math.IsInf(f, 0) {
		return b, false
	}
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	b = strconv.AppendFloat(b, f, format, -1, 64)
	if format == 'e' {
		if n := len(b); n >= 4 && b[n-4] == 'e' && b[n-3] == '-' && b[n-2] == '0' {
			b[n-2] = b[n-1]
			b = b[:n-1]
		}
	}
	return b, true
}

// FloatMemo remembers the last float appended through it and its bytes,
// so a batch that encodes one value over and over (a cell's rate on each
// of its trials' lines) formats it once. It keeps the bytes in a fixed
// array, so remembering allocates nothing. The zero value is empty.
type FloatMemo struct {
	bits uint64 // math.Float64bits of the remembered value
	n    uint8  // its length in buf; 0 when nothing is remembered
	buf  [24]byte
}

// Append appends f as AppendFloat does, from the memo when f has the
// remembered value's bits. An encoding longer than the memo's buffer is
// written but not remembered.
func (m *FloatMemo) Append(b []byte, f float64) (_ []byte, ok bool) {
	if m.n > 0 && math.Float64bits(f) == m.bits {
		return append(b, m.buf[:m.n]...), true
	}
	start := len(b)
	if b, ok = AppendFloat(b, f); ok && len(b)-start <= len(m.buf) {
		m.bits, m.n = math.Float64bits(f), uint8(copy(m.buf[:], b[start:]))
	}
	return b, ok
}

// AppendString appends s as a JSON string exactly as encoding/json encodes
// it, HTML-safe escaping included. Strings of printable ASCII without
// '"', '\\', '<', '>' or '&' — every series, unit and campaign name the
// repository generates — are copied between quotes; anything else is
// delegated to json.Marshal.
func AppendString(b []byte, s string) []byte {
	for i := 0; i < len(s); i++ {
		if c := s[i]; c < 0x20 || c > 0x7e || c == '"' || c == '\\' || c == '<' || c == '>' || c == '&' {
			q, _ := json.Marshal(s) // a string always marshals
			return append(b, q...)
		}
	}
	b = append(b, '"')
	b = append(b, s...)
	return append(b, '"')
}

// Parser walks a line in the exact canonical form a hand-written encoder
// writes, for that encoder's fast decoder. Each method consumes a key and
// the value after it, and accepts the value only in a byte shape the
// encoders above (and strconv.AppendInt and AppendUint) can write, so a
// line the parser accepts decodes under json.Unmarshal to the same values:
//
//   - Int and Uint: 0 or a digit string without a leading zero, Int's
//     with an optional '-' (but not "-0"), in range for the type;
//   - Float: -?(0|[1-9][0-9]*)(\.[0-9]*[1-9])?(e[+-][1-9][0-9]*)?, parsed
//     by strconv.ParseFloat as encoding/json parses it, and rejected if
//     that fails;
//   - String: a non-empty string without escapes — no '\\', no byte below
//     0x20, no '<', '>' or '&', no U+2028 or U+2029 — in valid UTF-8.
//
// The first mismatch latches: a failed method returns the zero value, and
// every later call then matches nothing.
type Parser struct {
	rest []byte
	bad  bool
}

// NewParser starts a parser at the beginning of line.
func NewParser(line []byte) Parser { return Parser{rest: line} }

// Literal consumes s if the line continues with it.
func (p *Parser) Literal(s string) bool {
	if p.bad || len(p.rest) < len(s) || string(p.rest[:len(s)]) != s {
		return false
	}
	p.rest = p.rest[len(s):]
	return true
}

// Int consumes key and the integer after it.
func (p *Parser) Int(key string) int {
	if !p.Literal(key) {
		p.bad = true
		return 0
	}
	if p.Literal("-") {
		v := p.digits(uint64(math.MaxInt) + 1)
		if v == 0 {
			p.bad = true // "-0", which no encoder writes
		}
		return -int(v)
	}
	return int(p.digits(math.MaxInt))
}

// Uint consumes key and the unsigned integer after it.
func (p *Parser) Uint(key string) uint64 {
	if !p.Literal(key) {
		p.bad = true
		return 0
	}
	return p.digits(math.MaxUint64)
}

// digits consumes an unsigned decimal integer without a leading zero and
// returns its value, which must not exceed limit.
func (p *Parser) digits(limit uint64) uint64 {
	r := p.rest
	if p.bad || len(r) == 0 || !isDigit(r[0]) || r[0] == '0' && len(r) > 1 && isDigit(r[1]) {
		p.bad = true
		return 0
	}
	var v uint64
	i := 0
	for ; i < len(r) && isDigit(r[i]); i++ {
		// Nineteen digits always fit in a uint64; only a twentieth can
		// overflow it.
		d := uint64(r[i] - '0')
		if i >= 19 && (i > 19 || v > (math.MaxUint64-d)/10) {
			p.bad = true
			return 0
		}
		v = v*10 + d
	}
	if v > limit {
		p.bad = true
		return 0
	}
	p.rest = r[i:]
	return v
}

// Float consumes key and the number after it.
func (p *Parser) Float(key string) float64 {
	if !p.Literal(key) {
		p.bad = true
		return 0
	}
	r := p.rest
	i := 0
	if i < len(r) && r[i] == '-' {
		i++
	}
	switch {
	case i < len(r) && r[i] == '0':
		i++
	case i < len(r) && isDigit(r[i]):
		for i++; i < len(r) && isDigit(r[i]); i++ {
		}
	default:
		p.bad = true
		return 0
	}
	if i < len(r) && r[i] == '.' {
		j := i + 1
		for j < len(r) && isDigit(r[j]) {
			j++
		}
		if j == i+1 || r[j-1] == '0' {
			p.bad = true
			return 0
		}
		i = j
	}
	if i < len(r) && r[i] == 'e' {
		if i+2 >= len(r) || r[i+1] != '+' && r[i+1] != '-' || !isDigit(r[i+2]) || r[i+2] == '0' {
			p.bad = true
			return 0
		}
		for i += 3; i < len(r) && isDigit(r[i]); i++ {
		}
	}
	f, err := strconv.ParseFloat(string(r[:i]), 64)
	if err != nil {
		p.bad = true
		return 0
	}
	p.rest = r[i:]
	return f
}

// String consumes key and a quoted string after it, and returns the bytes
// between the quotes, which are the string's value: a string that needs
// an escape is not accepted. The result aliases the line.
func (p *Parser) String(key string) []byte {
	if !p.Literal(key) || !p.Literal(`"`) {
		p.bad = true
		return nil
	}
	r := p.rest
	ascii := true
	i := 0
	for ; i < len(r) && r[i] != '"'; i++ {
		switch c := r[i]; {
		case c < 0x20 || c == '\\' || c == '<' || c == '>' || c == '&':
			p.bad = true
			return nil
		case c >= utf8.RuneSelf:
			ascii = false
		}
	}
	s := r[:i]
	if i == 0 || i == len(r) || !ascii && (!utf8.Valid(s) ||
		bytes.Contains(s, []byte("\u2028")) || bytes.Contains(s, []byte("\u2029"))) {
		p.bad = true
		return nil
	}
	p.rest = r[i+1:]
	return s
}

func isDigit(c byte) bool { return '0' <= c && c <= '9' }

// Done reports whether every call matched and the whole line was consumed.
func (p *Parser) Done() bool { return !p.bad && len(p.rest) == 0 }

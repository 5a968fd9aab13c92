// Package jsonl holds the scalar primitives of the repository's hand-written
// JSON encoders (the campaign store record, the telemetry envelope and the
// worker report) and the parser their fast decoders share. Each primitive
// appends exactly the bytes encoding/json would produce for the same Go
// value, so a line written by hand is indistinguishable from one written
// by json.Marshal: readers, older stores and byte-identity pins never see
// the difference.
package jsonl

import (
	"bytes"
	"encoding/json"
	"math"
	"strconv"
)

// AppendFloat appends f as encoding/json encodes a float64: the shortest
// round-tripping decimal, in 'f' notation unless |f| is below 1e-6 or at
// least 1e21, where it switches to 'e' with a one-digit negative exponent
// written without its leading zero ("1e-7", not "1e-07"). ok is false,
// and b is returned unchanged, for NaN and ±Inf, which encoding/json
// rejects.
func AppendFloat(b []byte, f float64) (_ []byte, ok bool) {
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
// writes, for that encoder's fast decoder. It checks the structure only:
// number tokens are returned unparsed, and a decoder must accept what it
// parsed only if re-encoding it reproduces the line byte for byte. The
// first mismatch latches, and every later call then matches nothing.
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

// Number consumes key and returns the number token after it, up to the
// next ',' or '}'.
func (p *Parser) Number(key string) []byte {
	if !p.Literal(key) {
		p.bad = true
		return nil
	}
	i := bytes.IndexAny(p.rest, ",}")
	if i < 0 {
		p.bad = true
		return nil
	}
	tok := p.rest[:i]
	p.rest = p.rest[i:]
	return tok
}

// String consumes key and a quoted string after it, and returns the bytes
// between the quotes as they stand: escapes are not decoded, so a string
// that needed any fails the caller's re-encoding check.
func (p *Parser) String(key string) []byte {
	if !p.Literal(key) || !p.Literal(`"`) {
		p.bad = true
		return nil
	}
	i := bytes.IndexByte(p.rest, '"')
	if i < 0 {
		p.bad = true
		return nil
	}
	s := p.rest[:i]
	p.rest = p.rest[i+1:]
	return s
}

// Done reports whether every call matched and the whole line was consumed.
func (p *Parser) Done() bool { return !p.bad && len(p.rest) == 0 }

package dispatch

import (
	"encoding/json"
	"strconv"

	"robustify/internal/jsonl"
)

// AppendReport appends req's wire form, byte-identical to json.Marshal(req),
// to b. Like json.Marshal it fails on a NaN or ±Inf rate or value, with
// the same error.
func AppendReport(b []byte, req *ReportRequest) ([]byte, error) {
	b = append(b, `{"worker":`...)
	b = jsonl.AppendString(b, req.Worker)
	b = append(b, `,"campaign":`...)
	b = jsonl.AppendString(b, req.Campaign)
	b = append(b, `,"lease":`...)
	b = jsonl.AppendString(b, req.Lease)
	if len(req.Results) > 0 {
		var rate jsonl.FloatMemo
		b = append(b, `,"results":[`...)
		for i := range req.Results {
			if i > 0 {
				b = append(b, ',')
			}
			var ok bool
			if b, ok = AppendResult(b, &req.Results[i], &rate); !ok {
				_, err := json.Marshal(req) // the error encoding/json reports for a non-finite value
				return b, err
			}
		}
		b = append(b, ']')
	}
	if req.Done {
		b = append(b, `,"done":true`...)
	}
	return append(b, '}'), nil
}

// AppendReportResponse appends resp as json.Marshal encodes it.
func AppendReportResponse(b []byte, resp ReportResponse) []byte {
	b = append(b, '{')
	if resp.Lost {
		b = append(b, `"lost":true`...)
	}
	if resp.Rejected != 0 {
		if resp.Lost {
			b = append(b, ',')
		}
		b = append(b, `"rejected":`...)
		b = strconv.AppendInt(b, int64(resp.Rejected), 10)
	}
	return append(b, '}')
}

// AppendResult appends r as json.Marshal encodes it: a report's result
// element and a campaign store line are the same bytes. The series is
// written only when set. The rate goes through the memo rate, which a
// batch of results shares. ok is false when r.Rate or r.Value is not
// finite, which encoding/json rejects.
func AppendResult(b []byte, r *TrialResult, rate *jsonl.FloatMemo) (_ []byte, ok bool) {
	b = append(b, `{"u":`...)
	b = strconv.AppendInt(b, int64(r.Unit), 10)
	b = append(b, `,"r":`...)
	b = strconv.AppendInt(b, int64(r.RateIdx), 10)
	b = append(b, `,"t":`...)
	b = strconv.AppendInt(b, int64(r.TrialIdx), 10)
	b = append(b, `,"rate":`...)
	if b, ok = rate.Append(b, r.Rate); !ok {
		return b, false
	}
	b = append(b, `,"seed":`...)
	b = strconv.AppendUint(b, r.Seed, 10)
	b = append(b, `,"v":`...)
	if b, ok = jsonl.AppendFloat(b, r.Value); !ok {
		return b, false
	}
	if r.Series != "" {
		b = append(b, `,"s":`...)
		b = jsonl.AppendString(b, r.Series)
	}
	return append(b, '}'), true
}

// DecodeResult parses a line (without its newline) that is exactly what
// AppendResult writes, the canonical form
// {"u":…,"r":…,"t":…,"rate":…,"seed":…,"v":…[,"s":"…"]}, into *r. The
// fields must come in that order, and jsonl.Parser accepts each value only
// in the byte shape the encoder writes, so an accepted line is one
// json.Unmarshal decodes to the same TrialResult. Anything else — other
// key order, whitespace, escapes, non-canonical numbers, torn or garbage
// bytes — reports false, with *r unspecified, for the caller to hand the
// line to json.Unmarshal.
func DecodeResult(line []byte, r *TrialResult) bool {
	p := jsonl.NewParser(line)
	return parseResult(&p, r) && p.Done()
}

// parseResult consumes one result in AppendResult's canonical form from p
// into *r. r.Series is kept when the result names the same series, so
// replaying a unit's store lines allocates no string per line.
func parseResult(p *jsonl.Parser, r *TrialResult) bool {
	r.Unit = p.Int(`{"u":`)
	r.RateIdx = p.Int(`,"r":`)
	r.TrialIdx = p.Int(`,"t":`)
	r.Rate = p.Float(`,"rate":`)
	r.Seed = p.Uint(`,"seed":`)
	r.Value = p.Float(`,"v":`)
	if !p.Literal(`,"s":`) {
		r.Series = ""
	} else if s := p.String(""); string(s) != r.Series {
		r.Series = string(s)
	}
	return p.Literal("}")
}

// DecodeReport decodes a report body into req, reusing req.Results'
// backing array. A body in the canonical form AppendReport writes is
// parsed by hand: the keys must come in AppendReport's order, and
// jsonl.Parser accepts each value only in the byte shape AppendReport
// writes, so an accepted body decodes exactly as json.Unmarshal would.
// Any other body — other key order, whitespace, escapes, a worker built
// with another encoder — goes through json.Unmarshal, which also decides
// whether it is a report at all.
func DecodeReport(body []byte, req *ReportRequest) error {
	if decodeCanonicalReport(body, req) {
		return nil
	}
	var slow ReportRequest // declared here so only fallback bodies allocate it
	err := json.Unmarshal(body, &slow)
	*req = slow
	return err
}

// decodeCanonicalReport is DecodeReport's hand-written path.
func decodeCanonicalReport(body []byte, req *ReportRequest) bool {
	p := jsonl.NewParser(body)
	worker := p.String(`{"worker":`)
	campaign := p.String(`,"campaign":`)
	lease := p.String(`,"lease":`)
	results := req.Results[:0]
	if p.Literal(`,"results":[`) {
		var r TrialResult
		for {
			if !parseResult(&p, &r) {
				return false
			}
			results = append(results, r)
			if !p.Literal(",") {
				break
			}
		}
		if !p.Literal("]") {
			return false
		}
	}
	done := p.Literal(`,"done":true`)
	if !p.Literal("}") || !p.Done() {
		return false
	}
	*req = ReportRequest{
		Worker: string(worker), Campaign: string(campaign), Lease: string(lease),
		Results: results, Done: done,
	}
	return true
}

// AppendLeaseResponse appends resp's wire form, byte-identical to
// json.Marshal(resp), to b. The spec is copied verbatim when json.Marshal
// would copy it too: valid JSON, already compact, and holding nothing
// encoding/json escapes for HTML safety — as the json.Marshal output the
// campaign engine hands the coordinator always is. Any other spec goes
// through json.Marshal, whose error an invalid spec returns.
func AppendLeaseResponse(b []byte, resp *LeaseResponse) ([]byte, error) {
	if resp.Spec != nil && !rawCanonical(resp.Spec) {
		ref, err := json.Marshal(resp)
		if err != nil {
			return b, err
		}
		return append(b, ref...), nil
	}
	b = append(b, `{"lease":`...)
	b = jsonl.AppendString(b, resp.Lease)
	b = append(b, `,"campaign":`...)
	b = jsonl.AppendString(b, resp.Campaign)
	b = append(b, `,"spec":`...)
	if resp.Spec == nil {
		b = append(b, "null"...)
	} else {
		b = append(b, resp.Spec...)
	}
	b = append(b, `,"shard":{"unit":`...)
	b = strconv.AppendInt(b, int64(resp.Shard.Unit), 10)
	b = append(b, `,"start":`...)
	b = strconv.AppendInt(b, int64(resp.Shard.Start), 10)
	b = append(b, `,"count":`...)
	b = strconv.AppendInt(b, int64(resp.Shard.Count), 10)
	b = append(b, `},"ttl":`...)
	b = strconv.AppendInt(b, int64(resp.TTL), 10)
	return append(b, '}'), nil
}

// rawCanonical reports whether json.Marshal copies raw verbatim: raw is
// valid JSON with no whitespace outside its strings and no '<', '>',
// '&', U+2028 or U+2029 anywhere.
func rawCanonical(raw []byte) bool {
	inString, escaped := false, false
	for i, c := range raw {
		switch {
		case c == '<' || c == '>' || c == '&':
			return false
		case c == 0xE2 && i+2 < len(raw) && raw[i+1] == 0x80 && raw[i+2]&^1 == 0xA8:
			return false
		case inString:
			switch {
			case escaped:
				escaped = false
			case c == '\\':
				escaped = true
			case c == '"':
				inString = false
			}
		case c == '"':
			inString = true
		case c == ' ' || c == '\t' || c == '\n' || c == '\r':
			return false
		}
	}
	return json.Valid(raw)
}

// DecodeLease decodes a lease request body into req. The canonical form
// json.Marshal writes, {"worker":"..."} with a worker id that needs no
// escape, is parsed by hand; any other body goes through json.Unmarshal,
// as in DecodeReport.
func DecodeLease(body []byte, req *LeaseRequest) error {
	p := jsonl.NewParser(body)
	worker := p.String(`{"worker":`)
	if p.Literal("}") && p.Done() {
		*req = LeaseRequest{Worker: string(worker)}
		return nil
	}
	var slow LeaseRequest
	err := json.Unmarshal(body, &slow)
	*req = slow
	return err
}

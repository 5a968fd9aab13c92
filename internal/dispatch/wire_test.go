package dispatch

import (
	"encoding/json"
	"testing"
)

// TestDecodeReportPaths: a body AppendReport wrote is decoded by hand
// into the request's own backing array; a body encoding/json would not
// have written — other key order, whitespace, escapes, an explicit
// "done":false — decodes exactly as json.Unmarshal reads it.
func TestDecodeReportPaths(t *testing.T) {
	canonical := ReportRequest{Worker: "w1-0001", Campaign: "c0001", Lease: "l7", Done: true, Results: []TrialResult{
		{Unit: 1, RateIdx: 2, TrialIdx: 3, Rate: 0.05, Seed: 18446744073709551615, Value: -1.25e-9},
		{Unit: 0, RateIdx: 0, TrialIdx: 4, Rate: 1e21, Seed: 0, Value: 0, Series: "base"},
	}}
	body, err := AppendReport(nil, &canonical)
	if err != nil {
		t.Fatal(err)
	}
	buf := make([]TrialResult, 0, 8)
	got := ReportRequest{Results: buf}
	if err := DecodeReport(body, &got); err != nil {
		t.Fatal(err)
	}
	if !sameReport(got, canonical) {
		t.Fatalf("DecodeReport(%s) = %+v, want %+v", body, got, canonical)
	}
	if &got.Results[0] != &buf[:1][0] {
		t.Errorf("a canonical body did not decode into the request's own array")
	}

	for _, body := range []string{
		`{"campaign":"c0001","worker":"w1","lease":"l7"}`,
		`{"worker":"w1", "campaign":"c0001","lease":"l7"}`,
		`{"worker":"w1","campaign":"c0001","lease":"l7"}`,
		`{"worker":"w1","campaign":"c0001","lease":"l7","done":false}`,
		`{"worker":"w1","campaign":"c0001","lease":"l7","results":[]}`,
		`{"worker":"w1","campaign":"c0001","lease":"l7","results":[{"u":1,"r":0,"t":0,"rate":5E-2,"seed":1,"v":2}]}`,
		`{"worker":"w1","campaign":"c0001","lease":"l7","results":[{"r":0,"u":1,"t":0,"rate":0.05,"seed":1,"v":2}]}`,
		`{"worker":"w1","campaign":"c0001","lease":"l7","results":[{"u":1,"r":0,"t":0,"rate":0.05,"seed":1,"v":2,"x":1}]}`,
	} {
		var want ReportRequest
		if err := json.Unmarshal([]byte(body), &want); err != nil {
			t.Fatalf("%s: %v", body, err)
		}
		got := ReportRequest{Worker: "stale", Results: []TrialResult{{Unit: 9, Value: 9}}}
		if err := DecodeReport([]byte(body), &got); err != nil || !sameReport(got, want) {
			t.Errorf("DecodeReport(%s) = %+v, %v; want %+v", body, got, err, want)
		}
	}
	for _, body := range []string{``, `{`, `[]`, `{"worker":1}`, `{"worker":"w","campaign":"c","lease":"l","results":[{"u":1.5}]}`} {
		if err := DecodeReport([]byte(body), &got); err == nil {
			t.Errorf("DecodeReport(%q) accepted a body json.Unmarshal rejects", body)
		}
	}
}

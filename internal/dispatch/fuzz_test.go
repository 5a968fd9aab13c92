package dispatch

import (
	"bytes"
	"encoding/json"
	"math"
	"reflect"
	"testing"
	"time"
)

// FuzzLeaseTable drives one lease table through a drawn schedule of
// acquires, reports (any subset of a lease's keys, with or without done,
// on live or stale leases) and clock jumps, some past the TTL. After
// every step it checks the table against a model of which trials are
// durable:
//   - no index is held by two unexpired leases;
//   - every non-durable index is in exactly one place a later Acquire
//     reaches: an outstanding lease, a handed-back range, or the uncarved
//     rest of its unit;
//   - a lease's Skip is exactly the durable indices in its range;
//   - Done is closed exactly when every index is durable.
//
// At the end a worker that finishes whatever it is leased must drain the
// grid.
func FuzzLeaseTable(f *testing.F) {
	f.Add([]byte{1, 2, 4, 1, 3, 0x21, 0, 0, 1, 0, 0, 1, 0, 0xff, 2, 0, 2, 1, 1, 0x0f, 1, 3, 9, 0, 1})
	f.Add([]byte{0, 2, 5, 0, 0, 0, 2, 0, 0, 0, 1, 1, 0, 0x03, 0, 3, 40, 1, 1, 0x0c, 1, 2, 0, 0, 0})
	f.Add([]byte{1, 0, 0, 1, 5, 0xaa, 0x55, 0x0f, 3, 0, 0, 0, 1, 0, 1, 0, 0, 0x01, 1, 2, 0, 1, 0})
	const ttl = time.Minute
	f.Fuzz(func(t *testing.T, prog []byte) {
		next := func() int {
			if len(prog) == 0 {
				return 0
			}
			b := prog[0]
			prog = prog[1:]
			return int(b)
		}
		units := make([]UnitGrid, 1+next()%2)
		for u := range units {
			units[u] = UnitGrid{Rates: 1 + next()%3, Trials: 1 + next()%6}
		}
		floor := 1 + next()%4
		haveBits := next() | next()<<8 | next()<<16
		model := make([][]bool, len(units))
		durable := make([][]uint64, len(units))
		g := 0
		for u := range units {
			model[u] = make([]bool, units[u].size())
			durable[u] = make([]uint64, (units[u].size()+63)/64)
			for i := range model[u] {
				model[u][i] = haveBits>>(g%24)&1 == 1
				if model[u][i] {
					durable[u][i>>6] |= 1 << (i & 63)
				}
				g++
			}
		}
		tb := NewTable(units, durable, floor)
		now := t0
		var issued []*Lease
		acquire := func(worker string) *Lease {
			le := tb.Acquire(worker, now, ttl)
			if le == nil {
				return nil
			}
			sh := le.Shard
			if sh.Unit < 0 || sh.Unit >= len(units) || sh.Start < 0 || sh.Count <= 0 || sh.Start+sh.Count > units[sh.Unit].size() {
				t.Fatalf("lease %+v outside the grid %+v", sh, units)
			}
			var want []int
			for i := sh.Start; i < sh.Start+sh.Count; i++ {
				if model[sh.Unit][i] {
					want = append(want, i)
				}
			}
			if !reflect.DeepEqual(sh.Skip, want) {
				t.Fatalf("lease %+v: Skip %v, want the durable indices %v", sh, sh.Skip, want)
			}
			if len(want) == sh.Count {
				t.Fatalf("lease %+v holds no missing trial", sh)
			}
			issued = append(issued, le)
			return le
		}
		report := func(le *Lease, pick func(i int) bool, done bool) {
			sh := le.Shard
			var ks []TrialResult
			for i := sh.Start; i < sh.Start+sh.Count; i++ {
				if pick(i) {
					ks = append(ks, TrialResult{Unit: sh.Unit, RateIdx: i / units[sh.Unit].Trials, TrialIdx: i % units[sh.Unit].Trials})
					model[sh.Unit][i] = true
				}
			}
			tb.Report(le.ID, ks, done, now, ttl)
		}

		for step := 0; len(prog) > 0 && step < 256; step++ {
			switch next() % 4 {
			case 0:
				acquire([]string{"a", "b", "c"}[next()%3])
			case 1:
				if len(issued) == 0 {
					continue
				}
				le := issued[next()%len(issued)]
				mask, done := next(), next()%2 == 1
				report(le, func(i int) bool { return mask>>((i-le.Shard.Start)%8)&1 == 1 }, done)
			case 2:
				now = now.Add(ttl + time.Second)
			case 3:
				now = now.Add(time.Duration(next()) * time.Second / 4)
			}
			checkTable(t, tb, model, now)
		}

		// Every trial still missing must be reachable: lease and finish
		// until the table runs dry.
		now = now.Add(2 * ttl)
		for le := acquire("drain"); le != nil; le = acquire("drain") {
			sh := le.Shard
			report(le, func(i int) bool { return !model[sh.Unit][i] }, true)
			checkTable(t, tb, model, now)
		}
		for u := range model {
			for i, d := range model[u] {
				if !d {
					t.Fatalf("unit %d index %d never leased again after the schedule", u, i)
				}
			}
		}
	})
}

// checkTable holds the table's internals to the model (see
// FuzzLeaseTable).
func checkTable(t *testing.T, tb *Table, model [][]bool, now time.Time) {
	t.Helper()
	tb.mu.Lock()
	defer tb.mu.Unlock()
	all := true
	for u := range model {
		for i, d := range model[u] {
			all = all && d
			if tb.isDurable(u, i) != d {
				t.Fatalf("unit %d index %d: table durable %v, model %v", u, i, tb.isDurable(u, i), d)
			}
			live, places := 0, 0
			if i >= tb.cursor[u] {
				places++
			}
			for _, s := range tb.returned {
				if s.contains(u, i) {
					places++
				}
			}
			for _, e := range tb.leases {
				if e.contains(u, i) {
					places++
					if !e.expiry.Before(now) {
						live++
					}
				}
			}
			if live > 1 {
				t.Fatalf("unit %d index %d held by %d unexpired leases", u, i, live)
			}
			if !d && places != 1 {
				t.Fatalf("missing unit %d index %d is in %d places (cursor %d, returned %v)", u, i, places, tb.cursor[u], tb.returned)
			}
		}
	}
	leased := 0
	for _, e := range tb.leases {
		missing := 0
		for i := e.start; i < e.start+e.count; i++ {
			if !model[e.unit][i] {
				missing++
			}
		}
		if e.missing != missing || missing == 0 {
			t.Fatalf("lease %s over %+v counts %d missing, model %d", e.id, e.span, e.missing, missing)
		}
		leased += missing
	}
	if leased != tb.nLeased {
		t.Fatalf("nLeased = %d, leases hold %d missing trials", tb.nLeased, leased)
	}
	select {
	case <-tb.done:
		if !all {
			t.Fatal("Done closed with trials missing")
		}
	default:
		if all {
			t.Fatal("every trial durable but Done open")
		}
	}
}

// FuzzReportWire checks the hand-written report codec against its
// reference, encoding/json, in both directions:
//
//   - for arbitrary body bytes, DecodeReport and json.Unmarshal agree on
//     accepting the body and on what it decodes to — even when the
//     request decoded into still holds an earlier report, as the
//     coordinator's reused request does;
//   - for a request built from arbitrary fields, NaN and ±Inf included,
//     AppendReport produces exactly json.Marshal's bytes, or fails where
//     json.Marshal fails, and so does AppendReportResponse.
func FuzzReportWire(f *testing.F) {
	f.Add([]byte(`{"worker":"w1","campaign":"c0001","lease":"l1","results":[{"u":0,"r":1,"t":2,"rate":0.05,"seed":7,"v":1.5}],"done":true}`),
		"w1", uint8(1), 0, 1, 2, 0.05, uint64(7), 1.5, true, false, 0)
	f.Add([]byte(`{"worker":"w1","campaign":"c0001","lease":"l1"}`), "w", uint8(0), 0, 0, 0, 0.0, uint64(0), 0.0, false, true, 3)
	f.Add([]byte(`{"worker":"w1","campaign":"c","lease":"l","results":[]}`), "a<b", uint8(2), -1, 0, 0, math.NaN(), uint64(0), 0.0, false, false, -2)
	f.Add([]byte(`{"lease":"l","worker":"w","campaign":"c","results":[{"u":1,"r":0,"t":0,"rate":1E-7,"seed":1,"v":-0}]}`),
		"\xff", uint8(3), 5, 6, 7, 1e-7, uint64(1<<63), math.Inf(-1), true, true, 1)
	f.Add([]byte(`{"worker":"w","campaign":"c","lease":"l","results":[{"u":1,"r":0,"t":0,"rate":0.1,"seed":1,"v":2}],"done":false}`),
		"", uint8(1), 0, 0, 0, 1e21, uint64(0), 5e-324, false, false, 0)
	f.Add([]byte(`{"worker":"w","campaign":"c","lease":"l","results":[{"u":0,"r":1,"t":2,"rate":0.05,"seed":7,"v":1.5,"s":"base"},{"u":0,"r":1,"t":3,"rate":0.05,"seed":8,"v":2}]}`),
		"w", uint8(2), 0, 1, 3, 0.05, uint64(8), 2.0, false, false, 0)

	prior, err := AppendReport(nil, &ReportRequest{Worker: "old", Campaign: "old", Lease: "old", Done: true,
		Results: []TrialResult{{Unit: 9, RateIdx: 9, TrialIdx: 9, Rate: 9, Seed: 9, Value: 9}, {Unit: 8}, {Unit: 7}}})
	if err != nil {
		f.Fatal(err)
	}
	f.Fuzz(func(t *testing.T, body []byte, worker string, n uint8, u, r, tr int, rate float64, seed uint64, v float64, done, lost bool, rejected int) {
		var want ReportRequest
		wantErr := json.Unmarshal(body, &want)
		var fresh, reused ReportRequest
		if err := DecodeReport(prior, &reused); err != nil {
			t.Fatal(err)
		}
		for _, got := range []*ReportRequest{&fresh, &reused} {
			err := DecodeReport(body, got)
			if (err == nil) != (wantErr == nil) {
				t.Fatalf("DecodeReport(%q) error %v, json.Unmarshal error %v", body, err, wantErr)
			}
			if err == nil && !sameReport(*got, want) {
				t.Fatalf("DecodeReport(%q) = %+v, json.Unmarshal = %+v", body, *got, want)
			}
		}

		req := ReportRequest{Worker: worker, Campaign: "c" + worker, Lease: worker + "l", Done: done}
		for i := 0; i < int(n%4); i++ {
			req.Results = append(req.Results, TrialResult{
				Unit: u + i, RateIdx: r, TrialIdx: tr - i, Rate: rate, Seed: seed + uint64(i), Value: v * float64(i),
			})
		}
		ref, refErr := json.Marshal(req)
		enc, err := AppendReport(nil, &req)
		if (err == nil) != (refErr == nil) || err == nil && !bytes.Equal(enc, ref) {
			t.Fatalf("AppendReport(%+v) = %q, %v; json.Marshal = %q, %v", req, enc, err, ref, refErr)
		}
		if err != nil && err.Error() != refErr.Error() {
			t.Fatalf("AppendReport error %q, json.Marshal error %q", err, refErr)
		}

		resp := ReportResponse{Lost: lost, Rejected: rejected}
		if ref, err := json.Marshal(resp); err != nil || !bytes.Equal(AppendReportResponse(nil, resp), ref) {
			t.Fatalf("AppendReportResponse(%+v) = %q, json.Marshal = %q, %v", resp, AppendReportResponse(nil, resp), ref, err)
		}
	})
}

// sameReport compares decoded reports, treating nil and empty Results
// alike: a request reused for decoding keeps its backing array.
func sameReport(a, b ReportRequest) bool {
	if len(a.Results) == 0 && len(b.Results) == 0 {
		a.Results, b.Results = nil, nil
	}
	return reflect.DeepEqual(a, b)
}

// FuzzLeaseWire checks the hand-written lease codec against encoding/json
// in both directions:
//
//   - for arbitrary body bytes, DecodeLease and json.Unmarshal agree on
//     accepting the body and on the worker id it carries;
//   - for a response built from arbitrary fields and spec bytes (valid
//     or not, compact or not, HTML-escaped or not), AppendLeaseResponse
//     produces exactly json.Marshal's bytes, or fails where json.Marshal
//     fails.
func FuzzLeaseWire(f *testing.F) {
	f.Add([]byte(`{"worker":"w1a2b3c4d-0001"}`), "l000001", "c0001",
		[]byte(`{"figure":"6.1","quick":true,"seed":5}`), false, 0, 0, 16, uint8(0), int64(30*time.Second))
	f.Add([]byte(`{"worker":""}`), "l", "c", []byte(`{"name": "a b", "x":[1, 2]}`), false, 1, 4096, 4096, uint8(3), int64(-1))
	f.Add([]byte(`{"Worker":"w","worker":"v"}`), "a<b", "\xff", []byte(`"<&> "`), true, -1, 5, 0, uint8(1), int64(0))
	f.Add([]byte(` {"worker":"w"}`), "", "c", []byte("\t[1,\n2]\r"), false, 0, 0, 1, uint8(0), int64(1))
	f.Add([]byte(`{"worker":"wA"}`), "l", "c", []byte(`{"a":`), false, 0, 0, 1, uint8(2), int64(1))
	f.Add([]byte(`{"worker":"w"}x`), "l", "c", []byte{}, false, 0, 0, 1, uint8(0), int64(1))
	f.Fuzz(func(t *testing.T, body []byte, lease, campaign string, spec []byte, nilSpec bool,
		unit, start, count int, nskip uint8, ttl int64) {
		var want LeaseRequest
		wantErr := json.Unmarshal(body, &want)
		got := LeaseRequest{Worker: "stale"}
		err := DecodeLease(body, &got)
		if (err == nil) != (wantErr == nil) || err == nil && got != want {
			t.Fatalf("DecodeLease(%q) = %+v, %v; json.Unmarshal = %+v, %v", body, got, err, want, wantErr)
		}

		resp := LeaseResponse{Lease: lease, Campaign: campaign, Spec: spec, TTL: time.Duration(ttl),
			Shard: Shard{Unit: unit, Start: start, Count: count}}
		if nilSpec {
			resp.Spec = nil
		}
		for i := 0; i < int(nskip%5); i++ {
			resp.Shard.Skip = append(resp.Shard.Skip, start+i*count)
		}
		ref, refErr := json.Marshal(resp)
		enc, err := AppendLeaseResponse([]byte("prefix"), &resp)
		if (err == nil) != (refErr == nil) || err == nil && !bytes.Equal(enc, append([]byte("prefix"), ref...)) {
			t.Fatalf("AppendLeaseResponse(%+v) = %q, %v; json.Marshal = %q, %v", resp, enc, err, ref, refErr)
		}
		if err != nil && err.Error() != refErr.Error() {
			t.Fatalf("AppendLeaseResponse error %q, json.Marshal error %q", err, refErr)
		}
	})
}

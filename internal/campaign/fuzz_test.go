package campaign

import (
	"bytes"
	"encoding/json"
	"math"
	"math/bits"
	"os"
	"path/filepath"
	"testing"

	"robustify/internal/dispatch"
	"robustify/internal/jsonl"
)

// FuzzStoreOpen feeds arbitrary bytes to the store loader as a pre-existing
// trials.jsonl and checks the durability contract end to end:
//
//   - Open never fails on corrupt content — torn, oversized, and garbage
//     lines are dropped, never fatal (a single bad line must not make a
//     campaign unresumable);
//   - the store stays writable after loading corruption, and a record
//     Put after Open survives a reopen — in particular, appending after a
//     torn trailing line must not glue the new record onto the torn bytes;
//   - loads are idempotent: reopening sees exactly what the writer saw.
func FuzzStoreOpen(f *testing.F) {
	valid, err := json.Marshal(Record{Unit: 1, RateIdx: 2, TrialIdx: 3, Rate: 0.5, Seed: 42, Value: 1.5})
	if err != nil {
		f.Fatal(err)
	}
	big := bytes.Repeat([]byte("x"), maxLineBytes+16)
	f.Add([]byte{})
	f.Add(append(append([]byte{}, valid...), '\n'))
	f.Add(valid[:len(valid)/2])                                           // torn trailing line, no newline
	f.Add(append(append(append([]byte{}, valid...), '\n'), valid[:4]...)) // good line then torn tail
	f.Add(append(append([]byte{}, big...), '\n'))                         // oversized line
	f.Add(append(append(append([]byte{}, big...), '\n'), append(append([]byte{}, valid...), '\n')...))
	f.Add([]byte("{\"u\":0,\"r\":0,\"t\":0,\"v\":2}\nnot json at all\n"))

	f.Fuzz(func(t *testing.T, data []byte) {
		dir := t.TempDir()
		if err := os.WriteFile(filepath.Join(dir, storeFile), data, 0o644); err != nil {
			t.Fatal(err)
		}
		st, err := Open(dir)
		if err != nil {
			t.Fatalf("Open must tolerate corrupt store content, got: %v", err)
		}
		rec := Record{Unit: 1 << 20, RateIdx: 7, TrialIdx: 9, Rate: 0.25, Seed: 11, Value: 2.25}
		added, err := st.Put(rec)
		if err != nil {
			t.Fatalf("Put after corrupt load: %v", err)
		}
		n := stored(st)
		if err := st.Close(); err != nil {
			t.Fatalf("Close: %v", err)
		}

		st2, err := Open(dir)
		if err != nil {
			t.Fatalf("reopen: %v", err)
		}
		defer st2.Close()
		if got := stored(st2); got != n {
			t.Fatalf("reopen lost records: had %d, reloaded %d", n, got)
		}
		v, ok := lookup(st2, rec.Unit, rec.RateIdx, rec.TrialIdx)
		if !ok {
			t.Fatalf("record appended after corrupt load did not survive reopen")
		}
		// added=false means the fuzz input already contained this trial
		// key; the store keeps the first durable value by design.
		if added && v != rec.Value {
			t.Fatalf("appended record value changed across reopen: got %v, want %v", v, rec.Value)
		}
	})
}

// FuzzStoreOpenPlan feeds arbitrary bytes to a store opened for a plan
// (durablePlan: two units, one cell crossing a word boundary) and checks
// the replay check end to end:
//
//   - the open never fails on corrupt content;
//   - the store holds exactly the trials of the plan's grid that some
//     line (as json.Unmarshal reads it) records with the rate and seed
//     the grid pins for its key, each with its last such line's value;
//   - Done equals a popcount of Durable;
//   - an in-grid Put after the load survives a reopen.
func FuzzStoreOpenPlan(f *testing.F) {
	plan := durablePlan()
	line := func(rec Record) []byte {
		b, _ := dispatch.AppendResult(nil, &rec, new(jsonl.FloatMemo))
		return append(b, '\n')
	}
	good := line(pinnedRecord(plan, 1, 0, 64, 1.5))
	wrongSeed := pinnedRecord(plan, 0, 1, 2, 2)
	wrongSeed.Seed++
	f.Add([]byte{})
	f.Add(good)
	f.Add(append(line(pinnedRecord(plan, 0, 0, 1, 1)), line(wrongSeed)...))
	f.Add(append(line(Record{Unit: 0, RateIdx: 2, Rate: 0.1}), good[:len(good)/2]...))
	f.Add([]byte("{\"u\":1,\"r\":0,\"t\":69,\"v\":2}\nnot json at all\n"))

	f.Fuzz(func(t *testing.T, data []byte) {
		dir := t.TempDir()
		if err := os.WriteFile(filepath.Join(dir, storeFile), data, 0o644); err != nil {
			t.Fatal(err)
		}
		st, err := open(dir, plan)
		if err != nil {
			t.Fatalf("open must tolerate corrupt store content, got: %v", err)
		}
		want := map[[3]int]float64{}
		for _, l := range bytes.SplitAfter(data, []byte("\n")) {
			var rec Record
			if len(l) > maxLineBytes || json.Unmarshal(l, &rec) != nil {
				continue
			}
			k := [3]int{rec.Unit, rec.RateIdx, rec.TrialIdx}
			if k[0] >= 0 && k[0] < len(plan.Units) && k[1] >= 0 && k[1] < len(plan.Units[k[0]].Sweep.Rates) &&
				k[2] >= 0 && k[2] < plan.Units[k[0]].Sweep.PerCell() && pinned(plan, k[0], k[1], k[2], rec.Rate, rec.Seed) {
				want[k] = rec.Value
			}
		}
		if got := stored(st); got != len(want) {
			t.Fatalf("replayed %d trials, want the %d pinned in-grid ones", got, len(want))
		}
		for k, v := range want {
			if got, ok := lookup(st, k[0], k[1], k[2]); !ok || math.Float64bits(got) != math.Float64bits(v) {
				t.Fatalf("trial %v replayed as %v,%v; want %v", k, got, ok, v)
			}
		}
		n := 0
		for _, set := range st.Durable(plan) {
			for _, w := range set {
				n += bits.OnesCount64(w)
			}
		}
		if done := st.Done(plan); done != n || done != len(want) {
			t.Fatalf("Done = %d, Durable holds %d, want %d", done, n, len(want))
		}
		rec := pinnedRecord(plan, 1, 0, 69, 2.25)
		added, err := st.Put(rec)
		if err != nil {
			t.Fatalf("in-grid Put after the load: %v", err)
		}
		if err := st.Close(); err != nil {
			t.Fatalf("Close: %v", err)
		}
		st2, err := open(dir, plan)
		if err != nil {
			t.Fatalf("reopen: %v", err)
		}
		defer st2.Close()
		v, ok := lookup(st2, rec.Unit, rec.RateIdx, rec.TrialIdx)
		if !ok || added && v != rec.Value {
			t.Fatalf("the record put after the load reopened as %v,%v; want %v (added %v)", v, ok, rec.Value, added)
		}
		if added {
			want[[3]int{rec.Unit, rec.RateIdx, rec.TrialIdx}] = rec.Value
		}
		if got := stored(st2); got != len(want) {
			t.Fatalf("reopen holds %d trials, want %d", got, len(want))
		}
	})
}

// FuzzRecordLine checks the hand-written trial-line codec, which store
// lines and worker reports share (dispatch.AppendResult and
// DecodeResult), against its reference, encoding/json, in both
// directions:
//
//   - for arbitrary line bytes, whenever the fast decoder accepts a line,
//     json.Unmarshal must succeed on it and yield the identical Record
//     (so replay never reads a line differently than it used to);
//   - for arbitrary Record fields, the encoder must produce exactly
//     json.Marshal's bytes, and fail exactly when json.Marshal fails.
func FuzzRecordLine(f *testing.F) {
	for _, rec := range recordCases {
		line, err := json.Marshal(rec)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(line, rec.Unit, rec.RateIdx, rec.TrialIdx, rec.Rate, rec.Seed, rec.Value, rec.Series)
	}
	f.Add([]byte(`{"u":4,"r":0,"t":9,"rate":0.25,"seed":77,"v":-2.5}`), 4, 0, 9, 0.25, uint64(77), -2.5, "")
	f.Add([]byte(`{"u":1,"r":2,"t":3,"rate":+0.5,"seed":4,"v":0x1p-2}`), 0, 0, 0, 1e-7, uint64(0), 1e21, "a<b")
	f.Add([]byte(`{"u":01,"r":2,"t":3,"rate":0.5,"seed":4,"v":1,"s":"x\"}`), 0, 0, 0, 0.0, uint64(0), 0.0, "")

	f.Fuzz(func(t *testing.T, line []byte, u, r, tr int, rate float64, seed uint64, v float64, s string) {
		var got Record
		if dispatch.DecodeResult(line, &got) {
			var want Record
			if err := json.Unmarshal(line, &want); err != nil {
				t.Fatalf("DecodeResult accepted %q, which json.Unmarshal rejects: %v", line, err)
			}
			if !sameRecord(got, want) {
				t.Fatalf("DecodeResult(%q) = %+v, json.Unmarshal = %+v", line, got, want)
			}
		}
		checkRecordCodec(t, Record{Unit: u, RateIdx: r, TrialIdx: tr, Rate: rate, Seed: seed, Value: v, Series: s})
	})
}

package campaign

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
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

// FuzzRecordLine checks the hand-written store codec against its
// reference, encoding/json, in both directions:
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
	f.Add([]byte(`{"u":1,"r":2,"t":3,"rate":+0.5,"seed":4,"v":0x1p-2}`), 0, 0, 0, 1e-7, uint64(0), 1e21, "a<b")
	f.Add([]byte(`{"u":01,"r":2,"t":3,"rate":0.5,"seed":4,"v":1,"s":"x\"}`), 0, 0, 0, 0.0, uint64(0), 0.0, "")

	f.Fuzz(func(t *testing.T, line []byte, u, r, tr int, rate float64, seed uint64, v float64, s string) {
		var got Record
		if decodeRecord(line, &got) {
			var want Record
			if err := json.Unmarshal(line, &want); err != nil {
				t.Fatalf("decodeRecord accepted %q, which json.Unmarshal rejects: %v", line, err)
			}
			if !sameRecord(got, want) {
				t.Fatalf("decodeRecord(%q) = %+v, json.Unmarshal = %+v", line, got, want)
			}
		}
		checkRecordCodec(t, Record{Unit: u, RateIdx: r, TrialIdx: tr, Rate: rate, Seed: seed, Value: v, Series: s})
	})
}

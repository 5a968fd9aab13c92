package campaign

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"math"
	"math/bits"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"robustify/internal/dispatch"
	"robustify/internal/figures"
	"robustify/internal/harness"
	"robustify/internal/jsonl"
)

// lookup returns the recorded value of one trial key.
func lookup(st *Store, unit, rateIdx, trialIdx int) (float64, bool) {
	st.mu.Lock()
	defer st.mu.Unlock()
	c, ok := st.cells[cellKey{unit, rateIdx}]
	if !ok || trialIdx < 0 || trialIdx >= len(c.vals) || !c.has(trialIdx) {
		return 0, false
	}
	return c.vals[trialIdx], true
}

// stored is the number of distinct trial keys the store holds, in a
// grid or not.
func stored(st *Store) int {
	st.mu.Lock()
	defer st.mu.Unlock()
	n := 0
	for _, c := range st.cells {
		for _, w := range c.set {
			n += bits.OnesCount64(w)
		}
	}
	return n
}

// durablePlan is a two-unit grid whose second unit's cell crosses a
// word boundary.
func durablePlan() *figures.Plan {
	return &figures.Plan{Units: []figures.Unit{
		{Sweep: harness.Sweep{Rates: []float64{0.1, 0.2}, Trials: 3, Seed: 5}},
		{Sweep: harness.Sweep{Rates: []float64{0.3}, Trials: 70, Seed: 6}},
	}}
}

// pinnedRecord is trial t of (unit, rateIdx) with the rate and seed
// plan's grid pins for it, which must be in the grid.
func pinnedRecord(plan *figures.Plan, unit, rateIdx, t int, v float64) Record {
	s := plan.Units[unit].Sweep
	return Record{Unit: unit, RateIdx: rateIdx, TrialIdx: t, Rate: s.Rates[rateIdx], Seed: s.TrialSeed(rateIdx, t), Value: v}
}

func TestStoreAppendReloadDedup(t *testing.T) {
	dir := t.TempDir()
	st, err := Open(dir)
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	recs := []Record{
		{Unit: 0, RateIdx: 0, TrialIdx: 0, Rate: 0.1, Seed: 7, Value: 1},
		{Unit: 0, RateIdx: 0, TrialIdx: 1, Rate: 0.1, Seed: 8, Value: 0},
		{Unit: 1, RateIdx: 2, TrialIdx: 0, Rate: 0.5, Seed: 9, Value: 0.25},
	}
	for _, r := range recs {
		if _, err := st.Put(r); err != nil {
			t.Fatalf("append: %v", err)
		}
	}
	// A duplicate key must not grow the store.
	if added, err := st.Put(recs[0]); err != nil || added {
		t.Fatalf("dup append: added=%v, err=%v; want false, nil", added, err)
	}
	if got := stored(st); got != 3 {
		t.Errorf("count = %d, want 3", got)
	}
	if v, ok := lookup(st, 1, 2, 0); !ok || v != 0.25 {
		t.Errorf("lookup = %v,%v; want 0.25,true", v, ok)
	}
	if err := st.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}

	st2, err := Open(dir)
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer st2.Close()
	if got := stored(st2); got != 3 {
		t.Errorf("reloaded count = %d, want 3", got)
	}
	if xs := st2.AppendCell([]float64{9}, 0, 0, 2); len(xs) != 3 || xs[0] != 9 || xs[1] != 1 || xs[2] != 0 {
		t.Errorf("cell values appended to [9] = %v, want [9 1 0]", xs)
	}
}

// TestStoreDurable: the durable set and Done hold exactly the in-grid
// keys that were put, across a word boundary, both live and after
// replay, whether the store was opened for the plan or by Open. A store
// opened for the plan refuses a put outside its grid and drops
// out-of-grid lines on replay — past a unit's rates or trials, negative,
// or naming a unit the plan lacks; a store from Open loads them (all but
// the negative trial index), and they set no bit and do not count.
func TestStoreDurable(t *testing.T) {
	plan := durablePlan()
	want := [][]uint64{{1<<1 | 1<<5}, {1<<0 | 1<<63, 1<<0 | 1<<5}}
	dir := t.TempDir()
	st, err := open(dir, plan)
	if err != nil {
		t.Fatal(err)
	}
	for _, k := range [][3]int{{0, 0, 1}, {0, 1, 2}, {1, 0, 0}, {1, 0, 63}, {1, 0, 64}, {1, 0, 69}} {
		if _, err := st.Put(pinnedRecord(plan, k[0], k[1], k[2], 1)); err != nil {
			t.Fatal(err)
		}
	}
	size := st.Size()
	if added, err := st.Put(Record{Unit: 0, RateIdx: 2, Value: 1}); err == nil || added || st.Size() != size {
		t.Errorf("out-of-grid put = %v, %v, file %d -> %d bytes; want an error and nothing written", added, err, size, st.Size())
	}
	if got := st.Durable(plan); !reflect.DeepEqual(got, want) {
		t.Errorf("live durable set = %b, want %b", got, want)
	}
	if got := st.Done(plan); got != 6 {
		t.Errorf("live done = %d, want 6", got)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	f, err := os.OpenFile(filepath.Join(dir, storeFile), os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	for _, k := range []string{`"u":0,"r":2,"t":0`, `"u":0,"r":0,"t":3`, `"u":0,"r":-1,"t":0`, `"u":0,"r":0,"t":-1`,
		`"u":-1,"r":0,"t":0`, `"u":2,"r":0,"t":0`, `"u":1,"r":0,"t":70`, `"u":1,"r":1,"t":0`} {
		f.WriteString(`{` + k + `,"rate":0,"seed":0,"v":1}` + "\n")
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	free, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if got := stored(free); got != 13 {
		t.Errorf("Open replayed %d keys, want 13 (the out-of-grid lines but the negative trial index load)", got)
	}
	if got, done := free.Durable(plan), free.Done(plan); !reflect.DeepEqual(got, want) || done != 6 {
		t.Errorf("Open's durable set = %b, done %d; want %b, 6 (out-of-grid lines do not count)", got, done, want)
	}
	if err := free.Close(); err != nil {
		t.Fatal(err)
	}
	st2, err := open(dir, plan)
	if err != nil {
		t.Fatal(err)
	}
	defer st2.Close()
	if got := stored(st2); got != 6 {
		t.Fatalf("replayed %d keys, want 6 (the out-of-grid lines are dropped)", got)
	}
	if got := st2.Durable(plan); !reflect.DeepEqual(got, want) {
		t.Errorf("replayed durable set = %b, want %b", got, want)
	}
	if got := st2.Done(plan); got != 6 {
		t.Errorf("replayed done = %d, want 6", got)
	}
	for _, k := range [][3]int{{0, 0, 0}, {0, 0, 1}} {
		if _, err := st2.Put(pinnedRecord(plan, k[0], k[1], k[2], 1)); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := st2.Put(Record{Unit: 0, RateIdx: 2, TrialIdx: 1, Value: 1}); err == nil {
		t.Error("out-of-grid put after replay succeeded, want an error")
	}
	same := *plan
	if got, other := st2.Done(plan), st2.Done(&same); got != 7 || other != 7 {
		t.Errorf("done after puts = %d (the store's plan), %d (an equal plan), want 7", got, other)
	}
}

// TestStoreReplayChecksPlan: a store opened for a plan replays only the
// lines of its grid whose rate and seed are the ones the grid pins for
// their key. A line that disagrees is dropped, even when it names a key
// another line recorded, and the trial it names stays undone; a store
// from Open loads every line.
func TestStoreReplayChecksPlan(t *testing.T) {
	plan := durablePlan()
	good := []Record{
		pinnedRecord(plan, 0, 0, 0, 1), pinnedRecord(plan, 0, 1, 2, 2),
		pinnedRecord(plan, 1, 0, 5, 3), pinnedRecord(plan, 1, 0, 66, 4),
	}
	wrongRate := pinnedRecord(plan, 0, 0, 1, 5)
	wrongRate.Rate = 0.2 // unit 0's other rate
	wrongSeed := pinnedRecord(plan, 1, 0, 7, 6)
	wrongSeed.Seed++
	otherSpec := pinnedRecord(plan, 0, 1, 2, 7) // a key good records, with another sweep seed
	otherSpec.Seed = harness.Sweep{Seed: 9}.TrialSeed(1, 2)
	outOfGrid := pinnedRecord(plan, 1, 0, 69, 8)
	outOfGrid.TrialIdx = 70
	var b []byte
	for _, rec := range append(good, wrongRate, wrongSeed, otherSpec, outOfGrid) {
		b, _ = dispatch.AppendResult(b, &rec)
		b = append(b, '\n')
	}
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, storeFile), b, 0o644); err != nil {
		t.Fatal(err)
	}
	st, err := open(dir, plan)
	if err != nil {
		t.Fatal(err)
	}
	if got := stored(st); got != len(good) {
		t.Errorf("replayed %d keys, want %d", got, len(good))
	}
	for _, rec := range good {
		if v, ok := lookup(st, rec.Unit, rec.RateIdx, rec.TrialIdx); !ok || v != rec.Value {
			t.Errorf("trial %d/%d/%d replayed as %v,%v; want %v", rec.Unit, rec.RateIdx, rec.TrialIdx, v, ok, rec.Value)
		}
	}
	for _, rec := range []Record{wrongRate, wrongSeed} {
		if _, ok := lookup(st, rec.Unit, rec.RateIdx, rec.TrialIdx); ok {
			t.Errorf("the line of trial %d/%d/%d with rate %v, seed %d replayed", rec.Unit, rec.RateIdx, rec.TrialIdx, rec.Rate, rec.Seed)
		}
	}
	if got := st.Done(plan); got != len(good) {
		t.Errorf("done = %d, want %d", got, len(good))
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	free, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer free.Close()
	if got := stored(free); got != len(good)+3 {
		t.Errorf("Open replayed %d keys, want %d", got, len(good)+3)
	}
}

// TestResumeReplayRerunsDropped: a resume from a store holding lines the
// plan does not pin — a wrong rate, a wrong seed, another spec's trial,
// an out-of-grid key — reruns exactly the trials those lines named, and
// the finished table is byte-identical to an uninterrupted run.
func TestResumeReplayRerunsDropped(t *testing.T) {
	spec := Spec{
		Custom: &CustomSweep{Workload: "sort/base", Rates: []float64{0.01, 0.2, 0.5}},
		Trials: 4, Seed: 31,
	}
	wantText, wantCSV := runAll(t, spec)
	camp, err := Compile(spec)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	seedCampaignDir(t, dir, spec, -1, nil)
	path := filepath.Join(dir, storeFile)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.SplitAfter(strings.TrimSuffix(string(data), "\n"), "\n")
	recs := make([]Record, len(lines))
	for i, line := range lines {
		if err := json.Unmarshal([]byte(line), &recs[i]); err != nil {
			t.Fatal(err)
		}
	}
	recs[0].Rate = 0.3
	recs[4].Seed++
	recs[7].Seed = harness.Sweep{Seed: spec.Seed + 1}.TrialSeed(recs[7].RateIdx, recs[7].TrialIdx)
	recs = append(recs, Record{Unit: 0, RateIdx: 3, Rate: 0.5, Value: 1}, Record{Unit: 0, TrialIdx: 4, Rate: 0.01, Value: 1})
	var b []byte
	for _, rec := range recs {
		b, _ = dispatch.AppendResult(b, &rec)
		b = append(b, '\n')
	}
	if err := os.WriteFile(path, b, 0o644); err != nil {
		t.Fatal(err)
	}

	st, err := camp.OpenStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	exec := NewExecution(camp, st)
	if got, want := exec.Progress(), (Progress{Done: camp.Total() - 3, Total: camp.Total()}); got != want {
		t.Errorf("progress before the resume = %+v, want %+v", got, want)
	}
	var ran atomic.Int64
	exec.trials = &ran
	if err := exec.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	if ran.Load() != 3 {
		t.Errorf("the resume ran %d trials, want the 3 the dropped lines named", ran.Load())
	}
	var text, csv bytes.Buffer
	if err := exec.Table().Render(&text); err != nil {
		t.Fatal(err)
	}
	if err := exec.Table().CSV(&csv); err != nil {
		t.Fatal(err)
	}
	if text.String() != wantText || csv.String() != wantCSV {
		t.Errorf("resumed table differs from uninterrupted run:\n--- want ---\n%s--- got ---\n%s", wantText, text.String())
	}
}

func TestStoreToleratesTornTrailingLine(t *testing.T) {
	dir := t.TempDir()
	st, err := Open(dir)
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	if _, err := st.Put(Record{Unit: 0, RateIdx: 0, TrialIdx: 0, Value: 1}); err != nil {
		t.Fatalf("append: %v", err)
	}
	st.Close()
	// Simulate a crash mid-write: a torn, unparseable trailing line.
	path := filepath.Join(dir, storeFile)
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	f.WriteString(`{"u":0,"r":0,"t":1,"v":0.`)
	f.Close()

	st2, err := Open(dir)
	if err != nil {
		t.Fatalf("reopen after torn line: %v", err)
	}
	defer st2.Close()
	if got := stored(st2); got != 1 {
		t.Errorf("count = %d, want 1 (torn line dropped)", got)
	}
	// The dropped trial can be re-recorded.
	if _, err := st2.Put(Record{Unit: 0, RateIdx: 0, TrialIdx: 1, Value: 0.5}); err != nil {
		t.Fatalf("re-append: %v", err)
	}
	if v, ok := lookup(st2, 0, 0, 1); !ok || v != 0.5 {
		t.Errorf("re-recorded trial = %v,%v", v, ok)
	}
}

// TestStoreToleratesOversizedLine: one absurdly long line (corruption —
// real records are tens of bytes) must not make the campaign permanently
// unresumable. bufio.Scanner would return ErrTooLong and hard-fail Open,
// also losing every record after the bad line.
func TestStoreToleratesOversizedLine(t *testing.T) {
	dir := t.TempDir()
	st, err := Open(dir)
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	if _, err := st.Put(Record{Unit: 0, RateIdx: 0, TrialIdx: 0, Value: 1}); err != nil {
		t.Fatalf("append: %v", err)
	}
	st.Close()

	f, err := os.OpenFile(filepath.Join(dir, storeFile), os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	f.WriteString(strings.Repeat("x", maxLineBytes+512) + "\n")
	f.WriteString(`{"u":0,"r":0,"t":2,"v":4}` + "\n") // records after the bad line must survive
	f.Close()

	st2, err := Open(dir)
	if err != nil {
		t.Fatalf("reopen with oversized line: %v", err)
	}
	defer st2.Close()
	if got := stored(st2); got != 2 {
		t.Errorf("count = %d, want 2 (oversized line dropped, later record kept)", got)
	}
	if v, ok := lookup(st2, 0, 0, 2); !ok || v != 4 {
		t.Errorf("record after oversized line = %v,%v; want 4,true", v, ok)
	}
	// The dropped trial simply reruns.
	if _, err := st2.Put(Record{Unit: 0, RateIdx: 0, TrialIdx: 1, Value: 0.5}); err != nil {
		t.Fatalf("re-append: %v", err)
	}
	if got := stored(st2); got != 3 {
		t.Errorf("count after rerun = %d, want 3", got)
	}
}

func TestStoreSpecRoundTrip(t *testing.T) {
	dir := t.TempDir()
	st, err := Open(dir)
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	defer st.Close()
	if _, ok, err := st.LoadSpec(); err != nil || ok {
		t.Fatalf("empty store LoadSpec = ok=%v err=%v, want absent", ok, err)
	}
	spec := Spec{Figure: "6.1", Trials: 2, Seed: 42, Quick: true}
	if err := st.SaveSpec(spec); err != nil {
		t.Fatalf("save spec: %v", err)
	}
	got, ok, err := st.LoadSpec()
	if err != nil || !ok {
		t.Fatalf("load spec: ok=%v err=%v", ok, err)
	}
	if got != spec {
		t.Errorf("spec round trip = %+v, want %+v", got, spec)
	}
}

// recordCases exercise every branch of the hand-written store codec
// against encoding/json: the float notation switch at 1e-6 and 1e21,
// signed zero, the float64 extremes, integer extremes, an omitted and a
// present series, and series that need (or look like they need) escaping.
var recordCases = []Record{
	{},
	{Unit: 1, RateIdx: 2, TrialIdx: 3, Rate: 0.05, Seed: 42, Value: 1.5, Series: "base"},
	{Rate: 1e-7, Value: math.Copysign(0, -1)},
	{Rate: 1e-6, Value: 1e20},
	{Rate: 1e21, Value: 5e-324},
	{Rate: math.MaxFloat64, Value: -math.MaxFloat64},
	{Unit: -1, RateIdx: math.MaxInt, TrialIdx: math.MinInt, Seed: math.MaxUint64},
	{Value: 3, Series: "SGD+AS,LS"},
	{Value: 3, Series: "CG, N=10"},
	{Value: 3, Series: "a<b&c>d"},
	{Value: 3, Series: `say "hi"`},
	{Value: 3, Series: "tab\tname"},
	{Value: 3, Series: "café"},
	{Value: 3, Series: `back\slash`},
	{Value: 3, Series: `}"`},
}

// sameRecord compares records bit for bit (so 0 and -0 differ).
func sameRecord(a, b Record) bool {
	return a.Unit == b.Unit && a.RateIdx == b.RateIdx && a.TrialIdx == b.TrialIdx &&
		math.Float64bits(a.Rate) == math.Float64bits(b.Rate) && a.Seed == b.Seed &&
		math.Float64bits(a.Value) == math.Float64bits(b.Value) && a.Series == b.Series
}

// checkRecordCodec asserts dispatch.AppendResult equals json.Marshal on
// rec (failing exactly when it fails), and that dispatch.DecodeResult
// reads the line back to the same record unless the series needed
// escaping — those lines are left to json.Unmarshal.
func checkRecordCodec(t *testing.T, rec Record) {
	t.Helper()
	want, werr := json.Marshal(rec)
	got, ok := dispatch.AppendResult(nil, &rec)
	if werr != nil {
		if ok {
			t.Fatalf("AppendResult(%+v) accepted a record json.Marshal rejects (%v)", rec, werr)
		}
		return
	}
	if !ok || string(got) != string(want) {
		t.Fatalf("AppendResult(%+v) = %q,%v; json.Marshal = %q", rec, got, ok, want)
	}
	var dec Record
	if !dispatch.DecodeResult(got, &dec) {
		if string(jsonl.AppendString(nil, rec.Series)) == `"`+rec.Series+`"` {
			t.Fatalf("DecodeResult rejected the canonical line %q", got)
		}
		return // an escaped series: decoded by json.Unmarshal on load
	}
	if !sameRecord(dec, rec) {
		t.Fatalf("DecodeResult(%q) = %+v, want %+v", got, dec, rec)
	}
}

func TestRecordCodecMatchesJSON(t *testing.T) {
	for _, rec := range recordCases {
		checkRecordCodec(t, rec)
	}
	r := rand.New(rand.NewSource(2))
	for i := 0; i < 20000; i++ {
		checkRecordCodec(t, Record{
			Unit: r.Intn(64) - 8, RateIdx: r.Intn(16), TrialIdx: int(r.Int63()),
			Rate: math.Float64frombits(r.Uint64()), Seed: r.Uint64(),
			Value: math.Float64frombits(r.Uint64()),
		})
	}
}

// TestStorePutRejectsNonFinite: a NaN or ±Inf rate or value is refused
// with the error encoding/json reports, and nothing is written.
func TestStorePutRejectsNonFinite(t *testing.T) {
	st, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	for _, rec := range []Record{
		{Value: math.NaN()}, {Value: math.Inf(1)}, {Rate: math.Inf(-1)}, {TrialIdx: 1, Rate: math.NaN()},
	} {
		_, want := json.Marshal(rec)
		added, err := st.Put(rec)
		if err == nil || added || err.Error() != want.Error() {
			t.Errorf("Put(%+v) = %v,%v; want false,%v", rec, added, err, want)
		}
	}
	if stored(st) != 0 || st.Size() != 0 {
		t.Errorf("rejected records reached the store: count %d, %d bytes", stored(st), st.Size())
	}
}

// TestStorePutBatchWriteFailure: when the batch's write fails, none of
// its keys reads as durable — not through Durable, AppendCell, Done
// (for the store's plan or an equal one) or the cells — and the failure
// latches.
func TestStorePutBatchWriteFailure(t *testing.T) {
	plan := &figures.Plan{Units: []figures.Unit{{Sweep: harness.Sweep{Rates: []float64{0.1}, Trials: 8}}}}
	st, err := open(t.TempDir(), plan)
	if err != nil {
		t.Fatal(err)
	}
	rec := func(trial int, v float64) Record { return Record{TrialIdx: trial, Rate: 0.1, Value: v} }
	if _, err := st.Put(rec(0, 1)); err != nil {
		t.Fatal(err)
	}
	// Close the file under the store, so the next write(2) fails.
	if err := st.f.Close(); err != nil {
		t.Fatal(err)
	}
	batch := []Record{rec(1, 2), rec(0, 9), rec(7, 3), rec(1, 4), rec(2, 5)}
	if fresh, err := st.PutBatch(batch); !errors.Is(err, os.ErrClosed) || fresh != nil {
		t.Fatalf("PutBatch on a closed file = %v, %v; want nil, an os.ErrClosed error", fresh, err)
	}
	if got, want := st.Durable(plan), [][]uint64{{1}}; !reflect.DeepEqual(got, want) {
		t.Errorf("durable set after the failed write = %b, want %b", got, want)
	}
	if got := st.AppendCell(nil, 0, 0, 4); !slices.Equal(got, []float64{1}) {
		t.Errorf("cell after the failed write = %v, want [1]", got)
	}
	other := *plan
	if done, equal := st.Done(plan), st.Done(&other); done != 1 || equal != 1 {
		t.Errorf("done after the failed write = %d (the store's plan), %d (an equal plan); want 1", done, equal)
	}
	if n := stored(st); n != 1 {
		t.Errorf("%d keys after the failed write, want 1", n)
	}
	if _, err := st.Put(rec(3, 6)); !errors.Is(err, os.ErrClosed) {
		t.Errorf("a put after the failed write = %v, want the latched error", err)
	}
}

// TestStorePutBatch: a batch put keeps the records whose keys are new —
// not durable yet and not repeated earlier in the batch — and writes
// exactly the bytes the same records put one at a time would. A record
// that cannot be encoded fails the whole batch: nothing is written and no
// key of it becomes durable.
func TestStorePutBatch(t *testing.T) {
	rec := func(trial int, v float64) Record {
		return Record{Unit: 1, RateIdx: 2, TrialIdx: trial, Rate: 0.05, Seed: uint64(100 + trial), Value: v, Series: "base"}
	}
	for _, tc := range []struct {
		name    string
		durable []Record // put before the batch
		batch   []Record
		fresh   []int // indices into batch of the records added
		wantErr bool
	}{
		{name: "empty"},
		{name: "all new", batch: []Record{rec(0, 1), rec(1, 2), rec(2, 3)}, fresh: []int{0, 1, 2}},
		{name: "repeated in batch", batch: []Record{rec(0, 1), rec(1, 2), rec(0, 1), rec(1, 9)}, fresh: []int{0, 1}},
		{name: "already durable", durable: []Record{rec(1, 2), rec(3, 4)},
			batch: []Record{rec(0, 1), rec(1, 2), rec(2, 3), rec(3, 4)}, fresh: []int{0, 2}},
		{name: "all durable", durable: []Record{rec(0, 1)}, batch: []Record{rec(0, 1), rec(0, 1)}},
		{name: "non-finite", durable: []Record{rec(3, 4)},
			batch: []Record{rec(0, 1), rec(1, math.NaN()), rec(2, 3)}, wantErr: true},
		{name: "non-finite rate", batch: []Record{rec(0, 1), {TrialIdx: 1, Rate: math.Inf(1)}}, wantErr: true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			batched, err := Open(t.TempDir())
			if err != nil {
				t.Fatal(err)
			}
			defer batched.Close()
			single, err := Open(t.TempDir())
			if err != nil {
				t.Fatal(err)
			}
			defer single.Close()
			for _, st := range []*Store{batched, single} {
				for _, r := range tc.durable {
					if _, err := st.Put(r); err != nil {
						t.Fatal(err)
					}
				}
			}
			before := batched.Size()

			batch := append([]Record(nil), tc.batch...)
			got, err := batched.PutBatch(batch)
			if tc.wantErr {
				if err == nil {
					t.Fatalf("PutBatch = %v, nil; want an error", got)
				}
				if n := stored(batched); n != len(tc.durable) || batched.Size() != before {
					t.Errorf("failed batch changed the store: %d records, %d bytes; want %d, %d", n, batched.Size(), len(tc.durable), before)
				}
				r := tc.batch[0]
				if _, ok := lookup(batched, r.Unit, r.RateIdx, r.TrialIdx); ok {
					t.Errorf("failed batch marked its encodable record %+v durable", r)
				}
				return
			}
			if err != nil {
				t.Fatal(err)
			}
			if len(got) != len(tc.fresh) {
				t.Fatalf("PutBatch added %+v, want batch indices %v", got, tc.fresh)
			}
			for i, j := range tc.fresh {
				if !sameRecord(got[i], tc.batch[j]) {
					t.Errorf("added[%d] = %+v, want %+v", i, got[i], tc.batch[j])
				}
			}
			for _, r := range tc.batch {
				if _, err := single.Put(r); err != nil {
					t.Fatal(err)
				}
			}
			want, err := os.ReadFile(filepath.Join(single.Dir(), storeFile))
			if err != nil {
				t.Fatal(err)
			}
			have, err := os.ReadFile(filepath.Join(batched.Dir(), storeFile))
			if err != nil {
				t.Fatal(err)
			}
			if string(have) != string(want) {
				t.Errorf("batched store:\n%s\nwant, as put one at a time:\n%s", have, want)
			}
			if stored(batched) != stored(single) {
				t.Errorf("batched store holds %d records, one at a time %d", stored(batched), stored(single))
			}
		})
	}
}

// TestStorePutBatchConcurrent: writers racing overlapping batches — two
// workers reporting one reassigned range — add every key exactly once,
// and the file holds each record once.
func TestStorePutBatchConcurrent(t *testing.T) {
	st, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	const writers, keys = 4, 512
	var added atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for start := 0; start < keys; start += 64 {
				batch := make([]Record, 0, 96)
				for i := start + w*8; i < start+96 && i < keys; i++ {
					batch = append(batch, Record{TrialIdx: i, Rate: 0.5, Seed: uint64(i), Value: float64(i)})
				}
				fresh, err := st.PutBatch(batch)
				if err != nil {
					t.Error(err)
					return
				}
				added.Add(int64(len(fresh)))
			}
		}()
	}
	wg.Wait()
	if added.Load() != keys || stored(st) != keys {
		t.Fatalf("%d records reported added, %d in the store; want %d", added.Load(), stored(st), keys)
	}
	data, err := os.ReadFile(filepath.Join(st.Dir(), storeFile))
	if err != nil {
		t.Fatal(err)
	}
	if lines := strings.Count(string(data), "\n"); lines != keys {
		t.Errorf("store file holds %d lines, want %d", lines, keys)
	}
}

// TestStoreLoadNonCanonicalLines: lines the fast path does not accept —
// escaped series, other key order, whitespace, non-canonical numbers,
// missing fields — load exactly as json.Unmarshal reads them.
func TestStoreLoadNonCanonicalLines(t *testing.T) {
	lines := []string{
		`{"u":0,"r":0,"t":0,"rate":0.1,"seed":1,"v":1,"s":"a<b"}`,
		`{"v":2,"t":1,"r":0,"u":0,"rate":0.1,"seed":2}`,
		`{"u":0, "r":0, "t":2, "rate":0.1, "seed":3, "v":3}`,
		`{"u":0,"r":0,"t":3,"rate":1E-1,"seed":4,"v":4.0}`,
		`{"u":0,"r":0,"t":4,"v":5}`,
		`{"u":0,"r":0,"t":5,"rate":0.1,"seed":6,"v":6,"s":""}`,
		`{"u":0,"r":0,"t":6,"rate":0.1,"seed":7,"v":7,"s":"x"} `,
		`{"u":0,"r":0,"t":7,"rate":0.1,"seed":8,"v":8}` + "\r",
		`{"u":0,"r":0,"t":8,"rate":0.1,"seed":9,"v":9,"extra":true}`,
	}
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, storeFile), []byte(strings.Join(lines, "\n")+"\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	st, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	for i, line := range lines {
		var rec Record
		if dispatch.DecodeResult([]byte(line), &rec) {
			t.Errorf("DecodeResult accepted non-canonical line %q", line)
		}
		var want Record
		if err := json.Unmarshal([]byte(line), &want); err != nil {
			t.Fatalf("line %d: %v", i, err)
		}
		if v, ok := lookup(st, want.Unit, want.RateIdx, want.TrialIdx); !ok || v != want.Value {
			t.Errorf("line %q loaded as %v,%v; want %v", line, v, ok, want.Value)
		}
	}
	if stored(st) != len(lines) {
		t.Errorf("count = %d, want %d", stored(st), len(lines))
	}
}

// TestStorePutAllocs pins Put of a new record at zero allocations: it is
// a batch of one on the stack, encoded into a batch buffer the stores
// reuse (storeLines). (A store from Open grows its cell by a word of 64 trials now
// and then; averaged over the runs that rounds to zero.)
func TestStorePutAllocs(t *testing.T) {
	st, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	rec := Record{Unit: 1, Rate: 0.05, Seed: 42, Value: 0.125, Series: "SGD+AS,LS"}
	allocs := testing.AllocsPerRun(1000, func() {
		rec.TrialIdx++
		if added, err := st.Put(rec); err != nil || !added {
			t.Fatalf("Put = %v,%v", added, err)
		}
	})
	if allocs != 0 {
		t.Errorf("Store.Put of a new record: %v allocations, want 0", allocs)
	}
}

// writeReplayStore writes a store of n canonical lines, shaped like the
// sort/base records a resumed campaign replays: four rates, one series,
// 19-digit seeds, each cell holding the first half of its trials. It
// returns the store's directory and its plan.
func writeReplayStore(tb testing.TB, n int) (string, *figures.Plan) {
	tb.Helper()
	plan := &figures.Plan{Units: []figures.Unit{{Series: "base", Sweep: harness.Sweep{
		Rates: []float64{0.001, 0.01, 0.05, 0.1}, Trials: n / 2, Seed: 1}}}}
	dir := tb.TempDir()
	st, err := open(dir, plan)
	if err != nil {
		tb.Fatal(err)
	}
	r := rand.New(rand.NewSource(1))
	recs := make([]Record, n)
	for i := range recs {
		recs[i] = pinnedRecord(plan, 0, i%4, i/4, float64(r.Intn(5))/4)
		recs[i].Series = "base"
	}
	if _, err := st.PutBatch(recs); err != nil {
		tb.Fatal(err)
	}
	if err := st.Close(); err != nil {
		tb.Fatal(err)
	}
	return dir, plan
}

// TestStoreReplayAllocs pins what a store opened for a plan allocates:
// its cells are allocated once from the plan, and nothing per line —
// consecutive lines of one series share one string — so the open of a
// store allocates the same fixed count at any size.
func TestStoreReplayAllocs(t *testing.T) {
	// The Store, its files and paths, the read buffer and the cell map
	// (14); each of the four cells' values and bitset (2 each).
	const fixed = 14 + 2*4
	for _, n := range []int{1000, 4000} {
		dir, plan := writeReplayStore(t, n)
		allocs := testing.AllocsPerRun(10, func() {
			st, err := open(dir, plan)
			if err != nil {
				t.Fatal(err)
			}
			if stored(st) != n {
				t.Fatalf("replayed %d records, want %d", stored(st), n)
			}
			st.Close()
		})
		if allocs != fixed {
			t.Errorf("open of %d lines: %v allocations, want %d", n, allocs, fixed)
		}
	}
}

// BenchmarkStoreOpen replays a store of 50,000 records, the half-done
// campaign a resume boots from, opened for its plan.
func BenchmarkStoreOpen(b *testing.B) {
	dir, plan := writeReplayStore(b, 50000)
	b.ReportAllocs()
	for b.Loop() {
		st, err := open(dir, plan)
		if err != nil {
			b.Fatal(err)
		}
		st.Close()
	}
}

// BenchmarkRecordLine compares the hand-written store codec with the
// encoding/json calls it replaced, on one typical store line.
func BenchmarkRecordLine(b *testing.B) {
	rec := Record{Unit: 1, RateIdx: 2, TrialIdx: 12345, Rate: 0.05, Seed: 8034150125634412345, Value: 0.0625, Series: "base"}
	line, err := json.Marshal(rec)
	if err != nil {
		b.Fatal(err)
	}
	b.Run("encode", func(b *testing.B) {
		b.ReportAllocs()
		var buf [256]byte
		for b.Loop() {
			dispatch.AppendResult(buf[:0], &rec)
		}
	})
	b.Run("encode-json", func(b *testing.B) {
		b.ReportAllocs()
		for b.Loop() {
			json.Marshal(rec)
		}
	})
	b.Run("decode", func(b *testing.B) {
		b.ReportAllocs()
		var rec Record
		for b.Loop() {
			dispatch.DecodeResult(line, &rec)
		}
	})
	b.Run("decode-json", func(b *testing.B) {
		b.ReportAllocs()
		for b.Loop() {
			var r Record
			json.Unmarshal(line, &r)
		}
	})
}

package obs

import (
	"encoding/json"
	"errors"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"robustify/internal/fpu"
	"robustify/internal/jsonl"
)

// bothMaps is a fault recorder with every summary field set, both
// counter maps included (their keys are not in index order, so the
// encoder must sort them).
var bothMaps = &FaultRecorder{
	ValueFaults: 7, CompareFaults: 1,
	PerOp: [8]uint64{fpu.OpAdd: 3, fpu.OpSub: 2, fpu.OpMul: 3, fpu.OpCmp: 1},
	Sign:  1, Exponent: 2, Mantissa: 5, MultiBit: 1, Clustered: 4, Iterations: 300,
	IterBucket: [iterBuckets]uint64{0: 1, 2: 1, 5: 2, 9: 4, iterBuckets - 1: 1},
	MemScans:   7, MemWords: 7000, MemFaults: 1,
}

// trialCases cover every branch of the hand-written TrialRecord encoder:
// omitempty strings, the float notation switch, non-finite values (which
// Float writes as strings), a zero and a negative duration, and fault
// recorders from empty to full.
var trialCases = []TrialRecord{
	{},
	{Campaign: "c0001", Unit: "sort/base", Series: "base", RateIdx: 1, TrialIdx: 2, Rate: 0.05, Seed: 42, Value: 0.25, DurationMicros: 14},
	{Series: "SGD+AS,LS", Rate: 1e-7, Value: Float(math.NaN())},
	{Series: "CG, N=10", Rate: 1e-6, Value: Float(math.Inf(1))},
	{Unit: "a<b&c>d", Rate: 1e21, Value: Float(math.Inf(-1))},
	{Campaign: `say "hi"`, Unit: "tab\there", Series: "café", Value: Float(math.Copysign(0, -1))},
	{Rate: 5e-324, Value: Float(math.MaxFloat64), DurationMicros: -3, Seed: math.MaxUint64},
	{RateIdx: -1, TrialIdx: math.MaxInt, Value: 1e20, Faults: &FaultRecorder{}},
	{Value: 1, Faults: &FaultRecorder{ValueFaults: 1, IterBucket: [iterBuckets]uint64{1}}},
	{Campaign: "c0002", Unit: "leastsq/cg", Series: "CG", Rate: 0.02, Seed: 7, Value: 1.5e-9, DurationMicros: 80, Faults: bothMaps},
}

// summaryJSON is json.Marshal of rec with its fault recorder replaced by
// the recorder's Summary, the form a reader decodes it into.
func summaryJSON(rec TrialRecord) ([]byte, error) {
	faults := rec.Faults
	rec.Faults = nil
	b, err := json.Marshal(rec)
	if err != nil || faults == nil {
		return b, err
	}
	s, err := json.Marshal(faults.Summary())
	if err != nil {
		return nil, err
	}
	b = append(b[:len(b)-1], `,"faults":`...)
	return append(append(b, s...), '}'), nil
}

func TestTrialRecordMatchesJSON(t *testing.T) {
	for _, rec := range trialCases {
		want, err := summaryJSON(rec)
		if err != nil {
			t.Fatalf("json.Marshal(%+v): %v", rec, err)
		}
		if direct, err := json.Marshal(rec); err != nil || string(direct) != string(want) {
			t.Errorf("json.Marshal = %s,%v\nwith Summary = %s", direct, err, want)
		}
		if got, ok := rec.appendJSON(nil, new(jsonl.FloatMemo)); !ok || string(got) != string(want) {
			t.Errorf("appendJSON = %s,%v\njson.Marshal = %s", got, ok, want)
		}
	}
	// A memo shared across the cases encodes every rate as a fresh one
	// would.
	var rate jsonl.FloatMemo
	for range 2 {
		for _, rec := range trialCases {
			want, _ := rec.appendJSON(nil, new(jsonl.FloatMemo))
			if got, _ := rec.appendJSON(nil, &rate); string(got) != string(want) {
				t.Errorf("appendJSON with a memo = %s\nwithout = %s", got, want)
			}
		}
	}
	for _, f := range []float64{0, 1e-7, 1e21, math.NaN(), math.Inf(1), math.Inf(-1), -2.5} {
		want, err := json.Marshal(Float(f))
		if err != nil {
			t.Fatal(err)
		}
		if got := Float(f).appendJSON(nil); string(got) != string(want) {
			t.Errorf("Float(%v) = %s, json.Marshal = %s", f, got, want)
		}
	}
}

// TestTelemetryLineMatchesJSON: every written line, trial or mirrored
// event, equals json.Marshal of the envelope it replaced, given the same
// timestamp; a non-finite rate fails as encoding/json fails, and writes
// nothing.
func TestTelemetryLineMatchesJSON(t *testing.T) {
	dir := t.TempDir()
	tel, err := OpenTelemetry(dir)
	if err != nil {
		t.Fatal(err)
	}
	type line struct {
		kind string
		rec  any
	}
	var want []line
	for _, rec := range trialCases {
		want = append(want, line{"trial", rec})
	}
	want = append(want,
		line{"event", map[string]string{"kind": "trial.finish", "campaign": "c0001", "detail": "SGD+AS,LS rate=0.05 <x>"}},
		line{"campaign.running", map[string]string{}},
	)
	for _, l := range want {
		if err := tel.Append(l.kind, l.rec); err != nil {
			t.Fatal(err)
		}
	}
	_, jerr := json.Marshal(TrialRecord{Rate: math.NaN()})
	if err := tel.Append("trial", TrialRecord{Rate: math.NaN()}); err == nil || !strings.Contains(err.Error(), jerr.Error()) {
		t.Errorf("non-finite rate: Append error %v, want one wrapping %v", err, jerr)
	}
	if err := tel.Close(); err != nil {
		t.Fatal(err)
	}
	b, err := os.ReadFile(filepath.Join(dir, TelemetryFile))
	if err != nil {
		t.Fatal(err)
	}
	got := strings.Split(strings.TrimSuffix(string(b), "\n"), "\n")
	if len(got) != len(want) {
		t.Fatalf("%d lines written, want %d", len(got), len(want))
	}
	for i, l := range want {
		var env struct {
			TS string `json:"ts"`
		}
		if err := json.Unmarshal([]byte(got[i]), &env); err != nil {
			t.Fatalf("line %d does not parse: %v", i, err)
		}
		ref, err := json.Marshal(struct {
			TS   string `json:"ts"`
			Kind string `json:"kind"`
			Rec  any    `json:"rec"`
		}{env.TS, l.kind, l.rec})
		if err != nil {
			t.Fatal(err)
		}
		if got[i] != string(ref) {
			t.Errorf("line %d:\n got %s\nwant %s", i, got[i], ref)
		}
	}
}

// TestTelemetryAppendAllocs pins a lease's telemetry append, 64 lines
// with fault summaries, and the trial latency observation: a run's
// batch append allocates nothing, and the public Append only boxes the
// record into its interface argument.
func TestTelemetryAppendAllocs(t *testing.T) {
	h := NewHub()
	tel, err := OpenTelemetry(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer tel.Close()
	rec := TrialRecord{Campaign: "c0001", Unit: "sort/base", Series: "base", Rate: 0.05, Seed: 1, Value: 0.5, DurationMicros: 14, Faults: bothMaps}
	lease := func(int) TrialRecord { return rec }
	if n := testing.AllocsPerRun(200, func() {
		if err := tel.AppendTrials("trial", 64, lease); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Errorf("Telemetry.AppendTrials of 64 lines: %v allocations, want 0", n)
	}
	if n := testing.AllocsPerRun(200, func() { h.ObserveTrial("sort/base", 1500*time.Nanosecond) }); n != 0 {
		t.Errorf("Hub.ObserveTrial: %v allocations, want 0", n)
	}
	n := testing.AllocsPerRun(200, func() {
		if err := tel.Append("trial", rec); err != nil {
			t.Fatal(err)
		}
	})
	if n != 1 {
		t.Errorf("Telemetry.Append(TrialRecord): %v allocations, want 1", n)
	}
}

// TestTelemetryBatchOneStamp: a batch of trial lines larger than the
// flush threshold reaches the file whole and in order, every line under
// the one timestamp of its append, and a record that cannot be encoded
// is left out without dropping the rest.
func TestTelemetryBatchOneStamp(t *testing.T) {
	dir := t.TempDir()
	tel, err := OpenTelemetry(dir)
	if err != nil {
		t.Fatal(err)
	}
	const n = 2 * flushBytes / 100 // lines are ~100 bytes
	err = tel.AppendTrials("trial", n, func(i int) TrialRecord {
		if i == 7 {
			return TrialRecord{TrialIdx: i, Rate: math.NaN()}
		}
		return TrialRecord{TrialIdx: i, Value: 1}
	})
	if err == nil {
		t.Error("a non-finite rate appended without an error")
	}
	if err := tel.Close(); err != nil {
		t.Fatal(err)
	}
	lines := sidecarLines(t, dir)
	if len(lines) != n-1 {
		t.Fatalf("%d lines, want %d", len(lines), n-1)
	}
	var stamp string
	for i, line := range lines {
		var env struct{ TS string }
		if err := json.Unmarshal([]byte(line), &env); err != nil {
			t.Fatal(err)
		}
		if want := i + min(i/7, 1); trialIdx(t, line) != want {
			t.Fatalf("line %d holds trial %d, want %d", i, trialIdx(t, line), want)
		}
		if i == 0 {
			stamp = env.TS
		} else if env.TS != stamp {
			t.Fatalf("line %d stamped %s, line 0 %s", i, env.TS, stamp)
		}
	}
}

// appendTrial appends one trial line through a run's writer.
func appendTrial(t *testing.T, tel *Telemetry, rec TrialRecord) {
	t.Helper()
	if err := tel.AppendTrials("trial", 1, func(int) TrialRecord { return rec }); err != nil {
		t.Error(err)
	}
}

// runWriters is the number of writers h holds for running campaigns.
func runWriters(h *Hub) int {
	h.mu.Lock()
	defer h.mu.Unlock()
	return len(h.runs)
}

// TestHubCloseStopsTelemetry: Close writes and closes the writer of a
// run still registered (one wedged past a bounded shutdown). The run's
// later trial appends fail and write nothing, a later event is appended
// as an idle campaign's is, and no writer is left open.
func TestHubCloseStopsTelemetry(t *testing.T) {
	dir := t.TempDir()
	h := NewHub()
	h.SetMirrorEvents(true)
	h.RegisterCampaign("c0001", dir)
	started, wedged, ran := make(chan struct{}), make(chan struct{}), make(chan error)
	go func() {
		ran <- h.WithTelemetry("c0001", dir, func(tel *Telemetry) error {
			appendTrial(t, tel, TrialRecord{Value: 1})
			close(started)
			<-wedged
			return tel.AppendTrials("trial", 1, func(int) TrialRecord { return TrialRecord{Value: 2} })
		})
	}()
	<-started
	if err := h.Close(); err != nil {
		t.Fatal(err)
	}
	if n := len(sidecarLines(t, dir)); n != 1 {
		t.Errorf("Close wrote %d buffered lines, want 1", n)
	}
	close(wedged)
	if err := <-ran; err == nil {
		t.Error("a trial append after Close succeeded")
	}
	h.Emit("campaign.interrupted", "c0001", "")
	if lines := sidecarLines(t, dir); len(lines) != 2 || trialIdx(t, lines[1]) != -1 {
		t.Errorf("telemetry after Close = %q, want the trial line written before it and the event", lines)
	}
	if n := runWriters(h); n != 0 {
		t.Errorf("%d telemetry writers open after Close", n)
	}
}

// sidecarLines returns the lines of dir's telemetry file written so far.
func sidecarLines(t *testing.T, dir string) []string {
	t.Helper()
	b, err := os.ReadFile(filepath.Join(dir, TelemetryFile))
	if err != nil {
		t.Fatal(err)
	}
	if len(b) == 0 {
		return nil
	}
	return strings.Split(strings.TrimSuffix(string(b), "\n"), "\n")
}

// trialIdx returns the trial_idx of a trial line, or -1 for any other.
func trialIdx(t *testing.T, line string) int {
	t.Helper()
	var env struct {
		Kind string      `json:"kind"`
		Rec  TrialRecord `json:"rec"`
	}
	if err := json.Unmarshal([]byte(line), &env); err != nil {
		t.Fatalf("line does not parse: %v\n%s", err, line)
	}
	if env.Kind != "trial" {
		return -1
	}
	return env.Rec.TrialIdx
}

// TestTelemetryBuffersTrialLines: trial lines wait in the buffer until a
// flush point. An event line writes through, after the trial lines before
// it, in order; an append that finds the oldest buffered line flushAge
// old writes the buffer; Close writes whatever is left.
func TestTelemetryBuffersTrialLines(t *testing.T) {
	dir := t.TempDir()
	tel, err := OpenTelemetry(dir)
	if err != nil {
		t.Fatal(err)
	}
	trial := func(i int) {
		t.Helper()
		if err := tel.Append("trial", TrialRecord{TrialIdx: i, Value: 1}); err != nil {
			t.Fatal(err)
		}
	}
	want := func(idx ...int) {
		t.Helper()
		lines := sidecarLines(t, dir)
		got := make([]int, len(lines))
		for i, l := range lines {
			got[i] = trialIdx(t, l)
		}
		if !slices.Equal(got, idx) {
			t.Errorf("sidecar holds trial_idx %v (-1: an event), want %v", got, idx)
		}
	}
	trial(0)
	tel.mu.Lock()
	tel.first = tel.first.Add(time.Hour) // no flush by age before the event
	tel.mu.Unlock()
	trial(1)
	trial(2)
	want()
	if err := tel.Append("event", map[string]string{"kind": "campaign.running"}); err != nil {
		t.Fatal(err)
	}
	want(0, 1, 2, -1)

	trial(3)
	want(0, 1, 2, -1)
	tel.mu.Lock()
	tel.first = time.Now().Add(-flushAge) // line 3 has waited flushAge
	tel.mu.Unlock()
	trial(4)
	want(0, 1, 2, -1, 3, 4)

	trial(5)
	if err := tel.Close(); err != nil {
		t.Fatal(err)
	}
	want(0, 1, 2, -1, 3, 4, 5)
}

// TestTelemetryFlushesAtThreshold: nothing is written before the buffer
// reaches flushBytes, and the append that brings it there writes every
// buffered line.
func TestTelemetryFlushesAtThreshold(t *testing.T) {
	dir := t.TempDir()
	tel, err := OpenTelemetry(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer tel.Close()
	for n := 1; n <= flushBytes; n++ {
		if err := tel.Append("trial", TrialRecord{Campaign: "c0001", TrialIdx: n, Value: 0.5}); err != nil {
			t.Fatal(err)
		}
		if n == 1 {
			tel.mu.Lock()
			tel.first = tel.first.Add(time.Hour) // no flush by age in this test
			tel.mu.Unlock()
		}
		lines := sidecarLines(t, dir)
		if len(lines) == 0 {
			continue
		}
		fi, err := os.Stat(filepath.Join(dir, TelemetryFile))
		if err != nil {
			t.Fatal(err)
		}
		if fi.Size() < flushBytes {
			t.Errorf("%d bytes written, before the %d-byte threshold", fi.Size(), flushBytes)
		}
		if len(lines) != n || trialIdx(t, lines[n-1]) != n {
			t.Errorf("crossing the threshold wrote %d lines, want all %d", len(lines), n)
		}
		return
	}
	t.Fatalf("%d appends wrote nothing", flushBytes)
}

// TestHubCloseTelemetry: a run's writer is registered while the run
// lasts, and its end writes the buffered lines and closes the writer;
// the next run of the campaign reuses a returned line buffer instead of
// growing one. A sidecar that cannot be opened leaves the run without a
// writer, never failed.
func TestHubCloseTelemetry(t *testing.T) {
	dir := t.TempDir()
	h := NewHub()
	defer h.Close()
	errRun := errors.New("the run's own error")
	err := h.WithTelemetry("c0001", dir, func(tel *Telemetry) error {
		appendTrial(t, tel, TrialRecord{TrialIdx: 1})
		appendTrial(t, tel, TrialRecord{TrialIdx: 2})
		if lines := sidecarLines(t, dir); len(lines) != 0 {
			t.Errorf("%d lines written before the run ended", len(lines))
		}
		if n := runWriters(h); n != 1 {
			t.Errorf("%d writers registered during the run, want 1", n)
		}
		return errRun
	})
	if err != errRun {
		t.Errorf("WithTelemetry returned %v, want the run's error", err)
	}
	if lines := sidecarLines(t, dir); len(lines) != 2 {
		t.Errorf("%d lines written at the run's end, want 2", len(lines))
	}
	if n := runWriters(h); n != 0 {
		t.Errorf("%d writers open after the run ended", n)
	}

	const runs = 20
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := range runs {
		h.WithTelemetry("c0001", dir, func(tel *Telemetry) error {
			appendTrial(t, tel, TrialRecord{TrialIdx: 3 + i})
			return nil
		})
	}
	runtime.ReadMemStats(&after)
	if b := (after.TotalAlloc - before.TotalAlloc) / runs; b >= flushBytes {
		t.Errorf("a run's telemetry allocates %d bytes, want less than a %d-byte buffer", b, flushBytes)
	}
	if lines := sidecarLines(t, dir); len(lines) != 2+runs {
		t.Errorf("%d lines after the later runs, want %d", len(lines), 2+runs)
	}

	called := false
	h.WithTelemetry("c0002", filepath.Join(dir, "missing"), func(tel *Telemetry) error {
		called = true
		if tel != nil {
			t.Error("a run got a writer for a sidecar that cannot be opened")
		}
		return nil
	})
	if !called {
		t.Error("a run whose sidecar cannot be opened did not run")
	}
}

// TestTelemetryConcurrentAppends: trial lines appended from several
// goroutines of a run at once, and mirrored events emitted among them
// and by another goroutine while runs of the campaign start and end, all
// reach the file whole; each goroutine's trial lines keep their order.
func TestTelemetryConcurrentAppends(t *testing.T) {
	dir := t.TempDir()
	h := NewHub()
	h.SetMirrorEvents(true)
	h.RegisterCampaign("c0001", dir)
	const runs, goroutines, each, outside = 3, 4, 500, 200
	var emitter sync.WaitGroup
	emitter.Add(1)
	go func() {
		defer emitter.Done()
		for range outside {
			h.Emit("lease.acquired", "c0001", "")
			runtime.Gosched()
		}
	}()
	for run := range runs {
		h.WithTelemetry("c0001", dir, func(tel *Telemetry) error {
			var wg sync.WaitGroup
			for g := range goroutines {
				wg.Add(1)
				go func() {
					defer wg.Done()
					for i := range each {
						appendTrial(t, tel, TrialRecord{RateIdx: g, TrialIdx: run*each + i, Value: 1})
						if i%100 == 0 {
							h.Emit("campaign.running", "c0001", "")
						}
					}
				}()
			}
			wg.Wait()
			return nil
		})
	}
	emitter.Wait()
	if err := h.Close(); err != nil {
		t.Fatal(err)
	}
	next := make([]int, goroutines)
	events := 0
	for _, line := range sidecarLines(t, dir) {
		var env struct {
			Kind string      `json:"kind"`
			Rec  TrialRecord `json:"rec"`
		}
		if err := json.Unmarshal([]byte(line), &env); err != nil {
			t.Fatalf("line does not parse: %v\n%s", err, line)
		}
		if env.Kind != "trial" {
			events++
			continue
		}
		if g := env.Rec.RateIdx; env.Rec.TrialIdx != next[g] {
			t.Fatalf("goroutine %d: trial %d written after %d", g, env.Rec.TrialIdx, next[g]-1)
		}
		next[env.Rec.RateIdx]++
	}
	for g, n := range next {
		if n != runs*each {
			t.Errorf("goroutine %d: %d trial lines, want %d", g, n, runs*each)
		}
	}
	if want := runs*goroutines*each/100 + outside; events != want {
		t.Errorf("%d event lines, want %d", events, want)
	}
}

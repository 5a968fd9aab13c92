package campaign

import (
	"bytes"
	"context"
	"errors"
	"math"
	"os"
	"runtime"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"robustify/internal/dispatch"
	"robustify/internal/figures"
	"robustify/internal/harness"
)

// runAll executes a spec to completion in a fresh store and returns the
// rendered table plus CSV bytes.
func runAll(t *testing.T, spec Spec) (string, string) {
	t.Helper()
	camp, err := Compile(spec)
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	st, err := Open(t.TempDir())
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	defer st.Close()
	exec := NewExecution(camp, st)
	if err := exec.Run(context.Background()); err != nil {
		t.Fatalf("run: %v", err)
	}
	table := exec.Table()
	var text, csv bytes.Buffer
	if err := table.Render(&text); err != nil {
		t.Fatalf("render: %v", err)
	}
	if err := table.CSV(&csv); err != nil {
		t.Fatalf("csv: %v", err)
	}
	return text.String(), csv.String()
}

// TestResumeDeterminism is the campaign engine's core guarantee: a
// campaign cancelled mid-run and resumed from its store produces a final
// table byte-identical to an uninterrupted run with the same seed.
func TestResumeDeterminism(t *testing.T) {
	spec := Spec{Figure: "6.1", Seed: 11, Quick: true, Trials: 3, Workers: 2}
	wantText, wantCSV := runAll(t, spec)

	camp, err := Compile(spec)
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	dir := t.TempDir()
	st, err := Open(dir)
	if err != nil {
		t.Fatalf("open: %v", err)
	}

	// Interrupt the first run partway: cancel once a third of the grid is
	// durable. In-flight trials may still land; resume must cope with any
	// completed subset.
	ctx, cancel := context.WithCancel(context.Background())
	exec := NewExecution(camp, st)
	threshold := camp.Total() / 3
	go func() {
		for exec.Progress().Done < threshold {
			runtime.Gosched()
		}
		cancel()
	}()
	if err := exec.Run(ctx); err == nil {
		t.Fatal("interrupted run returned nil error")
	}
	st.Close()
	partial, err := Open(dir)
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	done := partial.Done(camp.Plan)
	if done == 0 || done >= camp.Total() {
		t.Fatalf("interrupt landed at %d/%d trials; expected a strict subset", done, camp.Total())
	}

	// Resume from the store: only the missing trials execute.
	resumed := NewExecution(camp, partial)
	if err := resumed.Run(context.Background()); err != nil {
		t.Fatalf("resume run: %v", err)
	}
	if got := resumed.Progress(); got.Done != got.Total {
		t.Fatalf("resume incomplete: %+v", got)
	}
	table := resumed.Table()
	var text, csv bytes.Buffer
	if err := table.Render(&text); err != nil {
		t.Fatal(err)
	}
	if err := table.CSV(&csv); err != nil {
		t.Fatal(err)
	}
	partial.Close()

	if text.String() != wantText {
		t.Errorf("resumed table differs from uninterrupted run:\n--- want ---\n%s--- got ---\n%s", wantText, text.String())
	}
	if csv.String() != wantCSV {
		t.Errorf("resumed CSV differs from uninterrupted run")
	}
}

// TestCampaignMatchesEagerBuild pins the query layer to the reference
// execution: a campaign-run figure renders byte-identically to the
// figure's own Build.
func TestCampaignMatchesEagerBuild(t *testing.T) {
	cfg := figures.Config{Quick: true, Seed: 9, Trials: 2}
	var want bytes.Buffer
	if err := figures.Fig66(cfg).Render(&want); err != nil {
		t.Fatal(err)
	}
	got, _ := runAll(t, Spec{Figure: "6.6", Seed: 9, Quick: true, Trials: 2})
	if got != want.String() {
		t.Errorf("campaign table differs from eager build:\n--- eager ---\n%s--- campaign ---\n%s", want.String(), got)
	}
}

func TestMidRunTableAndStatus(t *testing.T) {
	spec := Spec{
		Custom: &CustomSweep{Workload: "sort/base", Rates: []float64{0.001, 0.5}},
		Trials: 4, Seed: 3,
	}
	camp, err := Compile(spec)
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	st, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	// Seed the store with two of the eight trials by hand, as if a prior
	// run had been interrupted; the mid-run table must cover only cells
	// with data.
	u := camp.Plan.Units[0]
	for _, trial := range []int{0, 1} {
		if _, err := st.Put(Record{
			Unit: 0, RateIdx: 0, TrialIdx: trial,
			Rate: u.Sweep.Rates[0], Seed: u.Sweep.TrialSeed(0, trial), Value: 1,
		}); err != nil {
			t.Fatal(err)
		}
	}
	exec := NewExecution(camp, st)
	if p := exec.Progress(); p.Done != 2 || p.Total != 8 {
		t.Errorf("progress = %+v, want 2/8", p)
	}
	table := exec.Table()
	if len(table.Series) != 1 {
		t.Fatalf("series = %d", len(table.Series))
	}
	if got := len(table.Series[0].Points); got != 1 {
		t.Errorf("mid-run table has %d points, want 1 (only the populated cell)", got)
	}
	status := exec.Status()
	if len(status) != 1 || len(status[0].Cells) != 2 {
		t.Fatalf("status shape: %+v", status)
	}
	c0 := status[0].Cells[0]
	if c0.Done != 2 || c0.Total != 4 || float64(c0.Mean) != 1 {
		t.Errorf("cell 0 status = %+v", c0)
	}
	if status[0].Cells[1].Done != 0 {
		t.Errorf("cell 1 should be empty: %+v", status[0].Cells[1])
	}

	// On a completed grid of more than 64 trials per cell, every status
	// cell's mean and median are the harness aggregates of the cell's
	// values, bit for bit, and the one the unit's aggregator names is its
	// table point. A streaming estimate (a running mean, a quantile
	// estimator) drifts from both.
	const trials = 101
	for _, agg := range []string{"mean", "median"} {
		camp, err := Compile(Spec{
			Custom: &CustomSweep{Workload: "sort/base", Rates: []float64{0.01, 0.1}, Agg: agg},
			Trials: trials, Seed: 3,
		})
		if err != nil {
			t.Fatal(err)
		}
		st, err := Open(t.TempDir())
		if err != nil {
			t.Fatal(err)
		}
		defer st.Close()
		u := camp.Plan.Units[0]
		// Skewed values in scrambled order: their running mean rounds
		// differently from their sum, and their median is no quantile
		// marker's interpolation.
		for r, rate := range u.Sweep.Rates {
			for i := range trials {
				v := math.Exp(float64((i*37+r*11)%trials)/9) / 3
				if _, err := st.Put(Record{
					Unit: 0, RateIdx: r, TrialIdx: i,
					Rate: rate, Seed: u.Sweep.TrialSeed(r, i), Value: v,
				}); err != nil {
					t.Fatal(err)
				}
			}
		}
		exec := NewExecution(camp, st)
		points := exec.Table().Series[0].Points
		cells := exec.Status()[0].Cells
		if len(points) != len(cells) {
			t.Fatalf("%s: %d table points, %d status cells", agg, len(points), len(cells))
		}
		for r, c := range cells {
			xs := st.AppendCell(nil, 0, r, trials)
			if c.Done != trials || c.Total != trials {
				t.Errorf("%s cell %d: done %d of %d, want %d of %d", agg, r, c.Done, c.Total, trials, trials)
			}
			if got, want := float64(c.Mean), harness.Mean(xs); math.Float64bits(got) != math.Float64bits(want) {
				t.Errorf("%s cell %d: status mean %v, harness.Mean %v", agg, r, got, want)
			}
			if got, want := float64(c.Median), harness.Median(xs); math.Float64bits(got) != math.Float64bits(want) {
				t.Errorf("%s cell %d: status median %v, harness.Median %v", agg, r, got, want)
			}
			got := c.Mean
			if agg == "median" {
				got = c.Median
			}
			if math.Float64bits(float64(got)) != math.Float64bits(points[r].Value) {
				t.Errorf("%s cell %d: status %v, table point %v", agg, r, got, points[r].Value)
			}
		}
	}
}

// TestMidRunTableAlignsByRate: with two series at different completion
// stages, the mid-run table must print each value against its own rate.
// TableFromStore skips empty cells, so before rows were aligned by rate
// value a lagging series' results were paired with the wrong rates.
func TestMidRunTableAlignsByRate(t *testing.T) {
	spec := Spec{Figure: "6.1", Quick: true, Trials: 1, Seed: 2}
	camp, err := Compile(spec)
	if err != nil {
		t.Fatal(err)
	}
	if len(camp.Plan.Units) < 2 {
		t.Fatalf("figure 6.1 has %d units; test needs 2+", len(camp.Plan.Units))
	}
	st, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	rates := camp.Plan.Units[0].Sweep.Rates
	// Unit 0 complete; unit 1 holds only its last cell (an in-flight series
	// whose early cells raced ahead would look the same).
	for r, rate := range rates {
		if _, err := st.Put(Record{Unit: 0, RateIdx: r, TrialIdx: 0, Rate: rate, Value: 1}); err != nil {
			t.Fatal(err)
		}
	}
	last := len(rates) - 1
	if _, err := st.Put(Record{Unit: 1, RateIdx: last, TrialIdx: 0, Rate: rates[last], Value: 2}); err != nil {
		t.Fatal(err)
	}
	var csv bytes.Buffer
	if err := camp.TableFromStore(st).CSV(&csv); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimRight(csv.String(), "\n"), "\n")
	if len(lines) != len(rates)+1 {
		t.Fatalf("csv rows = %d, want %d:\n%s", len(lines), len(rates)+1, csv.String())
	}
	for i, line := range lines[1:] {
		cells := strings.Split(line, ",")
		got := cells[2]
		if i == last && got != "2" {
			t.Errorf("row %s: unit-1 value = %q, want 2 on its own rate's row", cells[0], got)
		}
		if i != last && got != "" {
			t.Errorf("row %s: unit-1 value = %q, want empty (cell has no data)", cells[0], got)
		}
	}
}

func TestCustomWorkloadCampaign(t *testing.T) {
	text, csv := runAll(t, Spec{
		Custom: &CustomSweep{Workload: "sort/robust", Rates: []float64{0.05}, Iters: 200},
		Trials: 2, Seed: 5,
	})
	if text == "" || csv == "" {
		t.Fatal("empty output")
	}
	// Same spec, fresh store: identical bytes.
	text2, csv2 := runAll(t, Spec{
		Custom: &CustomSweep{Workload: "sort/robust", Rates: []float64{0.05}, Iters: 200},
		Trials: 2, Seed: 5,
	})
	if text != text2 || csv != csv2 {
		t.Error("custom workload campaign is not deterministic")
	}
}

// TestRunStopsAtFirstStoreError: once the store cannot record, no later
// trial's result could be kept, so the sweep stops instead of computing
// the rest of the unit, and Run reports the store error, not a
// cancellation.
func TestRunStopsAtFirstStoreError(t *testing.T) {
	spec := quickSpec(0.01, 3, 1000)
	spec.Workers = 2
	camp, err := Compile(spec)
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	var calls atomic.Int64
	for i := range camp.Plan.Units {
		inner := camp.Plan.Units[i].Fn
		camp.Plan.Units[i].Fn = func(rate float64, seed uint64) float64 {
			calls.Add(1)
			return inner(rate, seed)
		}
	}
	st, err := Open(t.TempDir())
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	if err := st.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
	err = NewExecution(camp, st).Run(context.Background())
	if !errors.Is(err, os.ErrClosed) || errors.Is(err, context.Canceled) {
		t.Fatalf("Run = %v, want the store's ErrClosed", err)
	}
	if n := calls.Load(); n > int64(spec.Workers+1) {
		t.Errorf("trial function ran %d times after the store failed, want at most %d", n, spec.Workers+1)
	}
}

// TestRunShard: a shard outside the grid is an error and runs nothing;
// an in-grid shard runs each index in range and delivers it to the sink
// exactly once, except the indices the shard's Skip list (those in
// range) or the hooks' Skip bitset name, which neither run nor reach the
// sink.
func TestRunShard(t *testing.T) {
	var ran atomic.Int64
	fn := func(rate float64, seed uint64) float64 { ran.Add(1); return rate }
	camp := &Campaign{Plan: &figures.Plan{Units: []figures.Unit{
		{Series: "a", Sweep: harness.Sweep{Rates: []float64{0.1, 0.2}, Trials: 3, Seed: 1}, Fn: fn},
		{Series: "b", Sweep: harness.Sweep{Rates: []float64{0.3}, Trials: 4, Seed: 2}, Fn: fn},
	}}}
	for _, tc := range []struct {
		name    string
		shard   dispatch.Shard
		skip    []uint64 // the hooks' Skip bitset
		bad     bool
		skipped []int // indices in range that must not run; the rest of the range runs
	}{
		{name: "unit -1", shard: dispatch.Shard{Unit: -1, Count: 1}, bad: true},
		{name: "unit past the plan", shard: dispatch.Shard{Unit: 2, Count: 1}, bad: true},
		{name: "negative start", shard: dispatch.Shard{Unit: 0, Start: -1, Count: 2}, bad: true},
		{name: "negative count", shard: dispatch.Shard{Unit: 0, Start: 2, Count: -1}, bad: true},
		{name: "past the grid", shard: dispatch.Shard{Unit: 1, Start: 2, Count: 3}, bad: true},
		{name: "whole unit", shard: dispatch.Shard{Unit: 0, Count: 6}},
		{name: "empty", shard: dispatch.Shard{Unit: 0, Start: 6}},
		{name: "skips", shard: dispatch.Shard{Unit: 0, Start: 1, Count: 4, Skip: []int{0, 2, 4, 5}}, skipped: []int{2, 4}},
		{name: "durable set", shard: dispatch.Shard{Unit: 1, Count: 4}, skip: []uint64{0b1010}, skipped: []int{1, 3}},
		{name: "durable set and skips", shard: dispatch.Shard{Unit: 1, Start: 1, Count: 3, Skip: []int{2}}, skip: []uint64{0b1001}, skipped: []int{2, 3}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			ran.Store(0)
			var mu sync.Mutex
			seen := map[int]harness.Trial{}
			dups := 0
			err := camp.RunShard(context.Background(), tc.shard, 4, harness.Hooks{Skip: tc.skip, Sink: func(tr harness.Trial) {
				idx := tr.RateIdx*camp.Plan.Units[tc.shard.Unit].Sweep.PerCell() + tr.TrialIdx
				mu.Lock()
				if _, ok := seen[idx]; ok {
					dups++
				}
				seen[idx] = tr
				mu.Unlock()
			}})
			if tc.bad {
				if err == nil {
					t.Error("out-of-grid shard accepted")
				}
				if n := ran.Load(); n != 0 || len(seen) != 0 {
					t.Errorf("rejected shard ran %d trials, sank %d", n, len(seen))
				}
				return
			}
			if err != nil {
				t.Fatal(err)
			}
			want := tc.shard.Count - len(tc.skipped)
			if dups != 0 || len(seen) != want {
				t.Errorf("sink saw %d distinct indices (%d repeats), want %d", len(seen), dups, want)
			}
			for idx := range seen {
				if idx < tc.shard.Start || idx >= tc.shard.Start+tc.shard.Count {
					t.Errorf("index %d outside [%d,%d) reached the sink", idx, tc.shard.Start, tc.shard.Start+tc.shard.Count)
				}
				if slices.Contains(tc.skipped, idx) {
					t.Errorf("skipped index %d reached the sink", idx)
				}
			}
			if n := ran.Load(); n != int64(want) {
				t.Errorf("ran %d trials, want %d", n, want)
			}
		})
	}
}

func TestJSONFloatNaN(t *testing.T) {
	if b, err := JSONFloat(math.NaN()).MarshalJSON(); err != nil || string(b) != "null" {
		t.Errorf("NaN -> %s, %v; want null", b, err)
	}
	if b, err := JSONFloat(1.5).MarshalJSON(); err != nil || string(b) != "1.5" {
		t.Errorf("1.5 -> %s, %v", b, err)
	}
	if b, err := JSONFloat(math.Inf(1)).MarshalJSON(); err != nil || string(b) != "null" {
		t.Errorf("+Inf -> %s, %v; want null", b, err)
	}
}

// BenchmarkExecutionStatus measures a detailed status over 50,000
// recorded trials, the half-done campaign the resume benchmarks boot:
// four cells of 25,000 trials, each holding its first 12,500.
func BenchmarkExecutionStatus(b *testing.B) {
	const rates, trials = 4, 25_000
	camp, err := Compile(Spec{
		Custom: &CustomSweep{Workload: "sort/base", Rates: []float64{0.001, 0.01, 0.05, 0.1}},
		Trials: trials, Seed: 1,
	})
	if err != nil {
		b.Fatal(err)
	}
	st, err := camp.OpenStore(b.TempDir())
	if err != nil {
		b.Fatal(err)
	}
	defer st.Close()
	u := camp.Plan.Units[0]
	for r := range rates {
		for i := range trials / 2 {
			if _, err := st.Put(Record{
				Unit: 0, RateIdx: r, TrialIdx: i, Rate: u.Sweep.Rates[r],
				Seed: u.Sweep.TrialSeed(r, i), Value: math.Exp(float64(i*37%997) / 97),
			}); err != nil {
				b.Fatal(err)
			}
		}
	}
	exec := NewExecution(camp, st)
	b.ReportAllocs()
	for b.Loop() {
		exec.Status()
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(rates*trials/2), "ns/record")
}

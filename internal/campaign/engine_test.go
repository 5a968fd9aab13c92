package campaign

import (
	"bytes"
	"context"
	"errors"
	"math"
	"os"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

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
	if err := figures.Lookup("6.6")(cfg).Render(&want); err != nil {
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
// trial's result could be kept, so the run stops instead of computing
// the rest of the grid, and Run reports the store error, not a
// cancellation. A lease is merged while the next one runs, so the first
// failed merge is seen after the second lease: two leases of 16 trials
// (the lease table's floor, since a failed lease reports no rate) are
// all that run.
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
	if n := calls.Load(); n > 32 {
		t.Errorf("trial function ran %d times after the store failed, want at most two leases' 32", n)
	}
}

// TestRunAfterFailedMergeStartsClean: a run that a failed merge ends
// leaves its last lease's trials undelivered in its source, and the
// next run, which reuses the source, must not merge them into its own
// store: a run cancelled inside its second lease, which runs in the slot
// the failed run left full, holds only the trials it computed.
func TestRunAfterFailedMergeStartsClean(t *testing.T) {
	for len(spareLocals) > 0 { // leave one spare source: the one under test
		<-spareLocals
	}
	camp, _ := countedCampaign(t, func(int64) {})
	closed, err := Open(t.TempDir())
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	closed.Close()
	if err := NewExecution(camp, closed).Run(context.Background()); !errors.Is(err, os.ErrClosed) {
		t.Fatalf("Run = %v, want the store's ErrClosed", err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	camp, calls := countedCampaign(t, func(n int64) {
		if n == 20 {
			cancel()
		}
	})
	st, err := Open(t.TempDir())
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	defer st.Close()
	if err := NewExecution(camp, st).Run(ctx); !errors.Is(err, context.Canceled) {
		t.Fatalf("Run = %v, want a cancellation", err)
	}
	if done, n := st.Done(camp.Plan), calls.Load(); int64(done) != n {
		t.Errorf("store holds %d trials, want the %d this run computed", done, n)
	}
}

// TestRunDoneAfterLateCancel: a cancel that lands after the last trial
// has run still leaves every trial durable once the leases are merged,
// and Run reports the campaign finished (nil), not cancelled, so the
// manager records it done rather than interrupted.
func TestRunDoneAfterLateCancel(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var camp *Campaign
	camp, _ = countedCampaign(t, func(n int64) {
		if n == int64(camp.Total()) {
			cancel()
		}
	})
	st, err := Open(t.TempDir())
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	defer st.Close()
	if err := NewExecution(camp, st).Run(ctx); err != nil {
		t.Fatalf("Run = %v, want nil: every trial ran", err)
	}
	if ctx.Err() == nil {
		t.Fatal("the last trial did not cancel the run")
	}
	if done := st.Done(camp.Plan); done != camp.Total() {
		t.Errorf("store holds %d trials, want all %d", done, camp.Total())
	}
}

// watchedSource is Run's lease source with a hook that runs on the
// delivery goroutine before each delivery (numbered from 1), and a
// check that no delivery is running, or runs on, once Consume returns.
type watchedSource struct {
	*local
	t        *testing.T
	before   func(n int) error
	n        atomic.Int32
	active   atomic.Int32
	returned atomic.Bool
}

func (w *watchedSource) Deliver(ctx context.Context, s int) error {
	w.active.Add(1)
	defer w.active.Add(-1)
	if err := w.before(int(w.n.Add(1))); err != nil {
		return err
	}
	err := w.local.Deliver(ctx, s)
	if w.returned.Load() {
		w.t.Error("a delivery ran on after Consume returned")
	}
	return err
}

// consume runs e's leases through the watched source, as Run does.
func (w *watchedSource) consume(ctx context.Context, e *Execution) error {
	w.local = e.local(0)
	defer w.local.release()
	err := dispatch.Consume(ctx, w)
	w.returned.Store(true)
	if w.active.Load() != 0 {
		w.t.Error("Consume returned with a delivery running")
	}
	return err
}

// countedCampaign compiles a 1,000-trial sort/base campaign whose trial
// function counts its calls and calls at(n) after the n-th.
func countedCampaign(t *testing.T, at func(n int64)) (*Campaign, *atomic.Int64) {
	t.Helper()
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
			v := inner(rate, seed)
			at(calls.Add(1))
			return v
		}
	}
	return camp, &calls
}

// TestCancelMergesPartialLease: a cancel that lands while one lease is
// being merged and the next one runs stops the running lease's trials,
// and both leases are merged before Run returns, so a cancel drops no
// computed trial: the store holds exactly as many trials as the trial
// function completed. The first lease's merge is held until the cancel,
// so the second lease is the table's floor of 16 trials too, and the
// cancel lands inside it: a trial finishing after the 20th waits for the
// cancel, so the other trial goroutine cannot finish the lease while the
// 20th trial's goroutine is descheduled before cancelling.
func TestCancelMergesPartialLease(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	gate := make(chan struct{})
	camp, calls := countedCampaign(t, func(n int64) {
		switch {
		case n == 20:
			cancel()
			close(gate)
		case n > 20:
			<-gate
		}
	})
	st, err := Open(t.TempDir())
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	defer st.Close()
	w := &watchedSource{t: t, before: func(n int) error {
		if n == 1 {
			<-gate
		}
		return nil
	}}
	if err := w.consume(ctx, NewExecution(camp, st)); !errors.Is(err, context.Canceled) {
		t.Fatalf("Consume = %v, want a cancellation", err)
	}
	n := calls.Load()
	if n < 20 || n >= 32 {
		t.Fatalf("%d trials ran; want the cancel inside the second lease", n)
	}
	if got := w.n.Load(); got != 2 {
		t.Errorf("%d deliveries, want both leases'", got)
	}
	if done := st.Done(camp.Plan); int64(done) != n {
		t.Errorf("store holds %d trials, want the %d the trial function completed", done, n)
	}
}

// TestConsumeJoinsDelivery: however a run ends, by a failed delivery, a
// cancel or a store closed under it, no delivery runs once Consume has
// returned. Each delivery first sleeps a little, so a delivery left
// running would show.
func TestConsumeJoinsDelivery(t *testing.T) {
	errDeliver := errors.New("delivery failed")
	for _, tc := range []struct {
		name   string
		cancel int64 // trial after which ctx is cancelled, 0 = never
		fail   int   // delivery that fails, 0 = none
		close  int   // delivery before which the store is closed, 0 = none
		want   error
	}{
		{name: "delivery error", fail: 2, want: errDeliver},
		{name: "cancel", cancel: 20, want: context.Canceled},
		{name: "store close", close: 2, want: os.ErrClosed},
	} {
		t.Run(tc.name, func(t *testing.T) {
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			camp, _ := countedCampaign(t, func(n int64) {
				if n == tc.cancel {
					cancel()
				}
			})
			st, err := Open(t.TempDir())
			if err != nil {
				t.Fatalf("open: %v", err)
			}
			defer st.Close()
			w := &watchedSource{t: t, before: func(n int) error {
				time.Sleep(time.Millisecond)
				switch n {
				case tc.fail:
					return errDeliver
				case tc.close:
					return st.Close()
				}
				return nil
			}}
			if err := w.consume(ctx, NewExecution(camp, st)); !errors.Is(err, tc.want) {
				t.Fatalf("Consume = %v, want %v", err, tc.want)
			}
		})
	}
}

// TestRunShard: a shard outside the grid is an error and runs nothing;
// an in-grid shard runs each index in range and delivers it to the sink
// exactly once.
func TestRunShard(t *testing.T) {
	var ran atomic.Int64
	fn := func(rate float64, seed uint64) float64 { ran.Add(1); return rate }
	camp := &Campaign{Plan: &figures.Plan{Units: []figures.Unit{
		{Series: "a", Sweep: harness.Sweep{Rates: []float64{0.1, 0.2}, Trials: 3, Seed: 1}, Fn: fn},
		{Series: "b", Sweep: harness.Sweep{Rates: []float64{0.3}, Trials: 4, Seed: 2}, Fn: fn},
	}}}
	for _, tc := range []struct {
		name  string
		shard dispatch.Shard
		bad   bool
	}{
		{name: "unit -1", shard: dispatch.Shard{Unit: -1, Count: 1}, bad: true},
		{name: "unit past the plan", shard: dispatch.Shard{Unit: 2, Count: 1}, bad: true},
		{name: "negative start", shard: dispatch.Shard{Unit: 0, Start: -1, Count: 2}, bad: true},
		{name: "negative count", shard: dispatch.Shard{Unit: 0, Start: 2, Count: -1}, bad: true},
		{name: "past the grid", shard: dispatch.Shard{Unit: 1, Start: 2, Count: 3}, bad: true},
		{name: "whole unit", shard: dispatch.Shard{Unit: 0, Count: 6}},
		{name: "empty", shard: dispatch.Shard{Unit: 0, Start: 6}},
		{name: "across a cell", shard: dispatch.Shard{Unit: 0, Start: 1, Count: 4}},
		{name: "second unit", shard: dispatch.Shard{Unit: 1, Start: 1, Count: 3}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			ran.Store(0)
			var mu sync.Mutex
			seen := map[int]harness.Trial{}
			dups := 0
			err := camp.RunShard(context.Background(), tc.shard, 4, func(tr harness.Trial) {
				idx := tr.RateIdx*camp.Plan.Units[tc.shard.Unit].Sweep.PerCell() + tr.TrialIdx
				mu.Lock()
				if _, ok := seen[idx]; ok {
					dups++
				}
				seen[idx] = tr
				mu.Unlock()
			})
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
			want := tc.shard.Count
			if dups != 0 || len(seen) != want {
				t.Errorf("sink saw %d distinct indices (%d repeats), want %d", len(seen), dups, want)
			}
			for idx := range seen {
				if idx < tc.shard.Start || idx >= tc.shard.Start+tc.shard.Count {
					t.Errorf("index %d outside [%d,%d) reached the sink", idx, tc.shard.Start, tc.shard.Start+tc.shard.Count)
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

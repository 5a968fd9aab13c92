package campaign

import (
	"bytes"
	"context"
	"errors"
	"os"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"

	"robustify/internal/figures"
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
	done := partial.Count()
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
		if err := st.Append(Record{
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
		if err := st.Append(Record{Unit: 0, RateIdx: r, TrialIdx: 0, Rate: rate, Value: 1}); err != nil {
			t.Fatal(err)
		}
	}
	last := len(rates) - 1
	if err := st.Append(Record{Unit: 1, RateIdx: last, TrialIdx: 0, Rate: rates[last], Value: 2}); err != nil {
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

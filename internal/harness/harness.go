// Package harness runs fault-rate sweep experiments — the scaffolding
// behind every figure of the paper's evaluation — and renders results as
// aligned text tables or CSV.
//
// A Sweep executes independent seeded trials for every (series, fault-rate)
// cell in parallel, one fpu.Unit per trial, and aggregates per-cell metric
// values by mean. Seeds are derived deterministically from the sweep seed,
// so any run is exactly reproducible.
package harness

import (
	"context"
	"encoding/csv"
	"fmt"
	"io"
	"math"
	"runtime"
	"slices"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Point is one measured cell: a fault rate (faults per FLOP) and the
// aggregated metric value. RateIdx is the cell's position in its sweep
// grid; it is what keeps two cells sharing a rate value (before/after
// ablation pairs) distinct when tables align rows mid-run.
type Point struct {
	Rate    float64
	RateIdx int
	Value   float64
}

// Series is a named curve of points, one per fault rate.
type Series struct {
	Name   string
	Points []Point
}

// Table is a rendered experiment: several series over a shared x-axis.
type Table struct {
	Title  string
	XLabel string
	YLabel string
	Series []Series
	Notes  []string
}

// TrialFunc runs one trial at the given fault rate with the given seed and
// returns the metric value (e.g. 1/0 for success, or a relative error).
type TrialFunc func(rate float64, seed uint64) float64

// Sweep describes a fault-rate sweep.
type Sweep struct {
	// Rates are the fault rates (faults per FLOP, not percent).
	Rates []float64
	// Trials is the number of independent trials per cell.
	Trials int
	// Seed derives every trial's seed; same seed, same results.
	Seed uint64
	// Workers bounds parallelism (default: GOMAXPROCS).
	Workers int
}

// TrialSeed returns the deterministic seed for a cell trial. It is
// exported so single trials can be replayed outside a sweep.
func (s Sweep) TrialSeed(rateIdx, trial int) uint64 {
	z := s.Seed + uint64(rateIdx)*0x9E3779B97F4A7C15 + uint64(trial)*0xBF58476D1CE4E5B9 + 1
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return z ^ (z >> 31)
}

// Run executes fn over the full rate×trial grid and returns the mean metric
// per rate.
func (s Sweep) Run(fn TrialFunc) []Point {
	points, _ := s.RunHooked(context.Background(), fn, Mean)
	return points
}

// PerCell is the number of trials per (rate) cell: Trials, or 1 when
// Trials ≤ 0. It is the one rule that linearizes the grid — Size,
// RunRange, and the dispatch shards a campaign hands to workers all
// derive (rate, trial) coordinates from it, so a private copy anywhere
// would shift every coordinate.
func (s Sweep) PerCell() int {
	if s.Trials <= 0 {
		return 1
	}
	return s.Trials
}

// Size is the number of trials in the full rate×trial grid.
func (s Sweep) Size() int { return len(s.Rates) * s.PerCell() }

// Trial is one grid-cell execution and its outcome, as delivered to a
// Hooks.Sink.
type Trial struct {
	// RateIdx and TrialIdx locate the cell in the sweep grid; together
	// with the sweep seed they form the trial's identity.
	RateIdx  int
	TrialIdx int
	// Rate and Seed are the inputs the trial function saw.
	Rate float64
	Seed uint64
	// Value is the trial's metric value.
	Value float64
	// Dur is the wall time of the trial function call.
	Dur time.Duration
}

// Aggregator folds one cell's trial values into the cell's point value.
type Aggregator func([]float64) float64

// AggregatorByName resolves "mean" or "median" ("" defaults to mean).
func AggregatorByName(name string) (Aggregator, error) {
	switch name {
	case "", "mean":
		return Mean, nil
	case "median":
		return Median, nil
	default:
		return nil, fmt.Errorf("harness: unknown aggregator %q", name)
	}
}

// Hooks customize a grid run with a durable set to skip and a trial
// sink. Sink may be invoked concurrently from worker goroutines, which
// all read Skip, so Skip must not change during the run.
type Hooks struct {
	// Skip is a bitset over the sweep's linear grid: bit i of word i>>6
	// is index i = rateIdx*PerCell() + trialIdx. A set bit marks a trial
	// that is already durable (the basis of resume): it neither runs nor
	// reaches Sink. Indices past the bitset's end are not skipped.
	Skip []uint64
	// Sink, if non-nil, receives every executed trial's outcome.
	//
	// Contract: Sink runs on the same goroutine that executed the
	// trial, synchronously after it. Fault-recorder collection, which
	// claims the recorders a trial's units filled on that goroutine,
	// relies on this ordering; it is pinned by
	// TestSinkRunsOnTrialGoroutine.
	Sink func(Trial)
}

// RunHooked runs the full rate×trial grid through RunRange, keyed by
// rate index so duplicate or repeated rates aggregate into their own
// cells, and folds each cell's trials with agg. Cancelling ctx abandons
// unstarted trials and returns ctx.Err().
func (s Sweep) RunHooked(ctx context.Context, fn TrialFunc, agg Aggregator) ([]Point, error) {
	if agg == nil {
		agg = Mean
	}
	per := s.PerCell()
	values := make([]float64, s.Size())
	sink := func(t Trial) { values[t.RateIdx*per+t.TrialIdx] = t.Value }
	if err := s.RunRange(ctx, fn, 0, len(values), Hooks{Sink: sink}); err != nil {
		return nil, err
	}
	points := make([]Point, len(s.Rates))
	for r, rate := range s.Rates {
		points[r] = Point{Rate: rate, RateIdx: r, Value: agg(values[r*per : (r+1)*per : (r+1)*per])}
	}
	return points, nil
}

// RunRange is the trial loop: it runs the linear grid indices
// [start, start+count) — index = rateIdx*PerCell() + trialIdx, which
// must lie inside [0, Size()) — on up to Workers goroutines, each index
// exactly once. An index whose h.Skip bit is set is passed over; every
// other trial is executed and then handed to the sink on the same
// goroutine. Cancelling ctx abandons unstarted trials and returns
// ctx.Err().
func (s Sweep) RunRange(ctx context.Context, fn TrialFunc, start, count int, h Hooks) error {
	per := s.PerCell()
	workers := s.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	workers = min(workers, count)
	done := ctx.Done()
	var next atomic.Int64 // offset of the next unclaimed index
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= count {
					return
				}
				select {
				case <-done:
					return
				default:
				}
				idx := start + i
				if w := idx >> 6; w < len(h.Skip) && h.Skip[w]&(1<<(idx&63)) != 0 {
					continue
				}
				t := Trial{RateIdx: idx / per, TrialIdx: idx % per}
				t.Rate = s.Rates[t.RateIdx]
				t.Seed = s.TrialSeed(t.RateIdx, t.TrialIdx)
				began := time.Now()
				t.Value = fn(t.Rate, t.Seed)
				t.Dur = time.Since(began)
				if h.Sink != nil {
					h.Sink(t)
				}
			}
		}()
	}
	wg.Wait()
	return ctx.Err()
}

// CapErr clamps error metrics so one diverged trial cannot swamp a mean
// or push a table off the plottable range: NaN and huge values saturate
// at 1e6. Figure builders and workload trial functions share this
// convention, so figures and campaign objectives never drift apart.
func CapErr(v float64) float64 {
	if v != v || v > 1e6 {
		return 1e6
	}
	return v
}

// Mean is the default cell aggregator.
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// Median aggregates a cell by its median, robust to catastrophic
// outliers: the middle value of xs in sorted order, or the mean of the
// two middle values. xs is not modified.
func Median(xs []float64) float64 { return MedianInPlace(append([]float64(nil), xs...)) }

// MedianInPlace is Median without the copy: it reorders xs so that no
// value before xs[n/2] is larger and none after it smaller. The middle
// values are found by selection, in O(len(xs)), unless xs holds a NaN or
// a -0, which compare unlike their bits (-0 == 0); xs is then sorted, so
// the result is always the one sorted order gives, bit for bit.
func MedianInPlace(xs []float64) float64 {
	n := len(xs)
	if n == 0 {
		return math.NaN()
	}
	if slices.ContainsFunc(xs, func(x float64) bool { return x != x || x == 0 && math.Signbit(x) }) {
		sort.Float64s(xs)
	} else {
		nth(xs, n/2)
		if j := n/2 - 1; n%2 == 0 {
			// The lower middle is the largest value of the lower half.
			for i := range j {
				if xs[i] > xs[j] {
					xs[i], xs[j] = xs[j], xs[i]
				}
			}
		}
	}
	if n%2 == 1 {
		return xs[n/2]
	}
	return 0.5 * (xs[n/2-1] + xs[n/2])
}

// nth reorders xs, which holds no NaN, so that xs[k] is the value a sort
// would put there, with none larger before it and none smaller after it.
// It is quickselect with a three-way partition, so each run of equal
// values (trial outcomes are often 0 or 1) costs one pass; after 64
// rounds it sorts what is left.
func nth(xs []float64, k int) {
	lo, hi := 0, len(xs)
	for round := 0; hi-lo > 1; round++ {
		if round == 64 {
			slices.Sort(xs[lo:hi])
			return
		}
		// Partition around the median of three, p, into [lo,lt) < p,
		// [lt,gt) == p and [gt,hi) > p.
		a, b, c := xs[lo], xs[lo+(hi-lo)/2], xs[hi-1]
		p := max(min(a, b), min(max(a, b), c))
		lt, i, gt := lo, lo, hi
		for i < gt {
			switch x := xs[i]; {
			case x < p:
				xs[lt], xs[i] = x, xs[lt]
				lt, i = lt+1, i+1
			case x > p:
				gt--
				xs[gt], xs[i] = x, xs[gt]
			default:
				i++
			}
		}
		switch {
		case k < lt:
			hi = lt
		case k >= gt:
			lo = gt
		default:
			return
		}
	}
}

// Render writes the table as aligned text: one row per fault rate, one
// column per series.
func (t *Table) Render(w io.Writer) error {
	if _, err := fmt.Fprintf(w, "%s\n", t.Title); err != nil {
		return err
	}
	if t.YLabel != "" {
		if _, err := fmt.Fprintf(w, "y: %s\n", t.YLabel); err != nil {
			return err
		}
	}
	header := make([]string, 0, len(t.Series)+1)
	x := t.XLabel
	if x == "" {
		x = "fault rate (%FLOPs)"
	}
	header = append(header, x)
	for _, s := range t.Series {
		header = append(header, s.Name)
	}
	rows := [][]string{header}
	xs := t.xCells()
	next := make([]int, len(t.Series))
	for i := range xs {
		row := make([]string, 0, len(header))
		row = append(row, formatRate(xs[i].rate))
		for si, s := range t.Series {
			if v, ok := seriesCell(s, next, si, xs[i]); ok {
				row = append(row, formatValue(v))
			} else {
				row = append(row, "-")
			}
		}
		rows = append(rows, row)
	}
	widths := make([]int, len(header))
	for _, row := range rows {
		for c, cell := range row {
			if len(cell) > widths[c] {
				widths[c] = len(cell)
			}
		}
	}
	for _, row := range rows {
		cells := make([]string, len(row))
		for c, cell := range row {
			cells[c] = fmt.Sprintf("%*s", widths[c], cell)
		}
		if _, err := fmt.Fprintln(w, strings.Join(cells, "  ")); err != nil {
			return err
		}
	}
	for _, n := range t.Notes {
		if _, err := fmt.Fprintf(w, "note: %s\n", n); err != nil {
			return err
		}
	}
	_, err := fmt.Fprintln(w)
	return err
}

// CSV writes the table as comma-separated values with a header row. Rows
// go through encoding/csv, so series names containing quotes or newlines
// come out properly quoted instead of tearing the row; commas in names
// are still replaced by ";" first (the historical, pinned behavior), so
// benign names render byte-identically to earlier versions.
func (t *Table) CSV(w io.Writer) error {
	cw := csv.NewWriter(w)
	cols := []string{"rate"}
	for _, s := range t.Series {
		cols = append(cols, strings.ReplaceAll(s.Name, ",", ";"))
	}
	if err := cw.Write(cols); err != nil {
		return err
	}
	xs := t.xCells()
	next := make([]int, len(t.Series))
	for _, x := range xs {
		row := []string{fmt.Sprintf("%g", x.rate)}
		for si, s := range t.Series {
			if v, ok := seriesCell(s, next, si, x); ok {
				row = append(row, fmt.Sprintf("%g", v))
			} else {
				row = append(row, "")
			}
		}
		if err := cw.Write(row); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}

// xCell identifies one table row: a rate value plus its grid index. Two
// cells are the same row only when both match — sharing a rate value is
// not enough, duplicate-rate grids have distinct cells per index.
// Hand-assembled tables that never set RateIdx (all zero) degrade to the
// historical rate-value matching, since their indices compare equal.
type xCell struct {
	rate float64
	idx  int
}

// xCells returns the table's x axis: the order-preserving union of every
// series' cells. Each series' points are (a subsequence of) the sweep
// grid in grid order, so merging keeps grid order, and a series that is
// only partially complete still gets its values printed against its own
// cells instead of being index-paired with another series' grid.
func (t *Table) xCells() []xCell {
	var xs []xCell
	for _, s := range t.Series {
		xs = mergeCells(xs, s.Points)
	}
	return xs
}

// mergeCells folds the points' cells into xs, preserving the relative
// order of both sequences (an order-preserving union of two subsequences
// of a common grid).
func mergeCells(xs []xCell, pts []Point) []xCell {
	out := make([]xCell, 0, len(xs))
	i := 0
	for _, p := range pts {
		c := xCell{rate: p.Rate, idx: p.RateIdx}
		at := -1
		for k := i; k < len(xs); k++ {
			if xs[k] == c {
				at = k
				break
			}
		}
		if at >= 0 {
			out = append(out, xs[i:at+1]...)
			i = at + 1
		} else {
			out = append(out, c)
		}
	}
	return append(out, xs[i:]...)
}

// seriesCell returns s's value for the row at cell x, advancing the
// series' cursor next[si] past consumed points. Points match rows by
// cell identity (rate value and rate index), so a mid-run series holding
// only the later of two equal-rate cells prints it on its own row, not
// the first row whose rate value happens to match.
func seriesCell(s Series, next []int, si int, x xCell) (float64, bool) {
	if n := next[si]; n < len(s.Points) && s.Points[n].Rate == x.rate && s.Points[n].RateIdx == x.idx {
		next[si] = n + 1
		return s.Points[n].Value, true
	}
	return 0, false
}

func formatRate(r float64) string {
	return fmt.Sprintf("%g", r)
}

func formatValue(v float64) string {
	switch {
	case math.IsNaN(v):
		return "nan"
	case v != 0 && (math.Abs(v) < 1e-3 || math.Abs(v) >= 1e5):
		return fmt.Sprintf("%.3e", v)
	default:
		return fmt.Sprintf("%.4g", v)
	}
}

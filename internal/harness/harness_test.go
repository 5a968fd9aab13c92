package harness

import (
	"bytes"
	"context"
	"encoding/csv"
	"math"
	"math/rand"
	"sort"
	"strings"
	"sync"
	"testing"
)

func TestSweepDeterministicSeeds(t *testing.T) {
	s := Sweep{Rates: []float64{0.1, 0.2}, Trials: 3, Seed: 7}
	if s.TrialSeed(0, 0) == s.TrialSeed(0, 1) {
		t.Error("trial seeds collide")
	}
	if s.TrialSeed(0, 0) == s.TrialSeed(1, 0) {
		t.Error("rate seeds collide")
	}
	s2 := Sweep{Rates: s.Rates, Trials: 3, Seed: 7}
	if s.TrialSeed(1, 2) != s2.TrialSeed(1, 2) {
		t.Error("seeds not reproducible")
	}
}

func TestSweepRunAggregatesMean(t *testing.T) {
	s := Sweep{Rates: []float64{0, 1}, Trials: 4, Seed: 1}
	var mu sync.Mutex
	calls := map[float64]int{}
	pts := s.Run(func(rate float64, seed uint64) float64 {
		mu.Lock()
		calls[rate]++
		n := calls[rate]
		mu.Unlock()
		return rate*100 + float64(n%2) // mean = rate*100 + 0.5
	})
	if len(pts) != 2 {
		t.Fatalf("points = %d", len(pts))
	}
	for i, want := range []float64{0.5, 100.5} {
		if math.Abs(pts[i].Value-want) > 1e-12 {
			t.Errorf("point %d = %v, want %v", i, pts[i].Value, want)
		}
	}
	if calls[0] != 4 || calls[1] != 4 {
		t.Errorf("trials per rate = %v", calls)
	}
}

func TestSweepRunMedianRobustToOutliers(t *testing.T) {
	s := Sweep{Rates: []float64{0}, Trials: 5, Seed: 2}
	var mu sync.Mutex
	n := 0
	pts, _ := s.RunHooked(context.Background(), func(rate float64, seed uint64) float64 {
		mu.Lock()
		defer mu.Unlock()
		n++
		if n == 1 {
			return 1e30 // outlier must not dominate
		}
		return 1
	}, Median)
	if pts[0].Value != 1 {
		t.Errorf("median = %v, want 1", pts[0].Value)
	}
}

func TestSweepRunMedianDuplicateRates(t *testing.T) {
	// Duplicate rates are distinct cells (e.g. before/after ablation pairs
	// sharing an x value): values keyed by rate instead of rate index
	// would all land in the first cell.
	s := Sweep{Rates: []float64{0.1, 0.1}, Trials: 3, Seed: 4}
	pts, _ := s.RunHooked(context.Background(), func(rate float64, seed uint64) float64 {
		// TrialSeed derives distinct seeds per rate index; recover which
		// cell we are in from the seed so the two cells return different
		// medians.
		for trial := 0; trial < 3; trial++ {
			if seed == s.TrialSeed(1, trial) {
				return 7
			}
		}
		return 3
	}, Median)
	if pts[0].Value != 3 || pts[1].Value != 7 {
		t.Errorf("duplicate-rate medians = %v, %v; want 3, 7 (mis-bucketed by float match?)",
			pts[0].Value, pts[1].Value)
	}
}

func TestSweepParallelSafety(t *testing.T) {
	s := Sweep{Rates: []float64{0, 1, 2, 3}, Trials: 50, Seed: 3, Workers: 8}
	pts := s.Run(func(rate float64, seed uint64) float64 { return rate })
	for i, r := range s.Rates {
		if pts[i].Value != r {
			t.Errorf("rate %v: value %v", r, pts[i].Value)
		}
	}
}

func TestTableRender(t *testing.T) {
	tab := &Table{
		Title:  "Fig X",
		YLabel: "success",
		Series: []Series{
			{Name: "Base", Points: []Point{{Rate: 0.01, Value: 1}, {Rate: 0.1, Value: 0.5}}},
			{Name: "SGD", Points: []Point{{Rate: 0.01, Value: 1}, {Rate: 0.1, Value: 0.9}}},
		},
		Notes: []string{"hello"},
	}
	var buf bytes.Buffer
	if err := tab.Render(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"Fig X", "Base", "SGD", "0.01", "0.9", "note: hello"} {
		if !strings.Contains(out, want) {
			t.Errorf("render missing %q in:\n%s", want, out)
		}
	}
}

func TestTableCSV(t *testing.T) {
	tab := &Table{
		Series: []Series{
			{Name: "A,B", Points: []Point{{Rate: 0.5, Value: 2}}},
		},
	}
	var buf bytes.Buffer
	if err := tab.CSV(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "rate,A;B") {
		t.Errorf("csv header wrong: %s", out)
	}
	if !strings.Contains(out, "0.5,2") {
		t.Errorf("csv row wrong: %s", out)
	}
}

func TestFormatValue(t *testing.T) {
	if got := formatValue(math.NaN()); got != "nan" {
		t.Errorf("NaN = %q", got)
	}
	if got := formatValue(1e-9); !strings.Contains(got, "e") {
		t.Errorf("tiny value should use scientific: %q", got)
	}
	if got := formatValue(0.5); got != "0.5" {
		t.Errorf("0.5 = %q", got)
	}
}

func TestTableRaggedSeries(t *testing.T) {
	tab := &Table{
		Series: []Series{
			{Name: "long", Points: []Point{{Rate: 1, Value: 1}, {Rate: 2, Value: 2}}},
			{Name: "short", Points: []Point{{Rate: 1, Value: 9}}},
		},
	}
	var buf bytes.Buffer
	if err := tab.Render(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "-") {
		t.Error("missing cell placeholder not rendered")
	}
	buf.Reset()
	if err := tab.CSV(&buf); err != nil {
		t.Fatal(err)
	}
}

// TestTableAlignsRowsByRate pins mid-run alignment: a partially complete
// series (its points are a subsequence of the grid, gaps skipped) must
// print each value on the row of its own rate. Index pairing against the
// longest series would put B's 0.5 value on the 0.2 row.
func TestTableAlignsRowsByRate(t *testing.T) {
	tab := &Table{
		Title: "mid-run",
		Series: []Series{
			{Name: "A", Points: []Point{{Rate: 0.1, Value: 1}, {Rate: 0.2, Value: 2}, {Rate: 0.5, Value: 3}}},
			{Name: "B", Points: []Point{{Rate: 0.1, Value: 10}, {Rate: 0.5, Value: 30}}},
		},
	}
	var buf bytes.Buffer
	if err := tab.CSV(&buf); err != nil {
		t.Fatal(err)
	}
	want := "rate,A,B\n0.1,1,10\n0.2,2,\n0.5,3,30\n"
	if buf.String() != want {
		t.Errorf("csv rows misaligned:\n--- want ---\n%s--- got ---\n%s", want, buf.String())
	}

	buf.Reset()
	if err := tab.Render(&buf); err != nil {
		t.Fatal(err)
	}
	for _, line := range strings.Split(buf.String(), "\n") {
		f := strings.Fields(line)
		if len(f) == 3 && f[0] == "0.2" && f[2] != "-" {
			t.Errorf("render pairs B's value against the wrong rate: %q", line)
		}
		if len(f) == 3 && f[0] == "0.5" && f[2] != "30" {
			t.Errorf("render row 0.5 = %q, want B=30", line)
		}
	}
}

// TestTableAlignsSparseLeadingGap covers a series whose first cells are
// still empty: its only point must land on the matching rate row, not on
// row one.
func TestTableAlignsSparseLeadingGap(t *testing.T) {
	tab := &Table{
		Series: []Series{
			{Name: "full", Points: []Point{{Rate: 1, Value: 1}, {Rate: 2, Value: 2}, {Rate: 4, Value: 3}}},
			{Name: "tail", Points: []Point{{Rate: 4, Value: 99}}},
		},
	}
	var buf bytes.Buffer
	if err := tab.CSV(&buf); err != nil {
		t.Fatal(err)
	}
	want := "rate,full,tail\n1,1,\n2,2,\n4,3,99\n"
	if buf.String() != want {
		t.Errorf("leading-gap alignment:\n--- want ---\n%s--- got ---\n%s", want, buf.String())
	}
}

// TestTableMidRunDuplicateRateAlignsByCell pins the cell-identity fix: a
// mid-run series holding only the LATER of two equal-rate cells must
// print it on the later row (matched by RateIdx), not on the first row
// whose rate value happens to match.
func TestTableMidRunDuplicateRateAlignsByCell(t *testing.T) {
	tab := &Table{
		Series: []Series{
			{Name: "A", Points: []Point{
				{Rate: 0.1, RateIdx: 0, Value: 1},
				{Rate: 0.1, RateIdx: 1, Value: 2},
			}},
			// B's first cell has not completed yet; only the second
			// duplicate-rate cell holds a value.
			{Name: "B", Points: []Point{
				{Rate: 0.1, RateIdx: 1, Value: 9},
			}},
		},
	}
	var buf bytes.Buffer
	if err := tab.CSV(&buf); err != nil {
		t.Fatal(err)
	}
	want := "rate,A,B\n0.1,1,\n0.1,2,9\n"
	if buf.String() != want {
		t.Errorf("mid-run duplicate-rate cell misaligned:\n--- want ---\n%s--- got ---\n%s", want, buf.String())
	}

	buf.Reset()
	if err := tab.Render(&buf); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	// Header + two data rows; B's value must sit on the second data row.
	if len(lines) < 3 {
		t.Fatalf("render rows: %q", lines)
	}
	if f := strings.Fields(lines[1]); len(f) != 3 || f[2] != "-" {
		t.Errorf("render first duplicate-rate row = %q, want B empty", lines[1])
	}
	if f := strings.Fields(lines[2]); len(f) != 3 || f[2] != "9" {
		t.Errorf("render second duplicate-rate row = %q, want B=9", lines[2])
	}
}

// TestTableCSVQuotedNames: series names containing quotes or newlines
// must come out as valid, properly quoted CSV instead of tearing the
// header row.
func TestTableCSVQuotedNames(t *testing.T) {
	tab := &Table{
		Series: []Series{
			{Name: "say \"hi\"", Points: []Point{{Rate: 1, Value: 2}}},
			{Name: "two\nlines", Points: []Point{{Rate: 1, Value: 3}}},
		},
	}
	var buf bytes.Buffer
	if err := tab.CSV(&buf); err != nil {
		t.Fatal(err)
	}
	r := csv.NewReader(&buf)
	rows, err := r.ReadAll()
	if err != nil {
		t.Fatalf("output is not valid CSV: %v", err)
	}
	if len(rows) != 2 || len(rows[0]) != 3 {
		t.Fatalf("rows = %v", rows)
	}
	if rows[0][1] != "say \"hi\"" || rows[0][2] != "two\nlines" {
		t.Errorf("header round-trip = %q", rows[0])
	}
	if rows[1][1] != "2" || rows[1][2] != "3" {
		t.Errorf("data row = %q", rows[1])
	}
}

// TestTableDuplicateRates: duplicate rates are distinct cells (e.g.
// before/after pairs sharing an x value); each must keep its own row.
func TestTableDuplicateRates(t *testing.T) {
	tab := &Table{
		Series: []Series{
			{Name: "A", Points: []Point{{Rate: 0.1, Value: 1}, {Rate: 0.1, Value: 2}}},
			{Name: "B", Points: []Point{{Rate: 0.1, Value: 3}, {Rate: 0.1, Value: 4}}},
		},
	}
	var buf bytes.Buffer
	if err := tab.CSV(&buf); err != nil {
		t.Fatal(err)
	}
	want := "rate,A,B\n0.1,1,3\n0.1,2,4\n"
	if buf.String() != want {
		t.Errorf("duplicate-rate rows:\n--- want ---\n%s--- got ---\n%s", want, buf.String())
	}
}

func TestSweepZeroTrialsDefaultsToOne(t *testing.T) {
	s := Sweep{Rates: []float64{0.5}, Seed: 1}
	n := 0
	var mu sync.Mutex
	s.Run(func(rate float64, seed uint64) float64 {
		mu.Lock()
		n++
		mu.Unlock()
		return 0
	})
	if n != 1 {
		t.Errorf("trials = %d, want 1", n)
	}
}

// sortedMedian is the reference median: sort a copy, take the middle
// value or the mean of the two middle values.
func sortedMedian(xs []float64) float64 {
	c := append([]float64(nil), xs...)
	sort.Float64s(c)
	n := len(c)
	if n%2 == 1 {
		return c[n/2]
	}
	return 0.5 * (c[n/2-1] + c[n/2])
}

// TestMedianMatchesSort: the selection median equals the sorted one bit
// for bit — on runs of equal values, on sorted and reversed input, and
// with a NaN or a signed zero, which send it to the sort — and
// MedianInPlace leaves no larger value before xs[n/2] and no smaller one
// after it.
func TestMedianMatchesSort(t *testing.T) {
	r := rand.New(rand.NewSource(3))
	pools := [][]float64{
		{0, 1},
		{0, 0.25, 0.5, 0.75, 1},
		{math.Inf(-1), -2, 3, math.Inf(1)},
		{0, math.Copysign(0, -1), 1, -1},
		{math.NaN(), 1, 2},
	}
	for i := 0; i < 5000; i++ {
		n := 1 + r.Intn(300)
		xs := make([]float64, n)
		for j := range xs {
			if i%2 == 0 {
				xs[j] = r.NormFloat64()
			} else {
				pool := pools[i/2%len(pools)]
				xs[j] = pool[r.Intn(len(pool))]
			}
		}
		switch i % 7 {
		case 3:
			sort.Float64s(xs)
		case 5:
			sort.Sort(sort.Reverse(sort.Float64Slice(xs)))
		}
		want := sortedMedian(xs)
		if got := Median(xs); math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("Median(%v) = %v, sorted median %v", xs, got, want)
		}
		got := MedianInPlace(xs)
		if math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("MedianInPlace = %v, sorted median %v", got, want)
		}
		for j, x := range xs {
			if j < n/2 && x > xs[n/2] || j > n/2 && x < xs[n/2] {
				t.Fatalf("MedianInPlace left %v at %d, around %v at %d", x, j, xs[n/2], n/2)
			}
		}
	}
	if !math.IsNaN(Median(nil)) || !math.IsNaN(MedianInPlace(nil)) {
		t.Error("median of no values is not NaN")
	}
}

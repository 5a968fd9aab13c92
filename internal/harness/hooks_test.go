package harness

import (
	"context"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// TestRunRangeSinkSeesEachIndexOnce: over empty, interior, tail and
// whole-grid ranges, every index in range whose Skip bit is clear runs
// and reaches the sink exactly once, with its grid coordinates, seed and
// fn time; a skipped index neither runs nor reaches the sink, and no
// index outside the range does either. RunHooked is the whole-grid case
// plus the fold into points.
func TestRunRangeSinkSeesEachIndexOnce(t *testing.T) {
	s := Sweep{Rates: []float64{0.1, 0.2, 0.3}, Trials: 4, Seed: 5, Workers: 4}
	skip := []uint64{1<<0 | 1<<4 | 1<<8} // the first trial of each cell is durable
	for _, tc := range []struct {
		name         string
		start, count int
	}{
		{"empty", 5, 0},
		{"interior", 3, 5},
		{"tail", 9, 3},
		{"full", 0, 12},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var mu sync.Mutex
			seen := make([]int, s.Size())
			ran := make([]int, s.Size())
			err := s.RunRange(context.Background(), func(rate float64, seed uint64) float64 {
				mu.Lock()
				for idx := range ran {
					if s.TrialSeed(idx/s.PerCell(), idx%s.PerCell()) == seed {
						ran[idx]++
					}
				}
				mu.Unlock()
				time.Sleep(time.Microsecond) // a measurable fn time
				return rate
			}, tc.start, tc.count, Hooks{
				Skip: skip,
				Sink: func(tr Trial) {
					idx := tr.RateIdx*s.PerCell() + tr.TrialIdx
					mu.Lock()
					seen[idx]++
					mu.Unlock()
					if want := s.TrialSeed(tr.RateIdx, tr.TrialIdx); tr.Seed != want || tr.Rate != s.Rates[tr.RateIdx] {
						t.Errorf("index %d: rate %v seed %d, want %v and %d", idx, tr.Rate, tr.Seed, s.Rates[tr.RateIdx], want)
					}
					if tr.Dur <= 0 || tr.Value != tr.Rate {
						t.Errorf("index %d: dur %v value %v, want > 0 and %v", idx, tr.Dur, tr.Value, tr.Rate)
					}
				},
			})
			if err != nil {
				t.Fatal(err)
			}
			for idx, n := range seen {
				want := 0
				if idx >= tc.start && idx < tc.start+tc.count && idx%s.PerCell() != 0 {
					want = 1
				}
				if n != want || ran[idx] != want {
					t.Errorf("index %d ran %d times and reached the sink %d times, want %d", idx, ran[idx], n, want)
				}
			}
		})
	}
}

func TestRunHookedCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	s := Sweep{Rates: []float64{0.1}, Trials: 1000, Seed: 1, Workers: 2}
	var mu sync.Mutex
	ran := 0
	pts, err := s.RunHooked(ctx, func(rate float64, seed uint64) float64 {
		mu.Lock()
		ran++
		if ran == 5 {
			cancel()
		}
		mu.Unlock()
		return 1
	}, Mean)
	if err == nil {
		t.Fatal("cancelled run returned nil error")
	}
	if pts != nil {
		t.Error("cancelled run returned points")
	}
	mu.Lock()
	defer mu.Unlock()
	if ran >= 1000 {
		t.Errorf("cancellation did not stop the grid (ran %d)", ran)
	}
}

func TestRunHookedMatchesRun(t *testing.T) {
	s := Sweep{Rates: []float64{0.01, 0.1}, Trials: 5, Seed: 9}
	fn := func(rate float64, seed uint64) float64 { return rate * float64(seed%7) }
	want := s.Run(fn)
	got, err := s.RunHooked(context.Background(), fn, Mean)
	if err != nil {
		t.Fatal(err)
	}
	for i := range want {
		if want[i] != got[i] {
			t.Errorf("point %d: %v vs %v", i, want[i], got[i])
		}
	}
}

func TestAggregatorByName(t *testing.T) {
	xs := []float64{1, 2, 10}
	if agg, err := AggregatorByName(""); err != nil || agg(xs) != 13.0/3 {
		t.Errorf("default aggregator: %v", err)
	}
	if agg, err := AggregatorByName("mean"); err != nil || agg(xs) != 13.0/3 {
		t.Errorf("mean: %v", err)
	}
	if agg, err := AggregatorByName("median"); err != nil || agg(xs) != 2 {
		t.Errorf("median: %v", err)
	}
	if _, err := AggregatorByName("p99"); err == nil {
		t.Error("unknown aggregator accepted")
	}
}

func TestSweepSize(t *testing.T) {
	if got := (Sweep{Rates: []float64{1, 2, 3}, Trials: 4}).Size(); got != 12 {
		t.Errorf("size = %d, want 12", got)
	}
	if got := (Sweep{Rates: []float64{1}}).Size(); got != 1 {
		t.Errorf("zero-trials size = %d, want 1", got)
	}
	if got := (Sweep{Trials: -3}).PerCell(); got != 1 {
		t.Errorf("negative-trials per cell = %d, want 1", got)
	}
}

// goroutineID parses the current goroutine's id from a stack header —
// test-only introspection to pin scheduling, never for production logic.
func goroutineID() string {
	buf := make([]byte, 64)
	buf = buf[:runtime.Stack(buf, false)]
	// "goroutine 123 [running]:" — take the second field.
	return strings.Fields(string(buf))[1]
}

// TestSinkRunsOnTrialGoroutine pins the Hooks.Sink contract that
// fault-recorder collection relies on: the sink observes each trial on
// the same goroutine that executed it, synchronously after fn returns.
// (Trial latency needs no such contract: it travels on the Trial as
// Dur.)
func TestSinkRunsOnTrialGoroutine(t *testing.T) {
	s := Sweep{Rates: []float64{0.1, 0.2}, Trials: 8, Seed: 5, Workers: 4}
	var ran sync.Map // seed -> goroutine id of the fn call
	var mismatches, sunk atomic.Int64
	err := s.RunRange(context.Background(), func(rate float64, seed uint64) float64 {
		ran.Store(seed, goroutineID())
		return rate
	}, 0, s.Size(), Hooks{Sink: func(tr Trial) {
		sunk.Add(1)
		want, ok := ran.Load(tr.Seed)
		if !ok || want.(string) != goroutineID() {
			mismatches.Add(1)
		}
	}})
	if err != nil {
		t.Fatal(err)
	}
	if n := sunk.Load(); n != int64(s.Size()) {
		t.Errorf("sink saw %d trials, want %d", n, s.Size())
	}
	if n := mismatches.Load(); n != 0 {
		t.Errorf("%d trials delivered to the sink on a different goroutine than ran them", n)
	}
}

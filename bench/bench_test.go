package main

import (
	"encoding/json"
	"flag"
	"io"
	"os"
	"strconv"
	"testing"
	"time"
)

var update = flag.Bool("update", false, "rewrite golden.json from one full-size rep of every workload for seeds 1-10")

// benchmarkSpec is the part of ../BENCHMARK.json the test checks against.
type benchmarkSpec struct {
	Workloads []struct{ Name string }
	EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
}

func readSpec(t *testing.T) benchmarkSpec {
	t.Helper()
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var s benchmarkSpec
	if err := json.Unmarshal(b, &s); err != nil {
		t.Fatal(err)
	}
	return s
}

// TestSmoke runs every workload at the smoke size, untraced and traced,
// and checks that the run is correct and prints exactly the metrics
// BENCHMARK.json names, with their units.
func TestSmoke(t *testing.T) {
	spec := readSpec(t)
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json names %d workloads, the program has %d", len(spec.Workloads), len(workloads))
	}
	worker, err := buildWorker(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range spec.Workloads {
		t.Run(w.Name, func(t *testing.T) {
			for _, traced := range []bool{false, true} {
				want := spec.EndToEnd
				if traced {
					want = spec.PerLayer
				}
				res, err := run(options{
					workload: w.Name, seed: 1, window: time.Millisecond, trace: traced,
					size: smokeSize, worker: worker, dir: t.TempDir(),
				}, io.Discard)
				if err != nil {
					t.Fatalf("trace %v: %v", traced, err)
				}
				if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
					t.Fatalf("trace %v: correct=%v attempted=%d failed=%d", traced, res.Correct, res.Attempted, res.Failed)
				}
				if len(res.Metrics) != len(want) {
					t.Errorf("trace %v: %d metrics printed, BENCHMARK.json names %d", traced, len(res.Metrics), len(want))
				}
				for _, m := range want {
					got, ok := res.Metrics[m.Name]
					if !ok || got.Unit != m.Unit {
						t.Errorf("trace %v: metric %s = %+v, want unit %s", traced, m.Name, got, m.Unit)
					}
				}
			}
		})
	}
}

// TestQuartiles pins the quartile rule to Python's
// statistics.quantiles(xs, n=4), which comparison scripts use.
func TestQuartiles(t *testing.T) {
	for _, c := range []struct {
		xs        []float64
		q1, m, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 5.5, 8.25},
		{[]float64{5, 1, 3}, 1, 3, 5},
		{[]float64{4, 1, 3, 2}, 1.25, 2.5, 3.75},
		{[]float64{7}, 7, 7, 7},
	} {
		q1, m, q3 := quartiles(c.xs)
		if q1 != c.q1 || m != c.m || q3 != c.q3 {
			t.Errorf("quartiles(%v) = %v %v %v, want %v %v %v", c.xs, q1, m, q3, c.q1, c.m, c.q3)
		}
	}
}

// TestGolden rewrites golden.json when run with -update (about two
// minutes); otherwise it is skipped.
func TestGolden(t *testing.T) {
	if !*update {
		t.Skip("run with -update to rewrite golden.json")
	}
	worker, err := buildWorker(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	size := fullSize
	size.pinned = false
	g := map[string]map[string]map[string]string{}
	for _, w := range workloads {
		g[w.name] = map[string]map[string]string{}
		for seed := uint64(1); seed <= 10; seed++ {
			if w.fixedSeed != 0 && seed != w.fixedSeed {
				continue
			}
			e := newEnv(options{seed: seed, size: size, worker: worker}, t.TempDir(), io.Discard)
			r, err := e.runRep(w, false)
			if err != nil {
				t.Fatalf("%s seed %d: %v", w.name, seed, err)
			}
			sums := map[string]string{}
			for name, b := range r.outputs {
				sums[name] = digest(b)
			}
			g[w.name][strconv.FormatUint(seed, 10)] = sums
		}
	}
	b, err := json.MarshalIndent(g, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile("golden.json", append(b, '\n'), 0o644); err != nil {
		t.Fatal(err)
	}
}

package figures

import (
	"bytes"
	"math"
	"slices"
	"testing"
)

func TestRegistryComplete(t *testing.T) {
	want := []string{"5.1", "5.2", "6.1", "6.2", "6.3", "6.4", "6.5", "6.6", "6.7", "momentum", "flops", "faultmodel", "penalty", "svm", "robustloss", "graphlp", "eigen"}
	all := All()
	if len(all) != len(want) {
		t.Fatalf("registry has %d figures, want %d", len(all), len(want))
	}
	var planned []string
	for i, id := range want {
		f := all[i]
		if f.ID != id {
			t.Errorf("figure %d = %q, want %q", i, f.ID, id)
		}
		if (f.Plan == nil) == (f.build == nil) {
			t.Errorf("figure %q must have exactly one of a plan and a builder", id)
		}
		if f.Plan != nil {
			planned = append(planned, f.ID)
		}
		if Lookup(id) == nil {
			t.Errorf("Lookup(%q) = nil", id)
		}
	}
	if got := PlanIDs(); !slices.Equal(got, planned) {
		t.Errorf("PlanIDs = %v, want the figures with a plan %v", got, planned)
	}
	if Lookup("nope") != nil {
		t.Error("Lookup of unknown id should be nil")
	}
}

// TestAllFiguresQuick smoke-runs every figure in Quick mode and validates
// structural invariants: non-empty series, finite or sentinel values, and
// renderability.
func TestAllFiguresQuick(t *testing.T) {
	for _, f := range All() {
		f := f
		t.Run(f.ID, func(t *testing.T) {
			t.Parallel()
			table := f.Build(Config{Quick: true, Seed: 2})
			if table.Title == "" {
				t.Error("empty title")
			}
			if len(table.Series) == 0 {
				t.Fatal("no series")
			}
			for _, s := range table.Series {
				if s.Name == "" {
					t.Error("unnamed series")
				}
				if len(s.Points) == 0 {
					t.Errorf("series %q empty", s.Name)
				}
				for _, p := range s.Points {
					if math.IsNaN(p.Value) {
						t.Errorf("series %q has NaN at rate %v", s.Name, p.Rate)
					}
				}
			}
			var buf bytes.Buffer
			if err := table.Render(&buf); err != nil {
				t.Fatalf("render: %v", err)
			}
			if err := table.CSV(&buf); err != nil {
				t.Fatalf("csv: %v", err)
			}
		})
	}
}

// TestFig61Shape checks the headline of Fig 6.1 in quick mode: the robust
// SQS sort beats the quicksort baseline at the highest fault rate.
func TestFig61Shape(t *testing.T) {
	table := plan61(Config{Quick: true, Seed: 3}).Build()
	var base, sqs float64 = -1, -1
	for _, s := range table.Series {
		last := s.Points[len(s.Points)-1].Value
		switch s.Name {
		case "Base":
			base = last
		case "SGD+AS,SQS":
			sqs = last
		}
	}
	if base < 0 || sqs < 0 {
		t.Fatal("series missing")
	}
	if sqs <= base {
		t.Errorf("SQS (%v) should beat the baseline (%v) at the top fault rate", sqs, base)
	}
}

// TestFig66Shape checks that CG tolerates the mid fault rates that break
// the direct baselines. (At the extreme top rate every solver saturates;
// the paper's figure does not reach that regime.)
func TestFig66Shape(t *testing.T) {
	table := plan66(Config{Quick: true, Seed: 4}).Build()
	var cg, chol float64 = -1, -1
	for _, s := range table.Series {
		v := s.Points[len(s.Points)/2].Value
		switch s.Name {
		case "CG, N=10":
			cg = v
		case "Base: Cholesky":
			chol = v
		}
	}
	if cg < 0 || chol < 0 {
		t.Fatal("series missing")
	}
	if cg >= chol {
		t.Errorf("CG error (%v) should undercut Cholesky (%v) at the mid fault rate", cg, chol)
	}
}

func TestConfigTrials(t *testing.T) {
	if got := (Config{}).trials(10, 2); got != 10 {
		t.Errorf("default trials = %d", got)
	}
	if got := (Config{Quick: true}).trials(10, 2); got != 2 {
		t.Errorf("quick trials = %d", got)
	}
	if got := (Config{Trials: 7, Quick: true}).trials(10, 2); got != 7 {
		t.Errorf("explicit trials = %d", got)
	}
}

// TestSolverFLOPsPinned pins the §6.3 FLOP counts exactly. The paper's
// method relies on every FLOP of a solver's data path running on the
// (possibly faulty) unit; a count that drops means arithmetic moved off
// u onto the reliable host, out of reach of fault injection. Cholesky,
// QR and CG are data-independent; SVD's Jacobi sweeps depend on the
// instance, so its count is pinned per seed.
func TestSolverFLOPsPinned(t *testing.T) {
	for _, tc := range []struct {
		quick bool
		want  map[string]float64
	}{
		{false, map[string]float64{"Cholesky": 22585, "QR": 24215, "CG,N=5": 26430, "CG,N=10": 46830, "SVD": 340901}},
		{true, map[string]float64{"Cholesky": 3523, "QR": 3901, "CG,N=5": 6498, "CG,N=10": 11538, "SVD": 39543}},
	} {
		table := SolverFLOPs(Config{Seed: 1, Quick: tc.quick})
		if len(table.Series) != len(tc.want) {
			t.Fatalf("quick=%v: %d series, want %d", tc.quick, len(table.Series), len(tc.want))
		}
		for _, s := range table.Series {
			if got, want := s.Points[0].Value, tc.want[s.Name]; got != want {
				t.Errorf("quick=%v %s: %v FLOPs, want %v", tc.quick, s.Name, got, want)
			}
		}
	}
}

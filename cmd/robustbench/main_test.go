package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"robustify/internal/fpu/faultmodel"
)

func TestRunList(t *testing.T) {
	if err := run([]string{"-list"}); err != nil {
		t.Fatalf("-list: %v", err)
	}
}

func TestRunQuickFigure(t *testing.T) {
	if err := run([]string{"-fig", "5.2", "-quick"}); err != nil {
		t.Fatalf("quick 5.2: %v", err)
	}
}

func TestRunCSVExport(t *testing.T) {
	dir := t.TempDir()
	if err := run([]string{"-fig", "5.2", "-quick", "-csv", dir}); err != nil {
		t.Fatalf("csv export: %v", err)
	}
	data, err := os.ReadFile(filepath.Join(dir, "fig-5_2.csv"))
	if err != nil {
		t.Fatalf("csv file missing: %v", err)
	}
	if len(data) == 0 {
		t.Error("csv file empty")
	}
}

func TestRunUnknownFigureIsNoop(t *testing.T) {
	if err := run([]string{"-fig", "99.9"}); err != nil {
		t.Fatalf("unknown figure should be a no-op, got %v", err)
	}
}

func TestRunWorkersFlag(t *testing.T) {
	// -workers must only schedule, never change results; smoke it on a
	// sweep-shaped figure.
	if err := run([]string{"-fig", "6.1", "-quick", "-workers", "2"}); err != nil {
		t.Fatalf("-workers: %v", err)
	}
}

func TestRunOutPersistsAndResumes(t *testing.T) {
	dir := t.TempDir()
	if err := run([]string{"-fig", "6.1", "-quick", "-seed", "7", "-out", dir}); err != nil {
		t.Fatalf("-out run: %v", err)
	}
	store := filepath.Join(dir, "fig-6_1", "trials.jsonl")
	data, err := os.ReadFile(store)
	if err != nil {
		t.Fatalf("trials store missing: %v", err)
	}
	if len(data) == 0 {
		t.Fatal("trials store empty")
	}
	spec, err := os.ReadFile(filepath.Join(dir, "fig-6_1", "spec.json"))
	if err != nil || len(spec) == 0 {
		t.Fatalf("spec.json missing: %v", err)
	}
	// A resume of the complete store re-executes nothing and succeeds.
	if err := run([]string{"-fig", "6.1", "-quick", "-seed", "7", "-resume", dir}); err != nil {
		t.Fatalf("-resume run: %v", err)
	}
	after, err := os.ReadFile(store)
	if err != nil {
		t.Fatal(err)
	}
	if len(after) != len(data) {
		t.Errorf("resume of a complete store grew it: %d -> %d bytes", len(data), len(after))
	}
}

func TestRunResumeRejectsChangedSpec(t *testing.T) {
	dir := t.TempDir()
	if err := run([]string{"-fig", "6.1", "-quick", "-seed", "7", "-out", dir}); err != nil {
		t.Fatalf("-out run: %v", err)
	}
	if err := run([]string{"-fig", "6.1", "-quick", "-seed", "8", "-resume", dir}); err == nil {
		t.Error("resume with a different seed must be rejected")
	}
}

func TestRunOutFallsBackForUnplannedFigure(t *testing.T) {
	// 5.2 is not sweep-shaped; -out must fall back to the eager build.
	if err := run([]string{"-fig", "5.2", "-quick", "-out", t.TempDir()}); err != nil {
		t.Fatalf("non-sweep figure with -out: %v", err)
	}
}

// TestRunTelemetryReport: the -telemetry fault report depends neither on
// -workers nor on whether the run writes a store. Four runs of -fig 6.1
// -quick, at 1 and 4 workers, each without a store and with -out, must
// write byte-identical reports that count faults at every rate. The run
// has 24 (rate, seed) keys, far below the collector's cap, so no
// recorder is folded into its rate's total.
func TestRunTelemetryReport(t *testing.T) {
	prev := faultmodel.SetUnitObserver(nil)
	t.Cleanup(func() { faultmodel.SetUnitObserver(prev) })
	dir := t.TempDir()
	var want []byte
	for i, extra := range [][]string{
		{"-workers", "1"},
		{"-workers", "4"},
		{"-workers", "1", "-out", filepath.Join(dir, "store1")},
		{"-workers", "4", "-out", filepath.Join(dir, "store4")},
	} {
		path := filepath.Join(dir, fmt.Sprintf("report%d.json", i))
		if err := run(append([]string{"-fig", "6.1", "-quick", "-telemetry", path}, extra...)); err != nil {
			t.Fatalf("%v: %v", extra, err)
		}
		got, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if i > 0 {
			if !bytes.Equal(got, want) {
				t.Errorf("%v: report differs from -workers 1 without a store:\n--- want ---\n%s--- got ---\n%s", extra, want, got)
			}
			continue
		}
		want = got
		var report []struct {
			Rate   float64
			Faults struct{ Total uint64 }
		}
		if err := json.Unmarshal(got, &report); err != nil {
			t.Fatal(err)
		}
		if len(report) == 0 {
			t.Fatalf("empty report:\n%s", got)
		}
		for _, r := range report {
			if r.Faults.Total == 0 {
				t.Errorf("rate %g: no faults counted", r.Rate)
			}
		}
	}
}

// TestRunTuneAndRerun: -tune runs a full search, persists tune.json,
// and a rerun with -resume serves the finished result without starting
// a second search (same run directory, identical trace).
func TestRunTuneAndRerun(t *testing.T) {
	dir := t.TempDir()
	args := []string{"-tune", "leastsq/cg", "-tune-rates", "0.02", "-tune-knobs", "budget",
		"-tune-rounds", "1", "-trials", "2", "-seed", "3", "-out", dir}
	if err := run(args); err != nil {
		t.Fatalf("-tune run: %v", err)
	}
	trace := filepath.Join(dir, "tunes", "t0001", "tune.json")
	first, err := os.ReadFile(trace)
	if err != nil {
		t.Fatalf("tune trace missing: %v", err)
	}
	rerun := append([]string{}, args...)
	rerun[len(rerun)-2] = "-resume"
	if err := run(rerun); err != nil {
		t.Fatalf("-resume rerun: %v", err)
	}
	second, err := os.ReadFile(trace)
	if err != nil {
		t.Fatal(err)
	}
	if string(first) != string(second) {
		t.Errorf("rerun changed the finished trace:\n--- first ---\n%s\n--- second ---\n%s", first, second)
	}
	if entries, _ := os.ReadDir(filepath.Join(dir, "tunes")); len(entries) != 1 {
		t.Errorf("rerun started a second search: %d run dirs", len(entries))
	}
}

// TestRunTuneResumeRejectsChangedFlags: a rerun whose flags no longer
// match the stored search must error instead of silently starting a
// fresh search beside the invested one.
func TestRunTuneResumeRejectsChangedFlags(t *testing.T) {
	dir := t.TempDir()
	if err := run([]string{"-tune", "leastsq/cg", "-tune-rates", "0.02", "-tune-knobs", "budget",
		"-tune-rounds", "1", "-trials", "2", "-seed", "3", "-out", dir}); err != nil {
		t.Fatalf("-tune run: %v", err)
	}
	err := run([]string{"-tune", "leastsq/cg", "-tune-rates", "0.02", "-tune-knobs", "budget",
		"-tune-rounds", "1", "-trials", "2", "-seed", "4", "-resume", dir})
	if err == nil {
		t.Fatal("changed -seed silently started a new search")
	}
	if entries, _ := os.ReadDir(filepath.Join(dir, "tunes")); len(entries) != 1 {
		t.Errorf("mismatch rerun created run dirs: %d", len(entries))
	}
}

func TestRunTuneNeedsOut(t *testing.T) {
	if err := run([]string{"-tune", "leastsq/cg"}); err == nil {
		t.Error("-tune without -out accepted")
	}
}

func TestRunTuneUnknownWorkload(t *testing.T) {
	if err := run([]string{"-tune", "nope", "-out", t.TempDir()}); err == nil {
		t.Error("unknown tune workload accepted")
	}
}

func TestRunBadFlag(t *testing.T) {
	if err := run([]string{"-definitely-not-a-flag"}); err == nil {
		t.Error("bad flag accepted")
	}
}

func TestMatch(t *testing.T) {
	if !match([]string{"all"}, "6.1") {
		t.Error("all must match everything")
	}
	if !match([]string{"6.1", "6.2"}, "6.2") {
		t.Error("listed id must match")
	}
	if match([]string{"6.1"}, "6.2") {
		t.Error("unlisted id matched")
	}
	if !match([]string{" 6.3"}, "6.3") {
		t.Error("whitespace-padded id must match")
	}
}

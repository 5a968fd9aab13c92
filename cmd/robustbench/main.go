// Command robustbench regenerates the tables and figures of the paper's
// evaluation on the simulated stochastic-FPU substrate.
//
// Usage:
//
//	robustbench [-fig all|5.1|5.2|6.1|...|6.7|momentum|flops]
//	            [-trials N] [-seed S] [-quick] [-workers N] [-fault-model M]
//	            [-csv DIR] [-out DIR] [-resume DIR] [-telemetry FILE] [-list]
//	robustbench -tune WORKLOAD -out DIR [-tune-rates R1,R2] [-tune-knobs K1,K2]
//	            [-tune-rounds N] [-tune-iters N] [-tune-agg mean|median]
//	            [-trials N] [-seed S] [-workers N] [-fault-model M]
//
// -fault-model selects the fault-injection model every trial runs under:
// a family name (default, stratified, burst, memory) or a faultmodel JSON
// spec like {"name":"burst","burst_len":128}. It is part of a persisted
// run's resume identity, and with -tune it also puts the family's fm_*
// parameters on the search grid.
//
// With -telemetry, every faulty FPU built during the run gets a passive
// fault-placement recorder (see internal/obs), and a per-rate aggregate —
// faults by op, IEEE-754 bit class, burst clustering, iteration bucket —
// is written as JSON to FILE ('-' = stdout) when the run completes.
// Recorders never consume randomness or touch values, so results are
// bit-identical with or without the flag.
//
// With -csv, each figure is additionally written as DIR/fig-<id>.csv.
// With -out, every completed trial of a sweep-shaped figure is persisted
// to an append-only campaign store under DIR as it finishes; an
// interrupted run restarted with -resume DIR re-executes only the missing
// trials and produces a table byte-identical to an uninterrupted run with
// the same flags.
//
// With -tune, robustbench searches WORKLOAD's declared knob grid
// (penalty weight, step constants, iteration budgets — see
// internal/tune) instead of building figures: every candidate
// configuration runs as a durable campaign under DIR, the search state
// persists to DIR/tunes/<id>/tune.json, and a killed run restarted with
// -resume DIR continues from the last completed evaluation, finishing
// with a trace byte-identical to an uninterrupted run.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"time"

	"robustify/internal/campaign"
	"robustify/internal/figures"
	"robustify/internal/fpu/faultmodel"
	"robustify/internal/harness"
	"robustify/internal/obs"
	"robustify/internal/tune"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "robustbench:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("robustbench", flag.ContinueOnError)
	var (
		fig     = fs.String("fig", "all", "figure id to regenerate, or 'all'")
		trials  = fs.Int("trials", 0, "trials per cell (0 = figure default)")
		seed    = fs.Uint64("seed", 1, "base RNG seed")
		quick   = fs.Bool("quick", false, "scaled-down problem sizes and grids")
		workers = fs.Int("workers", 0, "sweep worker goroutines (0 = GOMAXPROCS)")
		fmFlag  = fs.String("fault-model", "", "fault model: name or JSON spec (see fpu/faultmodel; default: the paper's injector)")
		csvDir  = fs.String("csv", "", "directory for CSV export (optional)")
		teleOut = fs.String("telemetry", "",
			"write a per-rate fault-placement report (JSON) to FILE after the run ('-' = stdout)")
		outDir = fs.String("out", "", "persist per-trial results to campaign stores under DIR")
		resume = fs.String("resume", "", "resume persisted campaign stores under DIR (implies -out DIR)")
		list   = fs.Bool("list", false, "list available figures and exit")

		tuneW      = fs.String("tune", "", "search WORKLOAD's knob grid instead of building figures (needs -out or -resume)")
		tuneRates  = fs.String("tune-rates", "0.01,0.05", "fixed fault-rate grid for tune evaluations (comma-separated)")
		tuneKnobs  = fs.String("tune-knobs", "", "knob subset to search (comma-separated; default: all declared)")
		tuneRounds = fs.Int("tune-rounds", 0, "coordinate-descent rounds (0 = 2)")
		tuneIters  = fs.Int("tune-iters", 0, "iteration budget per trial (0 = workload default)")
		tuneAgg    = fs.String("tune-agg", "", "per-cell aggregator for tune evaluations: mean (default) or median")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *list {
		for _, f := range figures.All() {
			fmt.Printf("%-8s %s\n", f.ID, f.Desc)
		}
		return nil
	}
	if *outDir != "" && *resume != "" && *outDir != *resume {
		return fmt.Errorf("-out %s and -resume %s disagree; -resume already persists, pass only one", *outDir, *resume)
	}
	storeDir := *outDir
	if *resume != "" {
		storeDir = *resume
	}
	ctx := context.Background()
	if storeDir != "" {
		// Only campaign runs are interrupt-aware (trials stay durable and
		// resumable); leave the default terminate-on-SIGINT behavior for
		// storeless runs. After the first Ctrl-C, restore the default so
		// a second one can force-quit a hung trial.
		var stop context.CancelFunc
		ctx, stop = signal.NotifyContext(ctx, os.Interrupt)
		defer stop()
		context.AfterFunc(ctx, stop)
	}

	model, err := faultmodel.Parse(*fmFlag)
	if err != nil {
		return err
	}

	var collector *obs.Collector
	if *teleOut != "" {
		collector = obs.NewCollector()
		faultmodel.SetUnitObserver(collector.Observer)
	}

	if *tuneW != "" {
		rates, err := parseRates(*tuneRates)
		if err != nil {
			return err
		}
		spec := tune.Spec{
			Workload:   *tuneW,
			Rates:      rates,
			Trials:     *trials,
			Iters:      *tuneIters,
			Agg:        *tuneAgg,
			Seed:       *seed,
			Rounds:     *tuneRounds,
			Workers:    *workers,
			FaultModel: model,
		}
		for _, k := range strings.Split(*tuneKnobs, ",") {
			if k = strings.TrimSpace(k); k != "" {
				spec.Knobs = append(spec.Knobs, k)
			}
		}
		if err := runTune(ctx, storeDir, spec); err != nil {
			return err
		}
		return writeTelemetry(*teleOut, collector)
	}

	cfg := figures.Config{Trials: *trials, Seed: *seed, Quick: *quick, Workers: *workers, FaultModel: model}
	selected := strings.Split(*fig, ",")
	for _, f := range figures.All() {
		if !match(selected, f.ID) {
			continue
		}
		start := time.Now()
		var table *harness.Table
		if storeDir != "" && f.Plan != nil {
			var err error
			table, err = runCampaign(ctx, storeDir, f.ID, cfg)
			if err != nil {
				return err
			}
			if table == nil { // interrupted: completed trials are on disk
				return fmt.Errorf("interrupted; rerun with -resume %s to continue", storeDir)
			}
		} else {
			if storeDir != "" {
				fmt.Fprintf(os.Stderr, "robustbench: figure %s is not sweep-shaped; running without a store\n", f.ID)
			}
			table = f.Build(cfg)
		}
		if err := table.Render(os.Stdout); err != nil {
			return err
		}
		fmt.Printf("[%s took %v]\n\n", f.ID, time.Since(start).Round(time.Millisecond))
		if *csvDir != "" {
			if err := writeCSV(*csvDir, f.ID, table); err != nil {
				return err
			}
		}
	}
	return writeTelemetry(*teleOut, collector)
}

// writeTelemetry drains the run's fault recorders, aggregates them per
// swept fault rate, and writes the report as indented JSON to path
// ('-' = stdout). A nil collector (no -telemetry) is a no-op.
func writeTelemetry(path string, collector *obs.Collector) error {
	if collector == nil {
		return nil
	}
	type rateReport struct {
		Rate   float64          `json:"rate"`
		Faults obs.FaultSummary `json:"faults"`
	}
	byRate := collector.DrainByRate()
	rates := make([]float64, 0, len(byRate))
	for rate := range byRate {
		rates = append(rates, rate)
	}
	sort.Float64s(rates)
	report := make([]rateReport, 0, len(rates))
	for _, rate := range rates {
		report = append(report, rateReport{Rate: rate, Faults: byRate[rate].Summary()})
	}
	b, err := json.MarshalIndent(report, "", "  ")
	if err != nil {
		return err
	}
	b = append(b, '\n')
	if path == "-" {
		_, err := os.Stdout.Write(b)
		return err
	}
	return os.WriteFile(path, b, 0o644)
}

// runCampaign executes one figure through the campaign engine so every
// completed trial is durable under dir and prior runs are resumed instead
// of repeated. A nil table with nil error means ctx was cancelled.
func runCampaign(ctx context.Context, dir, id string, cfg figures.Config) (table *harness.Table, err error) {
	spec := campaign.Spec{
		Figure:     id,
		Trials:     cfg.Trials,
		Seed:       cfg.Seed,
		Workers:    cfg.Workers,
		Quick:      cfg.Quick,
		FaultModel: cfg.FaultModel,
	}
	camp, err := campaign.Compile(spec)
	if err != nil {
		return nil, err
	}
	st, err := camp.OpenStore(filepath.Join(dir, figFileName(id)))
	if err != nil {
		return nil, err
	}
	defer func() {
		// The close is the store's last flush: reporting a table as
		// durable over a failed close would claim trials the next resume
		// cannot find.
		if cerr := st.Close(); cerr != nil && err == nil {
			table, err = nil, fmt.Errorf("closing store %s: %w", st.Dir(), cerr)
		}
	}()
	if prev, ok, err := st.LoadSpec(); err != nil {
		return nil, err
	} else if ok && !campaign.ResumeCompatible(prev, spec) {
		return nil, fmt.Errorf("store %s was created by a different run (figure/trials/seed/quick/fault-model changed); use a fresh -out directory", st.Dir())
	}
	if err := st.SaveSpec(spec); err != nil {
		return nil, err
	}
	exec := campaign.NewExecution(camp, st)
	if done := exec.Progress().Done; done > 0 {
		fmt.Fprintf(os.Stderr, "robustbench: resuming %s: %d/%d trials already recorded\n", id, done, camp.Total())
	}
	if err := exec.Run(ctx); err != nil {
		if ctx.Err() != nil {
			return nil, nil
		}
		return nil, err
	}
	return exec.Table(), nil
}

// runTune drives one parameter search to completion under dir: a fresh
// search submits, a prior interrupted/cancelled/failed search with the
// same spec resumes, and a completed one just reprints its results —
// so a killed run rerun with -resume picks up exactly where it stopped.
func runTune(ctx context.Context, dir string, spec tune.Spec) error {
	if dir == "" {
		return fmt.Errorf("-tune needs -out DIR (or -resume DIR) for the durable search state")
	}
	cm, err := campaign.NewManager(dir, 0)
	if err != nil {
		return err
	}
	defer cm.Close()
	tm, err := tune.NewManager(filepath.Join(dir, "tunes"), cm)
	if err != nil {
		return err
	}
	defer tm.Close()

	id := ""
	existing := tm.List()
	for _, st := range existing {
		if tune.ResumeCompatible(st.Spec, spec) {
			id = st.ID
			break
		}
	}
	switch {
	case id == "":
		// Refuse to quietly start a fresh search next to prior runs: a
		// rerun with one flag off would otherwise abandon the invested
		// work without a word (the figure -resume path errors the same
		// way on a spec mismatch).
		if len(existing) > 0 {
			return fmt.Errorf("%s holds %d tune run(s) created with different flags; rerun with the original flags or use a fresh -out directory", dir, len(existing))
		}
		if id, err = tm.Submit(spec); err != nil {
			return err
		}
	default:
		st, err := tm.Get(id)
		if err != nil {
			return err
		}
		if st.State != tune.StateDone {
			fmt.Fprintf(os.Stderr, "robustbench: resuming tune %s: %d evaluations already recorded\n", id, st.EvalsCompleted)
			if err := tm.Resume(id); err != nil {
				return err
			}
		}
	}

	done := make(chan error, 1)
	go func() { done <- tm.Wait(id) }()
	select {
	case err := <-done:
		if err != nil {
			return err
		}
	case <-ctx.Done():
		tm.Interrupt()
		cm.Close()
		tm.Close()
		return fmt.Errorf("interrupted; rerun with -resume %s to continue the search", dir)
	}
	st, err := tm.Get(id)
	if err != nil {
		return err
	}
	if st.State != tune.StateDone {
		return fmt.Errorf("tune %s ended %s: %s", id, st.State, st.Error)
	}
	printTune(os.Stdout, st)
	return nil
}

// printTune renders a finished search: per-candidate table, best-so-far
// trajectory, and the winning configuration.
func printTune(w io.Writer, st tune.Status) {
	fmt.Fprintf(w, "tune %s: %s (%d evaluations)\n", st.ID, st.Spec.Workload, st.EvalsCompleted)
	fmt.Fprintf(w, "%-5s  %-8s  %-24s  %s\n", "eval", "trials", "params", "objective")
	for _, e := range st.Evals {
		obj := "-"
		if e.Objective != nil {
			obj = fmt.Sprintf("%g", *e.Objective)
		}
		fmt.Fprintf(w, "%-5d  %-8d  %-24s  %s\n", e.N, e.Trials, formatParams(e.Params), obj)
	}
	fmt.Fprintln(w, "best-so-far:")
	for _, b := range st.Best {
		fmt.Fprintf(w, "  eval %-4d %-24s  %g\n", b.Eval, formatParams(b.Params), b.Objective)
	}
	if st.FinalObjective != nil {
		fmt.Fprintf(w, "best: %s  objective=%g\n", formatParams(st.Final), *st.FinalObjective)
	}
}

// formatParams renders a knob configuration with sorted keys.
func formatParams(p map[string]float64) string {
	keys := make([]string, 0, len(p))
	for k := range p {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	parts := make([]string, len(keys))
	for i, k := range keys {
		parts[i] = fmt.Sprintf("%s=%g", k, p[k])
	}
	return strings.Join(parts, " ")
}

// parseRates parses a comma-separated fault-rate list.
func parseRates(s string) ([]float64, error) {
	var rates []float64
	for _, part := range strings.Split(s, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		v, err := strconv.ParseFloat(part, 64)
		if err != nil {
			return nil, fmt.Errorf("bad -tune-rates entry %q: %w", part, err)
		}
		rates = append(rates, v)
	}
	if len(rates) == 0 {
		return nil, fmt.Errorf("-tune-rates is empty")
	}
	return rates, nil
}

// figFileName is the on-disk name for a figure's store directory and CSV
// file stem; the layout is pinned by tests and docs, so both users share it.
func figFileName(id string) string {
	return "fig-" + strings.ReplaceAll(id, ".", "_")
}

func match(selected []string, id string) bool {
	for _, s := range selected {
		if s == "all" || strings.TrimSpace(s) == id {
			return true
		}
	}
	return false
}

func writeCSV(dir, id string, table *harness.Table) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	path := filepath.Join(dir, figFileName(id)+".csv")
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	if err := table.CSV(f); err != nil {
		return err
	}
	return f.Close()
}

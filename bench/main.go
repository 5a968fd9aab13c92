// Command bench is the repository benchmark. It drives the system only
// through the public functions of its packages (campaign, tune,
// dispatch, obs, fpu, fpu/faultmodel, robust, apps/leastsq) and the real
// robustworker binary, times those calls from outside, checks every
// output, and prints one JSON result line last on standard output. A
// human-readable report goes to standard error.
//
// Usage, from the repository root:
//
//	bash bench/run.sh --workload NAME --seed N --seconds S --trace 0|1
//
// run.sh builds this program from source and runs it. --seed derives
// every input; --seconds is how long the measuring loop runs; --trace 1
// swaps the end-to-end metrics for the per-layer ones (layer rungs plus a
// traced run of the workload). See README.md for the workloads, the
// metrics, and the rule for comparing two commits.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"sort"
	"strings"
	"time"

	"robustify/internal/fpu/faultmodel"
)

func main() {
	opt, err := parseFlags(os.Args[1:])
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(2)
	}
	res, err := run(opt, os.Stderr)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
	if !res.Correct {
		os.Exit(1)
	}
}

// options is one invocation. Only workload, seed, window and trace come
// from the command line; size and worker let the smoke test run the same
// code at a small scale with a worker binary it built once.
type options struct {
	workload string
	seed     uint64
	window   time.Duration
	trace    bool
	size     sizes
	worker   string // prebuilt robustworker binary; "" builds one
	dir      string // parent of the run's scratch directory; "" = os.TempDir
}

func parseFlags(args []string) (options, error) {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	var (
		name  = fs.String("workload", "", "workload: "+strings.Join(workloadNames(), ", "))
		seed  = fs.Uint64("seed", 1, "seed every input derives from")
		secs  = fs.Int("seconds", 10, "how long the measuring loop runs")
		trace = fs.Int("trace", 0, "1 prints the per-layer metrics instead of the end-to-end ones")
	)
	if err := fs.Parse(args); err != nil {
		return options{}, err
	}
	if fs.NArg() > 0 {
		return options{}, fmt.Errorf("unexpected arguments %q", fs.Args())
	}
	if workloadByName(*name) == nil {
		return options{}, fmt.Errorf("unknown workload %q (want one of %s)", *name, strings.Join(workloadNames(), ", "))
	}
	if *secs < 1 {
		return options{}, fmt.Errorf("--seconds must be at least 1")
	}
	if *trace != 0 && *trace != 1 {
		return options{}, fmt.Errorf("--trace must be 0 or 1")
	}
	return options{
		workload: *name, seed: *seed, window: time.Duration(*secs) * time.Second,
		trace: *trace == 1, size: fullSize,
	}, nil
}

// result is the JSON line the run ends with.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// The end-to-end metrics, printed by every untraced run.
var endToEnd = []struct{ name, unit string }{
	{"trials_per_s", "trials/s"},
	{"setup_s", "s"},
	{"allocs_per_trial", "count"},
	{"alloc_bytes_per_trial", "B"},
}

// The per-layer metrics and their units, printed by every traced run.
// README.md says which end-to-end metric each should move.
var perLayer = map[string]string{
	"fpu.add_mul_ns":                  "ns",
	"fpu.add_mul_reliable_ns":         "ns",
	"fpu.dot_ns.n6":                   "ns",
	"fpu.dot_ns.n30":                  "ns",
	"fpu.dot_ns.n4096":                "ns",
	"fpu.gemv_ns.30x6":                "ns",
	"fpu.axpy_ns.n30":                 "ns",
	"fpu.allocs_per_op":               "count",
	"solver.cg_us_per_iter":           "us",
	"solver.sgd_us_per_iter":          "us",
	"solver.irls_us_per_solve":        "us",
	"solver.allocs_per_solve.cg":      "count",
	"solver.allocs_per_solve.sgd":     "count",
	"solver.allocs_per_solve.irls":    "count",
	"solver.iter_marks_per_trial":     "count",
	"trial.sort_base_us":              "us",
	"trial.leastsq_cg_us":             "us",
	"trial.leastsq_cg_huber_us":       "us",
	"engine.trial_busy_frac":          "fraction",
	"engine.overhead_us_per_trial":    "us",
	"store.put_us.1w":                 "us",
	"store.put_us.2w":                 "us",
	"store.bytes_per_record":          "B",
	"store.replay_us_per_record":      "us",
	"obs.telemetry_append_us":         "us",
	"dispatch.lease_us_p50":           "us",
	"dispatch.lease_us_p90":           "us",
	"dispatch.report_us_p50":          "us",
	"dispatch.report_us_p90":          "us",
	"dispatch.leases_per_ktrial":      "count",
	"dispatch.reports_per_ktrial":     "count",
	"dispatch.empty_lease_frac":       "fraction",
	"dispatch.report_bytes_per_trial": "B",
	"dispatch.worker_busy_frac":       "fraction",
	"dispatch.coordinator_busy_frac":  "fraction",
	"manager.lifecycle_ms":            "ms",
	"manager.recover_ms":              "ms",
	"tune.campaigns_per_search":       "count",
	"tune.compute_frac":               "fraction",
	"trace.overhead_frac":             "fraction",
}

// env is one run's shared state: its inputs, its scratch directory, and
// the fixtures workloads build lazily and share (the robustworker
// binary, the interrupted-campaign template).
type env struct {
	seed   uint64
	size   sizes
	dir    string
	log    io.Writer
	worker string
	resume *resumeFixture

	// first holds the digests of each workload's first outputs of the
	// run, which every later rep of that workload must reproduce.
	first map[string]map[string]string
}

func newEnv(opt options, dir string, log io.Writer) *env {
	return &env{
		seed: opt.seed, size: opt.size, dir: dir, log: log, worker: opt.worker,
		first: make(map[string]map[string]string),
	}
}

func run(opt options, log io.Writer) (result, error) {
	w := workloadByName(opt.workload)
	if w == nil {
		return result{}, fmt.Errorf("unknown workload %q", opt.workload)
	}
	dir, err := os.MkdirTemp(opt.dir, "bench-")
	if err != nil {
		return result{}, err
	}
	defer os.RemoveAll(dir)
	// Each workload installs the process-wide fault observer it needs for
	// the span of one rep; none may leak into the next.
	defer faultmodel.SetUnitObserver(nil)
	e := newEnv(opt, dir, log)
	fmt.Fprintf(log, "bench: workload %s, seed %d, %s window, trace %v, GOMAXPROCS %d\n",
		w.name, opt.seed, opt.window, opt.trace, runtime.GOMAXPROCS(0))
	if opt.trace {
		return e.traceRun(w, opt.window)
	}
	return e.measure(w, opt.window)
}

// rep is one measured repetition: a fresh system booted, loaded, checked
// and torn down.
type rep struct {
	boot, wall     time.Duration
	fresh          int // trials that became durable during the work
	mallocs, bytes uint64
	outputs        map[string][]byte
	layers         map[string]float64 // traced reps only
	tr             *tracer
}

func (r rep) tps() float64 { return float64(r.fresh) / r.wall.Seconds() }

// runRep builds, boots, loads and tears down one system in a fresh
// directory. Set-up that is not measured (copying a template, building
// the worker) happens before the boot clock starts.
func (e *env) runRep(w *workload, traced bool) (r rep, err error) {
	dir, err := os.MkdirTemp(e.dir, w.name+"-")
	if err != nil {
		return r, err
	}
	defer os.RemoveAll(dir)
	if traced {
		r.tr = newTracer()
	}
	end := r.tr.begin("rep.boot")
	sys, boot, err := w.start(e, dir, r.tr)
	end()
	if err != nil {
		return r, fmt.Errorf("boot: %w", err)
	}
	defer func() {
		end := r.tr.begin("rep.close")
		if cerr := sys.close(); cerr != nil && err == nil {
			err = fmt.Errorf("shutdown: %w", cerr)
		}
		end()
	}()
	r.boot = boot

	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	end = r.tr.begin("rep.work")
	t0 := time.Now()
	r.fresh, err = sys.work(r.tr)
	r.wall = time.Since(t0)
	end()
	runtime.ReadMemStats(&m1)
	if err != nil {
		return r, err
	}
	if r.fresh <= 0 {
		return r, errors.New("no trial became durable")
	}
	r.mallocs, r.bytes = m1.Mallocs-m0.Mallocs, m1.TotalAlloc-m0.TotalAlloc
	if traced {
		if r.layers, err = sys.layers(r.wall, r.fresh); err != nil {
			return r, fmt.Errorf("layer metrics: %w", err)
		}
	}
	end = r.tr.begin("rep.outputs")
	r.outputs, err = sys.outputs()
	end()
	if err != nil {
		return r, err
	}
	return r, e.check(w, r.outputs)
}

// tally counts attempted and failed reps; a failure is reported on
// standard error and leaves the run incorrect.
type tally struct{ attempted, failed int }

func (t *tally) note(e *env, name string, err error) bool {
	t.attempted++
	if err != nil {
		t.failed++
		fmt.Fprintf(e.log, "bench: %s rep %d FAILED: %v\n", name, t.attempted, err)
		return false
	}
	return true
}

// measure is an untraced run: extra boot-only rehearsals until the
// set-up sample count is reached, then reps until the window is spent.
// Every end-to-end metric is the median over the run's samples.
func (e *env) measure(w *workload, window time.Duration) (result, error) {
	var boots []time.Duration
	for i := 0; i < e.size.setups; i++ {
		boot, err := e.rehearse(w)
		if err != nil {
			return result{}, fmt.Errorf("%s set-up: %w", w.name, err)
		}
		boots = append(boots, boot)
	}
	var (
		t                      tally
		tps, allocs, allocByte []float64
	)
	deadline := time.Now().Add(window)
	for t.attempted == 0 || time.Now().Before(deadline) {
		r, err := e.runRep(w, false)
		if !t.note(e, w.name, err) {
			continue
		}
		fmt.Fprintf(e.log, "  rep %d: boot %s, %d trials in %s, %.6g trials/s\n",
			t.attempted, r.boot.Round(time.Microsecond), r.fresh, r.wall.Round(time.Millisecond), r.tps())
		boots = append(boots, r.boot)
		tps = append(tps, r.tps())
		allocs = append(allocs, float64(r.mallocs)/float64(r.fresh))
		allocByte = append(allocByte, float64(r.bytes)/float64(r.fresh))
	}
	res := result{Correct: t.failed == 0, Attempted: t.attempted, Failed: t.failed, Metrics: map[string]metric{}}
	if len(tps) == 0 {
		return res, nil
	}
	samples := map[string][]float64{
		"trials_per_s":          tps,
		"setup_s":               seconds(boots),
		"allocs_per_trial":      allocs,
		"alloc_bytes_per_trial": allocByte,
	}
	fmt.Fprintf(e.log, "\n%s: end-to-end metrics over %d reps (%d failed)\n", w.name, t.attempted, t.failed)
	fmt.Fprintf(e.log, "  %-24s %-9s %14s %14s %14s %4s\n", "metric", "unit", "median", "q1", "q3", "n")
	for _, m := range endToEnd {
		xs := samples[m.name]
		q1, med, q3 := quartiles(xs)
		fmt.Fprintf(e.log, "  %-24s %-9s %14.6g %14.6g %14.6g %4d\n", m.name, m.unit, med, q1, q3, len(xs))
		res.Metrics[m.name] = metric{Value: med, Unit: m.unit}
	}
	return res, finite(res.Metrics)
}

// rehearse boots and tears down one system, returning its set-up time: the
// extra set-up samples that make setup_s a median over many boots even
// for workloads with few reps.
func (e *env) rehearse(w *workload) (time.Duration, error) {
	dir, err := os.MkdirTemp(e.dir, w.name+"-boot-")
	if err != nil {
		return 0, err
	}
	defer os.RemoveAll(dir)
	sys, boot, err := w.start(e, dir, nil)
	if err != nil {
		return 0, err
	}
	return boot, sys.close()
}

// traceRun measures the per-layer metrics: the layer rungs, then
// alternating untraced and traced reps of the workload for the window
// (trace.overhead_frac compares the two), then one traced rep each of the
// fleet and tune workloads when the run's workload is neither, so every
// dispatch.* and tune.* metric is measured on every workload.
func (e *env) traceRun(w *workload, window time.Duration) (result, error) {
	layers, err := e.rungs()
	if err != nil {
		return result{}, fmt.Errorf("rungs: %w", err)
	}
	var (
		t             tally
		plain, traced []float64
		samples       = map[string][]float64{}
		spans         = spanTotals{}
	)
	add := func(r rep, prefix string) {
		for k, v := range r.layers {
			if strings.HasPrefix(k, prefix) {
				//lint:detmap-exempt each key's samples grow in rep order; the order keys are visited in is not observable
				samples[k] = append(samples[k], v)
			}
		}
	}
	deadline := time.Now().Add(window)
	for (len(plain) == 0 || len(traced) == 0 || time.Now().Before(deadline)) && t.failed <= 3 {
		withTrace := len(traced) < len(plain)
		r, err := e.runRep(w, withTrace)
		if !t.note(e, w.name, err) {
			continue
		}
		if !withTrace {
			plain = append(plain, r.tps())
			continue
		}
		traced = append(traced, r.tps())
		add(r, "")
		spans.add(r.tr)
	}
	for _, other := range []struct {
		name, prefix string
	}{{"resume-fleet", "dispatch."}, {"tune", "tune."}} {
		if other.name == w.name {
			continue
		}
		r, err := e.runRep(workloadByName(other.name), true)
		if t.note(e, other.name, err) {
			add(r, other.prefix)
		}
	}
	res := result{Correct: t.failed == 0, Attempted: t.attempted, Failed: t.failed, Metrics: map[string]metric{}}
	if len(plain) > 0 && len(traced) > 0 {
		layers["trace.overhead_frac"] = 1 - median(traced)/median(plain)
	}
	for k, xs := range samples {
		layers[k] = median(xs)
	}
	fmt.Fprintf(e.log, "\n%s: spans of %d traced reps (self = total minus child spans)\n", w.name, len(traced))
	spans.write(e.log)
	fmt.Fprintf(e.log, "\n%s: per-layer metrics\n", w.name)
	names := make([]string, 0, len(perLayer))
	for name := range perLayer {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		v, ok := layers[name]
		if !ok {
			if res.Correct {
				return res, fmt.Errorf("per-layer metric %s was not measured", name)
			}
			continue
		}
		fmt.Fprintf(e.log, "  %-32s %14.6g %s\n", name, v, perLayer[name])
		res.Metrics[name] = metric{Value: v, Unit: perLayer[name]}
	}
	return res, finite(res.Metrics)
}

func finite(ms map[string]metric) error {
	for name, m := range ms {
		if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			return fmt.Errorf("metric %s is %v", name, m.Value)
		}
	}
	return nil
}

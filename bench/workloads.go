package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync/atomic"
	"time"

	"robustify/internal/campaign"
	"robustify/internal/fpu/faultmodel"
	"robustify/internal/obs"
	"robustify/internal/tune"
)

// workers is the fixed trial parallelism of every workload (campaign
// Spec.Workers, robustworker -parallel), so the load does not depend on
// the machine's core count.
const workers = 2

// sizes scales every workload and rung. The command line always runs
// fullSize; the smoke test runs smokeSize.
type sizes struct {
	figures      []string // figure ids run by the figures workload
	quick        bool     // scaled-down figure variants
	resumeTrials int      // trials per cell of c0001; the template holds the first half
	tuneRates    []float64
	tuneTrials   int
	tuneRounds   int
	tuneKnobs    []string // nil searches every declared knob
	setups       int      // boot-only rehearsals per untraced run
	pinned       bool     // outputs are pinned in golden.json
	rung         rungSize
}

var fullSize = sizes{
	figures:      []string{"6.2", "6.6", "robustloss"},
	resumeTrials: 25_000,
	tuneRates:    []float64{0.01, 0.05, 0.1},
	tuneTrials:   128,
	tuneRounds:   2,
	setups:       15,
	pinned:       true,
	rung: rungSize{
		ops: 200_000, batches: 7, trialSeeds: 1000, solves: 200,
		records: 20_000, lifecycles: 15, recovers: 3,
	},
}

var smokeSize = sizes{
	figures:      []string{"6.6"},
	quick:        true,
	resumeTrials: 200,
	tuneRates:    []float64{0.05},
	tuneTrials:   1,
	tuneRounds:   1,
	tuneKnobs:    []string{"budget"},
	setups:       1,
	rung: rungSize{
		ops: 1000, batches: 2, trialSeeds: 20, solves: 4,
		records: 200, lifecycles: 2, recovers: 1,
	},
}

// resumeRates is the fault-rate grid of the interrupted campaign.
var resumeRates = []float64{0.001, 0.01, 0.05, 0.1}

// workload is one set of inputs the benchmark runs. start builds a fresh
// system under dir and boots it, returning the CPU time from boot to
// ready (see bootClock), which is setup_s; staging that is not set-up
// proper, such as copying a template, happens before that clock starts.
type workload struct {
	name  string
	start func(e *env, dir string, tr *tracer) (system, time.Duration, error)
	// fixedSeed, when nonzero, is the seed of inputs that do not follow
	// --seed (see tuneSeed).
	fixedSeed uint64
}

// seed is the seed the workload's inputs derive from in run e.
func (w *workload) seed(e *env) uint64 {
	if w.fixedSeed != 0 {
		return w.fixedSeed
	}
	return e.seed
}

// system is one booted instance of a workload.
type system interface {
	// work runs the measured load and returns how many trials became
	// durable during it.
	work(tr *tracer) (fresh int, err error)
	// layers returns the traced rep's layer metrics; wall is the work's
	// duration.
	layers(wall time.Duration, fresh int) (map[string]float64, error)
	// outputs returns the result files by name, after checking them
	// against whatever reference the workload has.
	outputs() (map[string][]byte, error)
	close() error
}

var workloads = []*workload{
	{name: "figures", start: startFigures},
	{name: "resume-local", start: startResume(false)},
	{name: "resume-fleet", start: startResume(true)},
	{name: "tune", start: startTune, fixedSeed: tuneSeed},
}

// tuneSeed fixes the tune workload's search. Which configurations win
// depends on the seed, and they set the search's size and cost: over
// seeds 1-10 the same spec ran 33 to 73 evaluation campaigns (23,424 to
// 62,592 trials, CG or IRLS). A search per --seed would measure the
// seed, not the code.
const tuneSeed = 1

func workloadByName(name string) *workload {
	for _, w := range workloads {
		if w.name == name {
			return w
		}
	}
	return nil
}

func workloadNames() []string {
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return names
}

// figures: the robustbench -out path for full-size paper figures, with no
// hub and no fault observer.

type figuresSys struct {
	dir   string
	runs  []figureRun
	trial atomic.Int64 // ns spent inside trial functions (traced reps)
	iters atomic.Int64 // solver iteration marks (traced reps)
}

type figureRun struct {
	id   string
	camp *campaign.Campaign
	st   *campaign.Store
	exec *campaign.Execution
}

func startFigures(e *env, dir string, tr *tracer) (system, time.Duration, error) {
	s := &figuresSys{dir: dir}
	if tr != nil {
		faultmodel.SetUnitObserver(iterationCounter(nil, &s.iters))
	} else {
		faultmodel.SetUnitObserver(nil)
	}
	elapsed := bootClock()
	for _, id := range e.size.figures {
		end := tr.begin("campaign.Compile")
		camp, err := campaign.Compile(campaign.Spec{Figure: id, Seed: e.seed, Workers: workers, Quick: e.size.quick})
		end()
		if err != nil {
			return nil, 0, errors.Join(err, s.close())
		}
		if tr != nil {
			// Time each trial from outside the engine: the wrapper passes
			// the value through untouched.
			for i := range camp.Plan.Units {
				fn := camp.Plan.Units[i].Fn
				camp.Plan.Units[i].Fn = func(rate float64, seed uint64) float64 {
					t := time.Now()
					v := fn(rate, seed)
					s.trial.Add(int64(time.Since(t)))
					return v
				}
			}
		}
		end = tr.begin("campaign.Open")
		st, err := campaign.Open(filepath.Join(dir, figureFile(id)))
		end()
		if err != nil {
			return nil, 0, errors.Join(err, s.close())
		}
		end = tr.begin("campaign.NewExecution")
		exec := campaign.NewExecution(camp, st)
		end()
		s.runs = append(s.runs, figureRun{id: id, camp: camp, st: st, exec: exec})
	}
	return s, elapsed(), nil
}

// figureFile is robustbench's name for a figure's store directory and CSV
// stem (dots become underscores).
func figureFile(id string) string { return "fig-" + strings.ReplaceAll(id, ".", "_") }

// work saves each figure's spec, then runs it. The fsynced spec write is
// timed here rather than in the boot: its latency is the disk's, and the
// boot is too short to absorb it (see bootClock).
func (s *figuresSys) work(tr *tracer) (int, error) {
	fresh := 0
	for _, r := range s.runs {
		end := tr.begin("Store.SaveSpec")
		err := r.st.SaveSpec(r.camp.Spec)
		end()
		if err != nil {
			return fresh, fmt.Errorf("figure %s: %w", r.id, err)
		}
		end = tr.begin("Execution.Run")
		err = r.exec.Run(context.Background())
		end()
		if err != nil {
			return fresh, fmt.Errorf("figure %s: %w", r.id, err)
		}
		fresh += r.exec.Progress().Done
	}
	return fresh, nil
}

func (s *figuresSys) layers(wall time.Duration, fresh int) (map[string]float64, error) {
	m := engineLayers(time.Duration(s.trial.Load()).Seconds(), wall, fresh)
	m["solver.iter_marks_per_trial"] = float64(s.iters.Load()) / float64(fresh)
	return m, nil
}

// outputs renders each figure's CSV, and checks it against the table
// rebuilt from the store reopened from disk: the results must be
// durable, not just in memory.
func (s *figuresSys) outputs() (map[string][]byte, error) {
	outs := make(map[string][]byte)
	for i, r := range s.runs {
		live, err := csv(r.exec.Table().CSV)
		if err != nil {
			return nil, err
		}
		if err := r.st.Close(); err != nil {
			return nil, err
		}
		s.runs[i].st = nil
		st, err := campaign.Open(filepath.Join(s.dir, figureFile(r.id)))
		if err != nil {
			return nil, err
		}
		durable, err := csv(r.camp.TableFromStore(st).CSV)
		if cerr := st.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			return nil, err
		}
		if !bytes.Equal(live, durable) {
			return nil, fmt.Errorf("figure %s: table rebuilt from the reopened store differs from the live one", r.id)
		}
		outs[figureFile(r.id)+".csv"] = live
	}
	return outs, nil
}

func (s *figuresSys) close() error {
	var errs []error
	for _, r := range s.runs {
		if r.st != nil {
			errs = append(errs, r.st.Close())
		}
	}
	return errors.Join(errs...)
}

func csv(write func(io.Writer) error) ([]byte, error) {
	var b bytes.Buffer
	err := write(&b)
	return b.Bytes(), err
}

// engineLayers derives the engine metrics from the total time trials
// spent in their trial functions: the share of the trial goroutines'
// capacity they filled, and the per-trial time left over.
func engineLayers(trialSeconds float64, wall time.Duration, fresh int) map[string]float64 {
	capacity := workers * wall.Seconds()
	return map[string]float64{
		"engine.trial_busy_frac":       trialSeconds / capacity,
		"engine.overhead_us_per_trial": (capacity - trialSeconds) / float64(fresh) * 1e6,
	}
}

// daemon is robustd's wiring (see cmd/robustd): a campaign manager at the
// default concurrency, the tune manager inside its data root, and an
// observability hub whose fault observer every faulty unit gets.
type daemon struct {
	m     *campaign.Manager
	tm    *tune.Manager
	hub   *obs.Hub
	iters atomic.Int64 // solver iteration marks (traced reps)
}

func bootDaemon(root string, tr *tracer) (*daemon, error) {
	end := tr.begin("campaign.NewManager")
	m, err := campaign.NewManager(root, 0)
	end()
	if err != nil {
		return nil, err
	}
	end = tr.begin("tune.NewManager")
	tm, err := tune.NewManager(filepath.Join(root, "tunes"), m)
	end()
	if err != nil {
		m.Close()
		return nil, err
	}
	d := &daemon{m: m, tm: tm, hub: obs.NewHub()}
	m.SetHub(d.hub)
	tm.SetEvents(d.hub)
	m.AddMetrics(d.hub.WriteMetrics)
	m.AddMetrics(tm.WriteMetrics)
	if tr != nil {
		faultmodel.SetUnitObserver(iterationCounter(d.hub.Observer, &d.iters))
	} else {
		faultmodel.SetUnitObserver(d.hub.Observer)
	}
	return d, nil
}

// trialSeconds reads the hub's trial-latency histogram back from its
// Prometheus exposition: the total time in trial functions, each trial
// truncated to whole microseconds.
func (d *daemon) trialSeconds() float64 {
	var b bytes.Buffer
	d.hub.WriteMetrics(&b)
	return promSum(&b, "robustd_trial_duration_seconds_sum")
}

func (d *daemon) close() error {
	var errs []error
	if !d.tm.Shutdown(0) {
		errs = append(errs, errors.New("tune manager shut down unclean"))
	}
	if !d.m.Shutdown(0) {
		errs = append(errs, errors.New("campaign manager shut down unclean"))
	}
	faultmodel.SetUnitObserver(nil)
	return errors.Join(append(errs, d.hub.Close())...)
}

// tune: one parameter search on the robustd wiring.

type tuneSys struct {
	d    *daemon
	dir  string
	spec tune.Spec
	id   string
}

func startTune(e *env, dir string, tr *tracer) (system, time.Duration, error) {
	elapsed := bootClock()
	d, err := bootDaemon(dir, tr)
	if err != nil {
		return nil, 0, err
	}
	return &tuneSys{d: d, dir: dir, spec: tune.Spec{
		Workload: "leastsq/cg",
		Rates:    e.size.tuneRates,
		Trials:   e.size.tuneTrials,
		Rounds:   e.size.tuneRounds,
		Knobs:    e.size.tuneKnobs,
		Seed:     tuneSeed,
		Workers:  workers,
	}}, elapsed(), nil
}

func (s *tuneSys) work(tr *tracer) (int, error) {
	end := tr.begin("tune.Submit")
	id, err := s.d.tm.Submit(s.spec)
	end()
	if err != nil {
		return 0, err
	}
	s.id = id
	end = tr.begin("tune.Wait")
	err = s.d.tm.Wait(id)
	end()
	if err != nil {
		return 0, err
	}
	st, err := s.d.tm.Get(id)
	if err != nil {
		return 0, err
	}
	if st.State != tune.StateDone {
		return 0, fmt.Errorf("tune %s ended %s: %s", id, st.State, st.Error)
	}
	fresh := 0
	for _, c := range s.d.m.List() {
		fresh += c.Progress.Done
	}
	return fresh, nil
}

// layers adds the tune metrics to the engine ones: the number of
// evaluation campaigns, and the share of the search's wall time during
// which at least one of them was running trials (the rest is the
// per-campaign lifecycle: directories, spec/meta/trace writes, waits).
func (s *tuneSys) layers(wall time.Duration, fresh int) (map[string]float64, error) {
	m := engineLayers(s.d.trialSeconds(), wall, fresh)
	m["solver.iter_marks_per_trial"] = float64(s.d.iters.Load()) / float64(fresh)
	st, err := s.d.tm.Get(s.id)
	if err != nil {
		return nil, err
	}
	m["tune.campaigns_per_search"] = float64(len(st.Evals))
	var running []interval
	for _, c := range s.d.m.List() {
		if c.Started == nil || c.Finished == nil {
			return nil, fmt.Errorf("campaign %s has no running interval", c.ID)
		}
		running = append(running, interval{*c.Started, *c.Finished})
	}
	m["tune.compute_frac"] = covered(running).Seconds() / wall.Seconds()
	return m, nil
}

type interval struct{ start, end time.Time }

// covered is the length of the union of the intervals; it sorts xs.
func covered(xs []interval) time.Duration {
	sort.Slice(xs, func(i, j int) bool { return xs[i].start.Before(xs[j].start) })
	var total time.Duration
	var cur interval
	for i, x := range xs {
		switch {
		case i == 0:
			cur = x
		case x.start.After(cur.end):
			total += cur.end.Sub(cur.start)
			cur = x
		case x.end.After(cur.end):
			cur.end = x.end
		}
	}
	if len(xs) > 0 {
		total += cur.end.Sub(cur.start)
	}
	return total
}

func (s *tuneSys) outputs() (map[string][]byte, error) {
	b, err := os.ReadFile(filepath.Join(s.dir, "tunes", s.id, "tune.json"))
	if err != nil {
		return nil, err
	}
	return map[string][]byte{"tune.json": b}, nil
}

func (s *tuneSys) close() error { return s.d.close() }

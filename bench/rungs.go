package main

import (
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"robustify/internal/apps/leastsq"
	"robustify/internal/campaign"
	"robustify/internal/fpu"
	"robustify/internal/fpu/faultmodel"
	"robustify/internal/obs"
	"robustify/internal/robust"
)

// The rungs time one layer at a time, below the workloads: an FPU
// operation, a batched kernel, a solver iteration, one trial, a store
// append and replay, a telemetry append, a campaign lifecycle and a
// recovery. Allocation counts come from testing.AllocsPerRun on inputs
// that repeat exactly, so they are exact and machine-independent.

// rungSize scales the rungs.
type rungSize struct {
	ops        int // operations per timed batch of the FPU rungs
	batches    int // timed batches per rung; the median is reported
	trialSeeds int // trials per trial rung
	solves     int // solves per solver rung
	records    int // store records per store rung
	lifecycles int // Submit→Wait samples
	recovers   int // recovery samples
}

// Package-level sinks keep the compiler from removing measured calls.
var (
	sinkF float64
	sinkX []float64
)

// rungs runs every rung and returns its metrics.
func (e *env) rungs() (map[string]float64, error) {
	faultmodel.SetUnitObserver(nil)
	m := make(map[string]float64)
	e.fpuRungs(m)
	if err := e.solverRungs(m); err != nil {
		return nil, err
	}
	if err := e.trialRungs(m); err != nil {
		return nil, err
	}
	if err := e.storeRungs(m); err != nil {
		return nil, err
	}
	if err := e.managerRungs(m); err != nil {
		return nil, err
	}
	return m, nil
}

// nsPerOp times batches of n calls of op(n) and returns the median
// nanoseconds per call, after one untimed warm-up batch.
func (e *env) nsPerOp(n int, op func(n int)) float64 {
	op(n)
	xs := make([]float64, e.size.rung.batches)
	for i := range xs {
		t0 := time.Now()
		op(n)
		xs[i] = float64(time.Since(t0).Nanoseconds()) / float64(n)
	}
	return median(xs)
}

func ramp(n int) []float64 {
	x := make([]float64, n)
	for i := range x {
		x[i] = 1 / float64(i+1)
	}
	return x
}

// fpuRungs time the scalar unit under the default fault model at rate
// 1e-4 (and reliable), and the batched kernels at three sizes.
func (e *env) fpuRungs(m map[string]float64) {
	ops := e.size.rung.ops
	faulty := fpu.New(fpu.WithFaultRate(1e-4, e.seed))
	reliable := fpu.New()
	addMul := func(u *fpu.Unit) func(int) {
		return func(n int) {
			s := 0.0
			for i := 0; i < n; i++ {
				s = u.Add(s, u.Mul(1.0000001, 0.999999))
			}
			sinkF = s
		}
	}
	dot := func(n int) func(int) {
		a, b := ramp(n), ramp(n)
		return func(k int) {
			for i := 0; i < k; i++ {
				sinkF = faulty.Dot(a, b)
			}
		}
	}
	a, x, y := ramp(30*6), ramp(6), ramp(30)
	gemv := func(k int) {
		for i := 0; i < k; i++ {
			faulty.Gemv(a, 30, 6, x, y)
		}
	}
	axpy := func(k int) {
		for i := 0; i < k; i++ {
			faulty.Axpy(1e-9, y, y)
		}
	}
	m["fpu.add_mul_ns"] = e.nsPerOp(ops, addMul(faulty))
	m["fpu.add_mul_reliable_ns"] = e.nsPerOp(ops, addMul(reliable))
	m["fpu.dot_ns.n6"] = e.nsPerOp(ops/6, dot(6))
	m["fpu.dot_ns.n30"] = e.nsPerOp(ops/30, dot(30))
	m["fpu.dot_ns.n4096"] = e.nsPerOp(max(1, ops/4096), dot(4096))
	m["fpu.gemv_ns.30x6"] = e.nsPerOp(ops/180, gemv)
	m["fpu.axpy_ns.n30"] = e.nsPerOp(ops/30, axpy)

	var worst float64
	for _, op := range []func(int){addMul(faulty), addMul(reliable), dot(6), dot(30), dot(4096), gemv, axpy} {
		worst = max(worst, testing.AllocsPerRun(100, func() { op(1) }))
	}
	m["fpu.allocs_per_op"] = worst
}

// solverRungs time CG, SGD and IRLS (Huber loss) solves of one 30x6
// least-squares instance at fault rate 0.01, each on a fresh unit.
func (e *env) solverRungs(m map[string]float64) error {
	inst, err := leastsq.Random(rand.New(rand.NewSource(int64(e.seed))), 30, 6, 0.01)
	if err != nil {
		return err
	}
	sched := inst.LinearSchedule(8)
	huber, err := robust.New(robust.Huber, 0)
	if err != nil {
		return err
	}
	// solve returns the work units its time is divided by: iterations,
	// or 1 for a per-solve metric.
	type solver struct {
		name, metric string
		solve        func(u *fpu.Unit) (units int, err error)
	}
	solvers := []solver{
		{"cg", "solver.cg_us_per_iter", func(u *fpu.Unit) (int, error) {
			x, res, err := inst.SolveCG(u, 10, 0)
			sinkX = x
			return res.Iters, err
		}},
		{"sgd", "solver.sgd_us_per_iter", func(u *fpu.Unit) (int, error) {
			x, res, err := inst.SolveSGD(u, leastsq.SGDOptions{Iters: 400, Schedule: sched})
			sinkX = x
			return res.Iters, err
		}},
		{"irls", "solver.irls_us_per_solve", func(u *fpu.Unit) (int, error) {
			x, _, err := inst.SolveIRLS(u, huber, 4, 10, 0)
			sinkX = x
			return 1, err
		}},
	}
	n := e.size.rung.solves
	for _, s := range solvers {
		var us []float64
		for b := 0; b < e.size.rung.batches; b++ {
			units := make([]*fpu.Unit, n)
			for i := range units {
				units[i] = fpu.New(fpu.WithFaultRate(0.01, e.seed+uint64(i)))
			}
			work := 0
			t0 := time.Now()
			for _, u := range units {
				k, err := s.solve(u)
				if err != nil {
					return fmt.Errorf("%s solve: %w", s.name, err)
				}
				work += k
			}
			us = append(us, time.Since(t0).Seconds()*1e6/float64(max(1, work)))
		}
		m[s.metric] = median(us)
		// Every measured call gets an identically seeded unit, so each
		// solve allocates exactly the same.
		units := make([]*fpu.Unit, 21)
		for i := range units {
			units[i] = fpu.New(fpu.WithFaultRate(0.01, e.seed))
		}
		next := 0
		allocs := testing.AllocsPerRun(len(units)-1, func() {
			s.solve(units[next])
			next++
		})
		m["solver.allocs_per_solve."+s.name] = allocs
	}
	return nil
}

// trialRungs report the median time of single trials of the registered
// workloads the daemon workloads run, over a fixed set of seeds, at fault
// rate 0.01.
func (e *env) trialRungs(m map[string]float64) error {
	for _, r := range []struct {
		metric, workload string
		params           map[string]float64
	}{
		{"trial.sort_base_us", "sort/base", nil},
		{"trial.leastsq_cg_us", "leastsq/cg", nil},
		{"trial.leastsq_cg_huber_us", "leastsq/cg", map[string]float64{"loss": 1}},
	} {
		w, err := campaign.WorkloadByName(r.workload)
		if err != nil {
			return err
		}
		params := w.DefaultParams()
		for k, v := range r.params {
			params[k] = v
		}
		fn := w.Build(w.DefaultIters, params, (*faultmodel.Spec)(nil).Unit)
		xs := make([]float64, e.size.rung.trialSeeds)
		for i := range xs {
			seed := e.seed<<20 + uint64(i)
			t0 := time.Now()
			sinkF = fn(0.01, seed)
			xs[i] = time.Since(t0).Seconds() * 1e6
		}
		m[r.metric] = median(xs)
	}
	return nil
}

// storeRungs time Store.Put from one and from two goroutines, Store.Open
// replay, and a telemetry append, over the resume workloads' record
// stream.
func (e *env) storeRungs(m map[string]float64) error {
	camp, err := campaign.Compile(resumeSpec(e.seed, e.size.resumeTrials))
	if err != nil {
		return err
	}
	u := camp.Plan.Units[0]
	n := e.size.rung.records
	recs := make([]campaign.Record, n)
	for i := range recs {
		r, t := i%len(u.Sweep.Rates), i/len(u.Sweep.Rates)
		recs[i] = campaign.Record{
			Unit: 0, RateIdx: r, TrialIdx: t, Rate: u.Sweep.Rates[r],
			Seed: u.Sweep.TrialSeed(r, t), Value: 1, Series: u.Series,
		}
	}
	dir, err := os.MkdirTemp(e.dir, "store-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)

	// put writes recs into a fresh store from the given number of
	// goroutines and returns the wall time per record.
	var stores int
	put := func(writers int) (float64, string, error) {
		stores++
		path := filepath.Join(dir, fmt.Sprint(stores))
		st, err := campaign.Open(path)
		if err != nil {
			return 0, "", err
		}
		errs := make([]error, writers)
		var wg sync.WaitGroup
		t0 := time.Now()
		for w := 0; w < writers; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := w; i < n && errs[w] == nil; i += writers {
					_, errs[w] = st.Put(recs[i])
				}
			}()
		}
		wg.Wait()
		d := time.Since(t0)
		if writers == 1 {
			m["store.bytes_per_record"] = float64(st.Size()) / float64(n)
		}
		errs = append(errs, st.Close())
		return d.Seconds() * 1e6 / float64(n), path, errors.Join(errs...)
	}
	var one, two, replay []float64
	for b := 0; b < e.size.rung.batches; b++ {
		us, path, err := put(1)
		if err != nil {
			return err
		}
		one = append(one, us)
		if us, _, err = put(2); err != nil {
			return err
		}
		two = append(two, us)
		t0 := time.Now()
		st, err := campaign.Open(path)
		if err != nil {
			return err
		}
		replay = append(replay, time.Since(t0).Seconds()*1e6/float64(n))
		if err := st.Close(); err != nil {
			return err
		}
	}
	m["store.put_us.1w"] = median(one)
	m["store.put_us.2w"] = median(two)
	m["store.replay_us_per_record"] = median(replay)

	tel, err := obs.OpenTelemetry(dir)
	if err != nil {
		return err
	}
	var appends []float64
	for b := 0; b < e.size.rung.batches; b++ {
		t0 := time.Now()
		for _, r := range recs {
			if err := tel.Append("trial", obs.TrialRecord{
				Campaign: "c0001", Unit: u.Series, Series: u.Series,
				RateIdx: r.RateIdx, TrialIdx: r.TrialIdx, Rate: r.Rate, Seed: r.Seed,
				Value: obs.Float(r.Value), DurationMicros: 14,
			}); err != nil {
				return errors.Join(err, tel.Close())
			}
		}
		appends = append(appends, time.Since(t0).Seconds()*1e6/float64(n))
	}
	m["obs.telemetry_append_us"] = median(appends)
	return tel.Close()
}

// managerRungs time a one-trial campaign's whole lifecycle (Submit to
// Wait) on the robustd wiring, and recovery (NewManager) of the resume
// workloads' data root.
func (e *env) managerRungs(m map[string]float64) error {
	dir, err := os.MkdirTemp(e.dir, "manager-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	d, err := bootDaemon(filepath.Join(dir, "lifecycle"), nil)
	if err != nil {
		return err
	}
	var life []float64
	for i := 0; i < e.size.rung.lifecycles && err == nil; i++ {
		t0 := time.Now()
		var id string
		id, err = d.m.Submit(campaign.Spec{
			Custom:  &campaign.CustomSweep{Workload: "sort/base", Rates: []float64{0.01}},
			Trials:  1,
			Seed:    e.seed + uint64(i),
			Workers: workers,
		})
		if err == nil {
			err = d.m.Wait(id)
		}
		life = append(life, time.Since(t0).Seconds()*1e3)
	}
	if err = errors.Join(err, d.close()); err != nil {
		return err
	}
	m["manager.lifecycle_ms"] = median(life)

	fix, err := e.resumeFixture()
	if err != nil {
		return err
	}
	var recovery []float64
	for i := 0; i < e.size.rung.recovers; i++ {
		root := filepath.Join(dir, fmt.Sprint("recovery", i))
		if err := copyTree(fix.root, root); err != nil {
			return err
		}
		t0 := time.Now()
		cm, err := campaign.NewManager(root, 0)
		if err != nil {
			return err
		}
		recovery = append(recovery, time.Since(t0).Seconds()*1e3)
		if !cm.Shutdown(0) {
			return errors.New("recovered manager shut down unclean")
		}
	}
	m["manager.recover_ms"] = median(recovery)
	return nil
}

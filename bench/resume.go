package main

import (
	"bytes"
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"time"

	"robustify/internal/campaign"
)

// resume-local and resume-fleet boot robustd's wiring over a data root
// holding one interrupted campaign, c0001, resume it and wait: the daemon
// restart path. Trials are short (quicksort on five elements), so the
// per-trial costs around them dominate.

// resumeFixture is built once per run and copied for every rep.
type resumeFixture struct {
	root string // data root holding the interrupted c0001
	csv  []byte // reference table: the plan built eagerly, without a store
}

func resumeSpec(seed uint64, trials int) campaign.Spec {
	return campaign.Spec{
		Custom:  &campaign.CustomSweep{Workload: "sort/base", Rates: resumeRates},
		Trials:  trials,
		Seed:    seed,
		Workers: workers,
	}
}

// resumeFixture writes the interrupted campaign: its spec and, for every
// cell, the first half of its trials, computed by the compiled plan's own
// trial function. There is no meta.json, so recovery classifies c0001
// from its store as interrupted, as after a crash.
func (e *env) resumeFixture() (*resumeFixture, error) {
	if e.resume != nil {
		return e.resume, nil
	}
	spec := resumeSpec(e.seed, e.size.resumeTrials)
	camp, err := campaign.Compile(spec)
	if err != nil {
		return nil, err
	}
	root := filepath.Join(e.dir, "template")
	st, err := campaign.Open(filepath.Join(root, "c0001"))
	if err != nil {
		return nil, err
	}
	err = st.SaveSpec(spec)
	u := camp.Plan.Units[0]
	for r, rate := range u.Sweep.Rates {
		for t := 0; t < e.size.resumeTrials/2 && err == nil; t++ {
			seed := u.Sweep.TrialSeed(r, t)
			_, err = st.Put(campaign.Record{
				Unit: 0, RateIdx: r, TrialIdx: t, Rate: rate, Seed: seed,
				Value: u.Fn(rate, seed), Series: u.Series,
			})
		}
	}
	if cerr := st.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return nil, fmt.Errorf("resume template: %w", err)
	}
	ref, err := csv(camp.Plan.Build().CSV)
	if err != nil {
		return nil, err
	}
	e.resume = &resumeFixture{root: root, csv: ref}
	return e.resume, nil
}

func copyTree(src, dst string) error {
	return filepath.WalkDir(src, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(src, path)
		if err != nil {
			return err
		}
		target := filepath.Join(dst, rel)
		if d.IsDir() {
			return os.MkdirAll(target, 0o755)
		}
		b, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		return os.WriteFile(target, b, 0o644)
	})
}

type resumeSys struct {
	d     *daemon
	fix   *resumeFixture
	fleet *fleet // nil for resume-local
	route routeStats
}

// startResume returns the start function of resume-local (dispatched
// false) or resume-fleet. Boot is recovery of the data root plus, for
// the fleet, the coordinator and one robustworker up to its
// registration.
func startResume(dispatched bool) func(e *env, dir string, tr *tracer) (system, time.Duration, error) {
	return func(e *env, dir string, tr *tracer) (system, time.Duration, error) {
		fix, err := e.resumeFixture()
		if err != nil {
			return nil, 0, err
		}
		var bin string
		if dispatched {
			if bin, err = e.workerBinary(); err != nil {
				return nil, 0, err
			}
		}
		if err := copyTree(fix.root, dir); err != nil {
			return nil, 0, err
		}
		elapsed := bootClock()
		d, err := bootDaemon(dir, tr)
		if err != nil {
			return nil, 0, err
		}
		s := &resumeSys{d: d, fix: fix}
		if dispatched {
			if s.fleet, err = startFleet(d, bin, tr); err != nil {
				return nil, 0, errors.Join(err, d.close())
			}
		}
		return s, elapsed(), nil
	}
}

func (s *resumeSys) work(tr *tracer) (int, error) {
	status := func() (campaign.Status, error) { return s.d.m.Get("c0001") }
	before, err := status()
	if err != nil {
		return 0, err
	}
	if before.State != campaign.StateInterrupted {
		return 0, fmt.Errorf("c0001 recovered as %s, want %s", before.State, campaign.StateInterrupted)
	}
	if s.fleet != nil {
		s.fleet.rec.reset()
	}
	end := tr.begin("Manager.ResumeInterrupted")
	ids := s.d.m.ResumeInterrupted()
	end()
	if len(ids) != 1 {
		return 0, fmt.Errorf("resumed %v, want [c0001]", ids)
	}
	end = tr.begin("Manager.Wait")
	err = s.d.m.Wait("c0001")
	end()
	if s.fleet != nil {
		s.route = s.fleet.rec.snapshot()
	}
	if err != nil {
		return 0, err
	}
	after, err := status()
	if err != nil {
		return 0, err
	}
	if after.State != campaign.StateDone {
		return 0, fmt.Errorf("c0001 ended %s: %s", after.State, after.Error)
	}
	if s.fleet != nil {
		if n := s.fleet.disp.Stats().RejectedResults; n > 0 {
			return 0, fmt.Errorf("coordinator rejected %d worker results", n)
		}
		if s.route.failed > 0 {
			return 0, fmt.Errorf("%d worker-route requests answered non-2xx", s.route.failed)
		}
	}
	return after.Progress.Done - before.Progress.Done, nil
}

func (s *resumeSys) layers(wall time.Duration, fresh int) (map[string]float64, error) {
	if s.fleet != nil {
		return s.fleet.layers(s.route, wall, fresh)
	}
	m := engineLayers(s.d.trialSeconds(), wall, fresh)
	m["solver.iter_marks_per_trial"] = float64(s.d.iters.Load()) / float64(fresh)
	return m, nil
}

// outputs checks c0001's table against the reference built without a
// store: resuming, local or dispatched, must not change a byte.
func (s *resumeSys) outputs() (map[string][]byte, error) {
	t, err := s.d.m.Table("c0001")
	if err != nil {
		return nil, err
	}
	b, err := csv(t.CSV)
	if err != nil {
		return nil, err
	}
	if !bytes.Equal(b, s.fix.csv) {
		return nil, errors.New("c0001.csv differs from the table the plan builds without a store")
	}
	return map[string][]byte{"c0001.csv": b}, nil
}

func (s *resumeSys) close() error {
	var err error
	if s.fleet != nil {
		err = s.fleet.close()
	}
	return errors.Join(err, s.d.close())
}

package tune

import (
	"context"
	"fmt"
	"io"
	"log"
	"os"
	"path/filepath"
	"sync"

	"robustify/internal/campaign"
	"robustify/internal/job"
	"robustify/internal/obs"
)

// traceFile is the durable search state of one tune run, written
// atomically (temp + rename) inside the run's directory under the tune
// root.
const traceFile = "tune.json"

// Manager schedules tune runs. Every run drives its search on its own
// goroutine, evaluating candidates as campaigns submitted through the
// wrapped campaign.Manager — which is what makes each evaluation
// durable, resumable, and (when a dispatcher is attached) distributed.
// The lifecycle is package job's, the same one campaigns follow: run
// state persists to <root>/<id>/tune.json, a resumed run executes only
// the rest of the search, to a trace byte-identical to an uninterrupted
// run, and a new manager over the same root recovers every prior run,
// classifying ownerless unfinished traces as interrupted. A shutdown
// (Interrupt first, so no new evaluation campaigns are submitted while
// the campaign manager winds down) leaves in-flight searches interrupted
// for a successor's autoresume.
type Manager struct {
	*jobs
	cm *campaign.Manager
}

// jobs is the embedded lifecycle manager; the alias keeps the field
// unexported while its SetEvents, Resume, ResumeInterrupted, Cancel,
// Wait, Interrupt, Close, and Shutdown become the tune Manager's.
type jobs = job.Manager

// run is one tune run's domain side of its job.
type run struct {
	m    *Manager
	id   string
	dir  string
	spec Spec
	w    campaign.Workload

	mu sync.Mutex
	// trace.State and trace.Error mirror the job's: every transition
	// passes through Persist.
	trace *Trace
	// adoptAt is the evaluation ordinal at which this drive attempt
	// started: the only ordinal whose campaign may already exist without
	// a trace entry (the previous daemon died between submitting it and
	// persisting the trace), and therefore the only submission that pays
	// the adoption scan.
	adoptAt int
}

// Status is the externally visible state of one tune run.
type Status struct {
	ID    string `json:"id"`
	Name  string `json:"name"`
	State string `json:"state"`
	Error string `json:"error,omitempty"`
	Spec  Spec   `json:"spec"`
	// EvalsSubmitted and EvalsCompleted count candidate evaluations; the
	// search's total is not known up front (rounds can end early).
	EvalsSubmitted int `json:"evals_submitted"`
	EvalsCompleted int `json:"evals_completed"`
	// Best is the best-so-far trajectory; Final the winning
	// configuration once done.
	Best           []BestStep         `json:"best,omitempty"`
	Final          map[string]float64 `json:"final,omitempty"`
	FinalObjective *float64           `json:"final_objective,omitempty"`
	// Evals is the per-candidate table (detailed status only).
	Evals []Eval `json:"evals,omitempty"`
}

// NewManager creates a tune manager storing run traces under root and
// recovers every run a previous daemon left there. It does not take its
// own lock: the campaign manager's data-root flock already serializes
// daemon ownership, and the tune root is expected to live inside it.
func NewManager(root string, cm *campaign.Manager) (*Manager, error) {
	if err := os.MkdirAll(root, 0o755); err != nil {
		return nil, fmt.Errorf("tune: root: %w", err)
	}
	m := &Manager{cm: cm}
	jobs, err := job.New(root, job.Kind{
		Name: "tune", Noun: "run", Prefix: 't',
		Load: m.load,
		// A crash can cut a Submit short between creating the directory
		// and renaming its first trace into place.
		HuskEntry: func(name string, _ int64) bool { return name == traceFile+".tmp" },
	})
	if err != nil {
		return nil, err
	}
	m.jobs = jobs
	return m, nil
}

// load rebuilds one run from its trace; nil when dir holds none.
func (m *Manager) load(id, dir string) (*job.Recovered, error) {
	tr, err := readTrace(dir)
	if err != nil || tr == nil {
		return nil, err
	}
	if err := tr.Spec.Validate(); err != nil {
		return nil, err
	}
	for _, e := range tr.Evals {
		if e == nil {
			return nil, fmt.Errorf("tune: %s holds a null evaluation", traceFile)
		}
	}
	w, _ := WorkloadFor(&tr.Spec)
	r := &run{m: m, id: id, dir: dir, spec: tr.Spec, w: w, trace: tr}
	return &job.Recovered{Work: r, Record: job.Record{State: tr.State, Error: tr.Error}}, nil
}

// Submit validates the spec, allocates a run directory, persists the
// initial trace, and starts the search. It returns the run id
// immediately; the search proceeds in the background.
func (m *Manager) Submit(spec Spec) (string, error) {
	if err := spec.Validate(); err != nil {
		return "", err
	}
	w, err := WorkloadFor(&spec)
	if err != nil {
		return "", err
	}
	return m.jobs.Submit(spec.Title(), func(id, dir string) (job.Work, error) {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return nil, err
		}
		return &run{m: m, id: id, dir: dir, spec: spec, w: w, trace: &Trace{ID: id, Spec: spec}}, nil
	})
}

// List returns every run's status in submission order.
func (m *Manager) List() []Status {
	jobs := m.jobs.Jobs()
	out := make([]Status, 0, len(jobs))
	for _, j := range jobs {
		out = append(out, j.Work().(*run).status(false))
	}
	return out
}

func (m *Manager) lookup(id string) (*run, error) {
	j, err := m.jobs.Lookup(id)
	if err != nil {
		return nil, err
	}
	return j.Work().(*run), nil
}

// Get returns one run's status with the per-candidate table.
func (m *Manager) Get(id string) (Status, error) {
	r, err := m.lookup(id)
	if err != nil {
		return Status{}, err
	}
	return r.status(true), nil
}

// Trace returns a deep copy of the run's current trace.
func (m *Manager) Trace(id string) (*Trace, error) {
	r, err := m.lookup(id)
	if err != nil {
		return nil, err
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.trace.clone(), nil
}

// Drive runs the search; on success the winner lands in the trace, which
// the job layer persists with the done state.
func (r *run) Drive(ctx context.Context) error {
	best, obj, err := r.search(ctx, r.m.cm)
	if err != nil {
		return err
	}
	r.mu.Lock()
	r.trace.Final = best
	r.trace.FinalObjective = &obj
	r.mu.Unlock()
	return nil
}

// Persist writes the trace with the job's state.
func (r *run) Persist(rec job.Record) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.trace.State, r.trace.Error = rec.State, rec.Error
	return writeTrace(r.dir, r.trace)
}

// Prepare has nothing to reopen: the trace stays in memory.
func (r *run) Prepare() error { return nil }

// Cancelled cancels the run's pending evaluation campaigns. It runs on
// Cancel — an interrupted run's orphaned evaluations would otherwise be
// resurrected by campaign-level -autoresume on the next boot, burning
// compute for a search the operator cancelled — and again once the
// cancelled search has exited, catching an evaluation submitted between
// the first sweep and the search noticing its context.
func (r *run) Cancelled() {
	var pending []string
	r.mu.Lock()
	for _, e := range r.trace.Evals {
		if e.Objective == nil {
			pending = append(pending, e.Campaign)
		}
	}
	r.mu.Unlock()
	for _, cid := range pending {
		if err := r.m.cm.Cancel(cid); err != nil {
			log.Printf("tune: cancel evaluation %s: %v", cid, err)
		}
	}
}

// Release holds nothing open: traces are written whole.
func (r *run) Release() error { return nil }

// search replays the deterministic search against the trace: already
// completed evaluations are served from it, evaluations submitted
// before a crash are adopted (their campaigns re-attached by name) and
// finished, and only genuinely new candidates submit new campaigns.
func (r *run) search(ctx context.Context, cm *campaign.Manager) (map[string]float64, float64, error) {
	r.mu.Lock()
	cache := make(map[string]*Eval, len(r.trace.Evals))
	for _, e := range r.trace.Evals {
		cache[paramsKey(e.Params, e.Trials)] = e
	}
	r.adoptAt = len(r.trace.Evals)
	r.mu.Unlock()

	batch := func(configs []map[string]float64, trials int) ([]float64, error) {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		r.emit("tune.rung", fmt.Sprintf("candidates=%d trials=%d", len(configs), trials))
		// Submission pass, in candidate order: ordinals, seeds, and
		// campaign names are fixed by this order alone. The context is
		// re-checked per candidate so a cancelled search stops submitting
		// mid-rung instead of launching the rest of it.
		entries := make([]*Eval, len(configs))
		for i, cfg := range configs {
			if err := ctx.Err(); err != nil {
				return nil, err
			}
			k := paramsKey(cfg, trials)
			if e, ok := cache[k]; ok {
				entries[i] = e
				continue
			}
			e, err := r.submitEval(cm, cfg, trials)
			if err != nil {
				return nil, err
			}
			cache[k] = e
			entries[i] = e
		}
		// Completion pass, also in candidate order, so the best-so-far
		// trajectory appends deterministically.
		out := make([]float64, len(configs))
		for i, e := range entries {
			if e.Objective != nil {
				out[i] = *e.Objective
				continue
			}
			if err := waitCampaign(ctx, cm, e.Campaign); err != nil {
				return nil, err
			}
			table, err := cm.Table(e.Campaign)
			if err != nil {
				return nil, err
			}
			obj := objective(table, r.w.Maximize)
			r.completeEval(e, obj)
			r.emit("tune.eval", fmt.Sprintf("e%04d objective=%g", e.N, obj))
			out[i] = obj
		}
		return out, nil
	}
	return searchLoop(&r.spec, r.w, batch)
}

// submitEval creates (or adopts) the campaign backing one evaluation
// and appends it to the trace. If a campaign with the evaluation's
// deterministic name already exists — the previous daemon died between
// submitting it and persisting the trace — it is adopted instead of
// resubmitted, keeping campaign ids aligned with an uninterrupted run.
func (r *run) submitEval(cm *campaign.Manager, cfg map[string]float64, trials int) (*Eval, error) {
	r.mu.Lock()
	n := len(r.trace.Evals)
	adopt := n == r.adoptAt
	r.mu.Unlock()
	e := &Eval{
		N:      n,
		Params: cloneParams(cfg),
		Trials: trials,
		Seed:   EvalSeed(r.spec.Seed, n),
	}
	name := fmt.Sprintf("%s/e%04d", r.id, n)
	cspec := campaign.Spec{
		Name: name,
		Custom: &campaign.CustomSweep{
			Workload: r.spec.Workload,
			Rates:    append([]float64(nil), r.spec.Rates...),
			Iters:    r.spec.Iters,
			Agg:      r.spec.Agg,
			Params:   cloneParams(cfg),
		},
		Trials:     trials,
		Seed:       e.Seed,
		Workers:    r.spec.Workers,
		FaultModel: r.spec.FaultModel,
	}
	adopted := false
	if adopt {
		// Only the first submission of a drive attempt can collide with a
		// campaign the previous daemon created but never recorded; later
		// ordinals were created by this attempt, so skipping the
		// O(history) scan for them keeps evaluations cheap.
		if st, ok := campaignByName(cm, name); ok {
			if !campaign.ResumeCompatible(st.Spec, cspec) {
				return nil, fmt.Errorf("tune: campaign %s (%s) exists with an incompatible spec", st.ID, name)
			}
			e.Campaign = st.ID
			adopted = true
		}
	}
	if !adopted {
		id, err := cm.Submit(cspec)
		if err != nil {
			return nil, err
		}
		e.Campaign = id
	}
	r.mu.Lock()
	r.trace.Evals = append(r.trace.Evals, e)
	r.persistLocked()
	r.mu.Unlock()
	return e, nil
}

// completeEval records an evaluation's objective and extends the
// best-so-far trajectory.
func (r *run) completeEval(e *Eval, obj float64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	o := obj
	e.Objective = &o
	improved := len(r.trace.Best) == 0
	if !improved {
		last := r.trace.Best[len(r.trace.Best)-1].Objective
		if r.w.Maximize {
			improved = obj > last
		} else {
			improved = obj < last
		}
	}
	if improved {
		r.trace.Best = append(r.trace.Best, BestStep{
			Eval: e.N, Params: cloneParams(e.Params), Objective: obj,
		})
	}
	r.persistLocked()
}

// waitCampaign blocks until the evaluation's campaign completes. A
// campaign that lands in any resumable state while the search is still
// alive — failed on a transient error, cancelled by an operator, or
// interrupted in a shutdown race — is resumed a bounded number of times
// before giving up. Retrying failed campaigns matters beyond
// transients: a tune run that went StateFailed because one evaluation
// failed would otherwise be unresumable in practice, replaying straight
// into the campaign's persisted error (which survives daemon restarts
// via meta.json) without re-executing anything.
func waitCampaign(ctx context.Context, cm *campaign.Manager, id string) error {
	for attempt := 0; ; attempt++ {
		// The wait must not outlive the search: a cancelled tune run
		// returns here immediately instead of sitting out the rest of the
		// rung.
		j, err := cm.Lookup(id)
		if err != nil {
			return err
		}
		select {
		case <-j.Done():
		case <-ctx.Done():
			return ctx.Err()
		}
		st := j.Record()
		if st.State == campaign.StateDone {
			return nil
		}
		if err := ctx.Err(); err != nil {
			return err
		}
		if attempt >= 5 {
			if st.State == campaign.StateFailed {
				return fmt.Errorf("tune: evaluation campaign %s failed: %s", id, st.Error)
			}
			return fmt.Errorf("tune: evaluation campaign %s stuck in state %s", id, st.State)
		}
		if err := cm.Resume(id); err != nil {
			// A concurrent autoresume may have beaten us; just wait again.
			log.Printf("tune: resume evaluation %s: %v", id, err)
		}
	}
}

// emit forwards one search-progress event, labeled with the run id.
func (r *run) emit(kind, detail string) {
	if sink := r.m.Events(); sink != nil {
		sink.Emit(kind, r.id, detail)
	}
}

// WriteMetrics appends the tune layer's Prometheus families — runs by
// state and evaluation progress. robustd registers it on the campaign
// manager's /metrics via AddMetrics, so both layers share one scrape.
func (m *Manager) WriteMetrics(w io.Writer) {
	counts := m.jobs.Counts()
	var submitted, completed int
	for _, s := range m.List() {
		submitted += s.EvalsSubmitted
		completed += s.EvalsCompleted
	}
	p := obs.NewProm(w)
	p.Family("robustd_tune_runs", "gauge", "Tune runs in the registry by lifecycle state.")
	for _, state := range []string{StateRunning, StateDone, StateFailed, StateInterrupted, StateCancelled} {
		p.Int("robustd_tune_runs", int64(counts[state]), "state", state)
	}
	p.Family("robustd_tune_evals", "gauge", "Candidate evaluations across all tune runs.")
	p.Int("robustd_tune_evals", int64(submitted), "kind", "submitted")
	p.Int("robustd_tune_evals", int64(completed), "kind", "completed")
}

// campaignByName finds a campaign by its (deterministic) display name.
func campaignByName(cm *campaign.Manager, name string) (campaign.Status, bool) {
	for _, st := range cm.List() {
		if st.Name == name {
			return st, true
		}
	}
	return campaign.Status{}, false
}

func (r *run) status(withEvals bool) Status {
	r.mu.Lock()
	tr := r.trace.clone()
	r.mu.Unlock()
	s := Status{
		ID:             r.id,
		Name:           r.spec.Title(),
		State:          tr.State,
		Error:          tr.Error,
		Spec:           r.spec,
		EvalsSubmitted: len(tr.Evals),
		Best:           tr.Best,
		Final:          tr.Final,
		FinalObjective: tr.FinalObjective,
	}
	for _, e := range tr.Evals {
		if e.Objective != nil {
			s.EvalsCompleted++
		}
		if withEvals {
			s.Evals = append(s.Evals, *e)
		}
	}
	return s
}

// persistLocked writes the trace; r.mu must be held. A failed write only
// costs resume fidelity, so it is logged, not fatal.
func (r *run) persistLocked() {
	if err := writeTrace(r.dir, r.trace); err != nil {
		log.Printf("tune: %s: persist trace: %v", r.id, err)
	}
}

func (t *Trace) clone() *Trace {
	c := *t
	c.Evals = make([]*Eval, len(t.Evals))
	for i, e := range t.Evals {
		ce := *e
		ce.Params = cloneParams(e.Params)
		if e.Objective != nil {
			o := *e.Objective
			ce.Objective = &o
		}
		c.Evals[i] = &ce
	}
	c.Best = append([]BestStep(nil), t.Best...)
	if t.Final != nil {
		c.Final = cloneParams(t.Final)
	}
	if t.FinalObjective != nil {
		o := *t.FinalObjective
		c.FinalObjective = &o
	}
	return &c
}

// writeTrace atomically replaces dir's tune.json — the trace is a
// resume-identity artifact and must never be observable half-written.
func writeTrace(dir string, t *Trace) error { return job.WriteRecord(filepath.Join(dir, traceFile), t) }

// readTrace loads dir's tune.json; a nil trace with nil error means the
// directory holds no trace (not a tune run).
func readTrace(dir string) (*Trace, error) {
	var t Trace
	if ok, err := job.ReadRecord(filepath.Join(dir, traceFile), &t); !ok {
		return nil, err
	}
	return &t, nil
}

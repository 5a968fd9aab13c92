package campaign

import (
	"context"
	"fmt"
	"io"
	"log"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"robustify/internal/dispatch"
	"robustify/internal/harness"
	"robustify/internal/job"
	"robustify/internal/obs"
)

// Campaign lifecycle states: the shared job states (see package job).
const (
	StateQueued      = job.StateQueued
	StateRunning     = job.StateRunning
	StateDone        = job.StateDone
	StateFailed      = job.StateFailed
	StateCancelled   = job.StateCancelled
	StateInterrupted = job.StateInterrupted
)

// Status is the externally visible state of one managed campaign.
type Status struct {
	ID       string       `json:"id"`
	Name     string       `json:"name"`
	State    string       `json:"state"`
	Error    string       `json:"error,omitempty"`
	Spec     Spec         `json:"spec"`
	Progress Progress     `json:"progress"`
	Units    []UnitStatus `json:"units,omitempty"`
	Created  time.Time    `json:"created"`
	Started  *time.Time   `json:"started,omitempty"`
	Finished *time.Time   `json:"finished,omitempty"`
}

// handle is one campaign's domain side of its job: the compiled grid,
// its store, and the execution that runs it.
type handle struct {
	m    *Manager
	id   string
	spec Spec
	camp *Campaign
	dir  string

	mu sync.Mutex
	// st and exec are nil for a terminal campaign recovered lazily: its
	// meta already carries state and progress, so the store is only
	// opened (openLocked) when results, per-cell status, or a resume
	// actually need trial data.
	st       *Store
	exec     *Execution
	metaDone int // progress from meta.json while the store is unopened
}

// openLocked opens the handle's store and builds the execution over it,
// with the manager's trial counter and hub attached; a no-op once open.
// h.mu must be held (or the handle not yet shared).
func (h *handle) openLocked() error {
	if h.exec != nil {
		return nil
	}
	st, err := h.camp.OpenStore(h.dir)
	if err != nil {
		return fmt.Errorf("campaign: open store for %s: %w", h.id, err)
	}
	h.st, h.exec = st, NewExecution(h.camp, st)
	h.exec.trials = &h.m.trials
	h.exec.hub, h.exec.id = h.m.Hub(), h.id
	return nil
}

// Drive runs the grid's remaining trials in-process, or on the
// robustworker fleet when a dispatcher is attached. Either run owns its
// telemetry sidecar (obs.Hub.WithTelemetry) and closes it when it ends.
func (h *handle) Drive(ctx context.Context) error {
	h.mu.Lock()
	exec := h.exec
	h.mu.Unlock()
	if disp := h.m.Dispatcher(); disp != nil {
		return exec.RunDispatched(ctx, disp, h.id)
	}
	return exec.Run(ctx)
}

// Persist writes the lifecycle record to meta.json.
func (h *handle) Persist(r job.Record) error {
	h.mu.Lock()
	defer h.mu.Unlock()
	m := Meta{
		ID:       h.id,
		Name:     h.spec.Title(),
		State:    r.State,
		Error:    r.Error,
		Created:  r.Created,
		Started:  r.Started,
		Finished: r.Finished,
		Done:     h.metaDone,
		Total:    h.camp.Total(),
	}
	if h.st != nil {
		m.Done = h.st.Done(h.camp.Plan)
	}
	return writeMeta(h.dir, m)
}

// Prepare opens a lazily recovered store. An open one is reused: the
// execution keeps no state of its own, and a resumed run skips exactly
// the trials the store holds.
func (h *handle) Prepare() error {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.openLocked()
}

// Cancelled has nothing to sweep: a campaign owns no sub-jobs.
func (h *handle) Cancelled() {}

// Release closes the store. A failed close is a failed last flush: the
// on-disk store may be missing records the meta already claims, so the
// shutdown is not clean.
func (h *handle) Release() error {
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.st == nil {
		return nil
	}
	return h.st.Close()
}

// jobs is the embedded lifecycle manager; the alias keeps the field
// unexported while its Resume, ResumeInterrupted, Cancel, Wait, and
// Lookup become the campaign Manager's.
type jobs = job.Manager

// Manager schedules campaigns: each submitted spec is compiled, given a
// store directory under root, and executed on its own goroutine, with the
// number of simultaneously running campaigns bounded. The lifecycle —
// ids, recovery, resume, cancel, wait, shutdown — is package job's: a
// cancelled, failed, or interrupted campaign keeps its store and resumes
// in place, only the rest of the grid running, to a table byte-identical
// to an uninterrupted run; and a new manager over the same root recovers
// every prior campaign from its meta.json (see load).
type Manager struct {
	*jobs
	lock *os.File // flock on the data root; held for the manager's lifetime

	// trials counts freshly executed trials across all campaigns since
	// this manager was created (for /metrics throughput).
	trials atomic.Int64

	mu sync.Mutex
	// disp, when set, routes campaign execution to a robustworker fleet
	// instead of running trials in-process.
	disp *dispatch.Coordinator
	// hub, when set, receives lifecycle events and per-trial telemetry
	// for every campaign.
	hub *obs.Hub
	// metricsExtras are additional Prometheus exposition writers appended
	// to /metrics output (the tune manager and the obs hub register
	// theirs), keeping NewServer's signature stable as subsystems grow.
	metricsExtras []func(io.Writer)
	shutdown      sync.Once
}

// SetHub attaches an observability hub to the manager and to every
// already-registered campaign (recovered handles included, so their
// telemetry lands in the right directory). robustd wires this at boot,
// before the listener; with no hub the manager emits nothing.
func (m *Manager) SetHub(h *obs.Hub) {
	m.mu.Lock()
	m.hub = h
	m.mu.Unlock()
	m.jobs.SetEvents(h)
	for _, j := range m.jobs.Jobs() {
		hd := j.Work().(*handle)
		hd.mu.Lock()
		if hd.exec != nil {
			hd.exec.hub, hd.exec.id = h, hd.id
		}
		hd.mu.Unlock()
		h.RegisterCampaign(hd.id, hd.dir)
	}
}

// Hub returns the attached observability hub (nil when none).
func (m *Manager) Hub() *obs.Hub {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.hub
}

// AddMetrics registers an extra Prometheus exposition writer appended to
// GET /metrics output after the campaign and dispatch families. Writers
// must emit complete, well-formed families of their own.
func (m *Manager) AddMetrics(f func(io.Writer)) {
	if f == nil {
		return
	}
	m.mu.Lock()
	m.metricsExtras = append(m.metricsExtras, f)
	m.mu.Unlock()
}

// SetDispatcher attaches a dispatch coordinator: every campaign run
// started afterwards executes on registered robustworkers instead of
// in-process. robustd wires this at boot (before the listener and
// -autoresume); with no dispatcher the manager behaves exactly as
// before — all trials run locally.
func (m *Manager) SetDispatcher(d *dispatch.Coordinator) {
	m.mu.Lock()
	m.disp = d
	m.mu.Unlock()
}

// Dispatcher returns the attached coordinator, or nil when campaigns run
// in-process.
func (m *Manager) Dispatcher() *dispatch.Coordinator {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.disp
}

// NewManager creates a manager storing campaign results under root and
// recovers every campaign a previous daemon left there: each directory
// with a spec.json is rebuilt from spec + meta + store contents,
// classified (done/failed/cancelled kept; anything else becomes
// interrupted, or done when its store is complete), and registered so it
// is listable, queryable, and — if interrupted — resumable. Id
// allocation continues after the highest recovered id. maxConcurrent
// bounds simultaneously running campaigns (<=0 means 4).
func NewManager(root string, maxConcurrent int) (*Manager, error) {
	if maxConcurrent <= 0 {
		maxConcurrent = 4
	}
	lock, err := lockRoot(root)
	if err != nil {
		return nil, err
	}
	m := &Manager{lock: lock}
	m.jobs, err = job.New(root, job.Kind{
		Name: "campaign", Noun: "campaign", Prefix: 'c', Slots: maxConcurrent,
		Load: m.load,
		// Store.Open creates trials.jsonl before SaveSpec writes the spec,
		// so an empty store is the only artifact a crash in that window
		// leaves.
		HuskEntry: func(name string, size int64) bool { return name == storeFile && size == 0 },
	})
	if err != nil {
		unlockRoot(lock)
		return nil, err
	}
	return m, nil
}

// lockRoot takes an exclusive advisory lock on the data root, refusing to
// share it with another live manager: recovery classifies queued/running
// campaigns as ownerless, which is only sound if no other process owns
// them. flock (unlike a pidfile) is released by the kernel when the
// holder dies, so a SIGKILLed daemon never wedges its successor.
func lockRoot(root string) (*os.File, error) {
	if err := os.MkdirAll(root, 0o755); err != nil {
		return nil, fmt.Errorf("campaign: data root: %w", err)
	}
	f, err := os.OpenFile(filepath.Join(root, lockFile), os.O_CREATE|os.O_RDWR, 0o644)
	if err != nil {
		return nil, fmt.Errorf("campaign: lock data root: %w", err)
	}
	if err := syscall.Flock(int(f.Fd()), syscall.LOCK_EX|syscall.LOCK_NB); err != nil {
		f.Close()
		return nil, fmt.Errorf("campaign: data root %s is owned by another running daemon: %w", root, err)
	}
	return f, nil
}

func unlockRoot(f *os.File) {
	syscall.Flock(int(f.Fd()), syscall.LOCK_UN)
	f.Close()
}

// Submit compiles the spec, opens its store, and schedules it. It returns
// the campaign id immediately; execution proceeds in the background.
func (m *Manager) Submit(spec Spec) (string, error) {
	camp, err := Compile(spec)
	if err != nil {
		return "", err
	}
	return m.jobs.Submit(spec.Title(), func(id, dir string) (job.Work, error) {
		h := &handle{m: m, id: id, spec: spec, camp: camp, dir: dir}
		if err := h.openLocked(); err != nil {
			return nil, err
		}
		if err := h.st.SaveSpec(spec); err != nil {
			//lint:errdurability-exempt best-effort cleanup: the job layer removes the store directory next
			h.st.Close()
			return nil, err
		}
		m.Hub().RegisterCampaign(id, dir)
		return h, nil
	})
}

func status(j *job.Job, withUnits bool) Status {
	h := j.Work().(*handle)
	r := j.Record()
	s := Status{
		ID:       h.id,
		Name:     h.spec.Title(),
		State:    r.State,
		Error:    r.Error,
		Spec:     h.spec,
		Created:  r.Created,
		Started:  r.Started,
		Finished: r.Finished,
	}
	h.mu.Lock()
	if withUnits {
		// Per-cell statistics need the trial data: open the lazy store now.
		if err := h.openLocked(); err != nil {
			log.Printf("campaign: %s: status units: %v", h.id, err)
		}
	}
	exec, metaDone := h.exec, h.metaDone
	h.mu.Unlock()
	if exec == nil {
		// Lazily recovered terminal campaign: progress comes straight from
		// meta.json, so listing history never replays stores.
		s.Progress = Progress{Done: metaDone, Total: h.camp.Total()}
		return s
	}
	s.Progress = exec.Progress()
	if withUnits {
		s.Units = exec.Status()
	}
	return s
}

// List returns the status of every campaign in submission order.
func (m *Manager) List() []Status {
	jobs := m.jobs.Jobs()
	out := make([]Status, 0, len(jobs))
	for _, j := range jobs {
		out = append(out, status(j, false))
	}
	return out
}

// Get returns one campaign's status with its per-cell statistics, which
// cost O(recorded trials) (see Execution.Status).
func (m *Manager) Get(id string) (Status, error) { return m.get(id, true) }

// get is Get, with the per-cell statistics only when withUnits is set.
func (m *Manager) get(id string, withUnits bool) (Status, error) {
	j, err := m.jobs.Lookup(id)
	if err != nil {
		return Status{}, err
	}
	return status(j, withUnits), nil
}

// Table materializes the campaign's current results table; valid at any
// point mid-run. A lazily recovered campaign's store is opened here, on
// first access.
func (m *Manager) Table(id string) (*harness.Table, error) {
	j, err := m.Lookup(id)
	if err != nil {
		return nil, err
	}
	h := j.Work().(*handle)
	h.mu.Lock()
	err = h.openLocked()
	exec := h.exec
	h.mu.Unlock()
	if err != nil {
		return nil, err
	}
	return exec.Table(), nil
}

// Close cancels every campaign, waits (indefinitely) for them to wind
// down, and closes their stores.
func (m *Manager) Close() { m.Shutdown(0) }

// Shutdown is Close with a bounded deadline: every campaign is
// cancelled, then waited on for at most timeout in total (0 = forever).
// It returns false when the deadline expired with run goroutines still
// alive — a wedged trial, say — or when a store failed to close. Their
// stores are then left as they are, and so is the data-root flock: the
// kernel releases it at process death, so a successor daemon can never
// grab the root while a wedged goroutine still writes to it. The wedged
// campaign's meta still says running, which the next boot classifies as
// interrupted — exactly the crash path. Shutdown runs once; later calls
// return true as soon as the first one is done.
func (m *Manager) Shutdown(timeout time.Duration) bool {
	clean := true
	m.shutdown.Do(func() {
		if clean = m.jobs.Shutdown(timeout); clean {
			unlockRoot(m.lock)
		}
	})
	return clean
}

// Package job is the durable-job lifecycle campaigns and tune runs
// share: id allocation with crash-husk reclaim, recovery of a root
// directory into a registry, Resume/Cancel/Wait, bounded Shutdown, and
// the precedence of an operator's cancel over a daemon wind-down.
//
// A job kind plugs in twice: Kind describes its on-disk layout, and Work
// is one job's domain side. Every transition is persisted through
// Work.Persist before an event announces it, so a killed daemon's
// successor recovers exactly the state the registry last reported.
package job

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"log"
	"os"
	"path/filepath"
	"strconv"
	"sync"
	"time"

	"robustify/internal/fsutil"
)

// Lifecycle states. StateInterrupted is only ever assigned at recovery
// or by a wind-down: the recorded state was not terminal, but the
// process that owned the job is gone.
const (
	StateQueued      = "queued"
	StateRunning     = "running"
	StateDone        = "done"
	StateFailed      = "failed"
	StateCancelled   = "cancelled"
	StateInterrupted = "interrupted"
)

// Terminal reports whether no goroutine will leave the state.
func Terminal(state string) bool {
	return state == StateDone || state == StateFailed || state == StateCancelled
}

// Resumable reports whether Resume may start another attempt: the last
// one is over (or its owner is dead) and the job is not done.
func Resumable(state string) bool {
	return state == StateCancelled || state == StateFailed || state == StateInterrupted
}

// Record is a job's lifecycle state, as its kind persists it.
type Record struct {
	State    string
	Error    string
	Created  time.Time
	Started  *time.Time
	Finished *time.Time
}

// Work is one job's domain side. Persist runs with the job's lock held,
// the other hooks without it; implementations may take locks of their
// own but must not call back into the Manager while holding them.
type Work interface {
	// Drive runs one attempt to completion; nil means the job is done.
	Drive(ctx context.Context) error
	// Persist writes the job's lifecycle record.
	Persist(r Record) error
	// Prepare readies a stopped job for another attempt.
	Prepare() error
	// Cancelled runs after an operator's Cancel, and again once the
	// cancelled attempt has exited.
	Cancelled()
	// Release frees what the job holds open, at shutdown, once its last
	// attempt has exited. An error makes the shutdown unclean.
	Release() error
}

// WriteRecord atomically replaces path with v as indented JSON (temp +
// fsync + rename via fsutil): a crash mid-update leaves the old record or
// the new one, never a torn file.
func WriteRecord(path string, v any) error {
	b, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	if err := fsutil.WriteFileAtomic(path, append(b, '\n'), 0o644); err != nil {
		return fmt.Errorf("write %s: %w", filepath.Base(path), err)
	}
	return nil
}

// ReadRecord decodes the JSON record at path into v; ok is false when
// there is none.
func ReadRecord(path string, v any) (ok bool, err error) {
	b, err := os.ReadFile(path)
	if os.IsNotExist(err) {
		return false, nil
	}
	if err != nil {
		return false, err
	}
	if err := json.Unmarshal(b, v); err != nil {
		return false, fmt.Errorf("corrupt %s: %w", filepath.Base(path), err)
	}
	return true, nil
}

// Recovered is what Kind.Load reads back from a job directory.
type Recovered struct {
	Work Work
	// Record is the record as persisted; its State may be any string.
	Record Record
	// Complete reports finished work whose record does not say so: a
	// non-terminal record then recovers as done, not interrupted.
	Complete bool
	// Stale asks for the record to be rewritten even if its state stays.
	Stale bool
}

// Kind describes one job kind's naming and on-disk layout.
type Kind struct {
	Name   string // prefixes errors, logs and events: "campaign"
	Noun   string // one job in messages: "campaign", "run"
	Prefix byte   // id letter: ids are Prefix + at least four digits
	// Slots bounds the jobs running at once, the rest wait queued; zero
	// means unbounded, and jobs start running at submission.
	Slots int
	// Load rebuilds a job from its directory; nil, nil means the
	// directory holds no job.
	Load func(id, dir string) (*Recovered, error)
	// HuskEntry reports whether a file may be all a crash left of a
	// Submit cut short (see Manager.husk).
	HuskEntry func(name string, size int64) bool
}

// EventSink receives lifecycle events ("<kind>.submitted",
// "<kind>.<state>", ...), labeled with the job id.
type EventSink interface {
	Emit(kind, id, detail string)
}

// Job is one registered job.
type Job struct {
	id   string
	work Work

	mu     sync.Mutex
	rec    Record
	err    error
	cancel context.CancelFunc
	done   chan struct{}
	// userCancel records that Cancel fired for the current attempt, so an
	// operator's cancel that overlaps a shutdown is still recorded as
	// cancelled, not interrupted.
	userCancel bool
}

// Work returns the job's domain side.
func (j *Job) Work() Work { return j.work }

// Record snapshots the job's lifecycle state.
func (j *Job) Record() Record {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.rec
}

// setLocked moves the job to state and persists the transition; j.mu
// must be held (or j not yet shared). A failed write only costs registry
// accuracy across a restart, so it is logged, not fatal.
func (j *Job) setLocked(kind, state string, err error) {
	j.rec.State, j.err, j.rec.Error = state, err, ""
	if err != nil {
		j.rec.Error = err.Error()
	}
	if err := j.work.Persist(j.rec); err != nil {
		log.Printf("%s: %s: persist state: %v", kind, j.id, err)
	}
}

// Manager is the registry of one job kind under one root directory.
type Manager struct {
	kind  Kind
	root  string
	slots chan struct{}

	mu     sync.Mutex
	byID   map[string]*Job
	order  []*Job
	nextID int
	closed bool // Interrupt ran: no new attempts
	shut   bool // Shutdown ran
	events EventSink
}

// New creates a manager over root and recovers every job a previous
// process left there: each directory Kind.Load accepts is registered,
// terminal records kept, anything else recovered as interrupted (done
// when the work is complete) and persisted so. Id allocation continues
// after the highest id found. The root must exist.
func New(root string, kind Kind) (*Manager, error) {
	m := &Manager{kind: kind, root: root, byID: make(map[string]*Job)}
	if kind.Slots > 0 {
		m.slots = make(chan struct{}, kind.Slots)
	}
	entries, err := os.ReadDir(root)
	if err != nil {
		return nil, fmt.Errorf("%s: scan data root: %w", kind.Name, err)
	}
	for _, e := range entries { // sorted by name, so ids stay ordered
		if e.IsDir() {
			m.recover(e.Name())
		}
	}
	return m, nil
}

// recover registers the job in one root entry, before the manager is
// shared. A directory that cannot be loaded is logged and skipped; its
// name still advances the id counter so new jobs never collide with it.
func (m *Manager) recover(id string) {
	dir := filepath.Join(m.root, id)
	n, ours := m.parseID(id)
	r, err := m.kind.Load(id, dir)
	switch {
	case err != nil:
		log.Printf("%s: skipping unrecoverable %s: %v", m.kind.Name, dir, err)
	case r != nil:
		// No goroutine owns a recovered job until Resume, so a record
		// that is not terminal — queued, running, interrupted, empty, or
		// a value this build does not know — becomes interrupted.
		state := r.Record.State
		if !Terminal(state) {
			state = StateInterrupted
			if r.Complete {
				state = StateDone
			}
		}
		done := make(chan struct{})
		close(done)
		j := &Job{id: id, work: r.Work, rec: r.Record, cancel: func() {}, done: done}
		if r.Record.Error != "" {
			j.err = errors.New(r.Record.Error)
		}
		if state != r.Record.State || r.Stale {
			j.setLocked(m.kind.Name, state, j.err)
		}
		m.byID[id] = j
		m.order = append(m.order, j)
	case ours && m.husk(dir):
		// A Submit a crash cut short, provably this manager's leftover:
		// deleting it keeps id allocation deterministic across
		// kill-and-resume runs. Anything else, however empty, is not ours
		// to touch, and manager-named stray data keeps its id reserved.
		err := os.RemoveAll(dir)
		if err == nil {
			return
		}
		log.Printf("%s: remove crash husk %s: %v", m.kind.Name, dir, err)
	}
	if ours && n > m.nextID {
		m.nextID = n
	}
}

// parseID parses a manager-allocated directory name ("c0042" -> 42).
func (m *Manager) parseID(name string) (int, bool) {
	if len(name) < 2 || name[0] != m.kind.Prefix {
		return 0, false
	}
	n, err := strconv.Atoi(name[1:])
	return n, err == nil && n >= 0
}

// husk reports whether dir holds nothing but files Kind.HuskEntry
// accepts: the leftover of a Submit a crash cut short, which no
// goroutine owns (one manager owns a root), so a new job may claim its
// id. Any other content is somebody's data, which Submit must never
// claim or, on its error paths, remove.
func (m *Manager) husk(dir string) bool {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return false
	}
	for _, e := range entries {
		fi, err := e.Info()
		if err != nil || !m.kind.HuskEntry(e.Name(), fi.Size()) {
			return false
		}
	}
	return true
}

func (m *Manager) errClosed() error { return fmt.Errorf("%s: manager closed", m.kind.Name) }

// SetEvents attaches the lifecycle event sink.
func (m *Manager) SetEvents(sink EventSink) {
	m.mu.Lock()
	m.events = sink
	m.mu.Unlock()
}

// Events returns the attached event sink (nil when none).
func (m *Manager) Events() EventSink {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.events
}

// emit forwards one lifecycle event; callers hold no lock.
func (m *Manager) emit(event, id, detail string) {
	if sink := m.Events(); sink != nil {
		sink.Emit(m.kind.Name+"."+event, id, detail)
	}
}

// Submit allocates an id and its directory, lets create build the job's
// work there, persists the first record, and starts the job; name is the
// submitted event's detail. Ids on disk are skipped, except crash husks,
// which are reclaimed so allocation stays deterministic across
// kill-and-resume runs. On any error the directory is removed again: a
// record left behind would come back on the next boot as a ghost job the
// client was told does not exist.
func (m *Manager) Submit(name string, create func(id, dir string) (Work, error)) (string, error) {
	m.mu.Lock()
	if m.closed {
		m.mu.Unlock()
		return "", m.errClosed()
	}
	var id, dir string
	for {
		m.nextID++
		id = fmt.Sprintf("%c%04d", m.kind.Prefix, m.nextID)
		dir = filepath.Join(m.root, id)
		if _, err := os.Stat(dir); os.IsNotExist(err) || m.husk(dir) {
			break
		}
	}
	m.mu.Unlock()

	w, err := create(id, dir)
	if err != nil {
		os.RemoveAll(dir)
		return "", err
	}
	ctx, cancel := context.WithCancel(context.Background())
	j := &Job{id: id, work: w, rec: Record{State: m.startState(), Created: time.Now()}, cancel: cancel, done: make(chan struct{})}
	err = w.Persist(j.rec) // no goroutine sees j yet
	// Register and launch under m.mu so a concurrent Shutdown either
	// refuses this job here or sees it and winds it down.
	m.mu.Lock()
	if err == nil && m.closed {
		err = m.errClosed()
	}
	if err == nil {
		m.byID[id] = j
		m.order = append(m.order, j)
		go m.run(ctx, j, j.done)
	}
	m.mu.Unlock()
	if err != nil {
		cancel()
		w.Release()
		os.RemoveAll(dir)
		return "", err
	}
	m.emit("submitted", id, name)
	return id, nil
}

// startState is where an attempt starts: queued for a slot when jobs are
// bounded, running otherwise.
func (m *Manager) startState() string {
	if m.slots != nil {
		return StateQueued
	}
	return StateRunning
}

// run owns one attempt from (re)start to its end.
func (m *Manager) run(ctx context.Context, j *Job, done chan struct{}) {
	defer close(done)
	if m.slots != nil {
		select {
		case m.slots <- struct{}{}:
			defer func() { <-m.slots }()
		case <-ctx.Done():
			m.finish(j, m.stopState(j), nil)
			return
		}
		now := time.Now()
		j.mu.Lock()
		j.rec.Started = &now
		j.setLocked(m.kind.Name, StateRunning, nil)
		j.mu.Unlock()
		m.emit(StateRunning, j.id, "")
	}
	err := j.work.Drive(ctx)
	switch {
	case err == nil:
		m.finish(j, StateDone, nil)
	case ctx.Err() != nil:
		m.finish(j, m.stopState(j), nil)
	default:
		m.finish(j, StateFailed, err)
	}
}

// stopState names why an attempt's context was cancelled. An operator's
// Cancel is a deliberate, terminal choice and wins even when it overlaps
// a shutdown; otherwise a closing manager leaves the job interrupted —
// the state a crash produces, so the next boot lists it as unfinished
// and autoresume picks it up. The locks are taken in turn, never nested.
func (m *Manager) stopState(j *Job) string {
	j.mu.Lock()
	user := j.userCancel
	j.mu.Unlock()
	m.mu.Lock()
	closed := m.closed
	m.mu.Unlock()
	if closed && !user {
		return StateInterrupted
	}
	return StateCancelled
}

func (m *Manager) finish(j *Job, state string, err error) {
	now := time.Now()
	j.mu.Lock()
	j.rec.Finished = &now
	j.setLocked(m.kind.Name, state, err)
	j.mu.Unlock()
	detail := ""
	if err != nil {
		detail = err.Error()
	}
	m.emit(state, j.id, detail)
	if state == StateCancelled {
		j.work.Cancelled()
	}
}

// Lookup returns the registered job with the given id.
func (m *Manager) Lookup(id string) (*Job, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	j, ok := m.byID[id]
	if !ok {
		return nil, fmt.Errorf("%s: unknown %s %q", m.kind.Name, m.kind.Noun, id)
	}
	return j, nil
}

// Jobs returns every registered job in submission (at recovery: id)
// order.
func (m *Manager) Jobs() []*Job {
	m.mu.Lock()
	defer m.mu.Unlock()
	return append([]*Job(nil), m.order...)
}

// Counts returns the number of jobs in each state, every state present.
func (m *Manager) Counts() map[string]int {
	counts := map[string]int{
		StateQueued: 0, StateRunning: 0, StateDone: 0,
		StateFailed: 0, StateCancelled: 0, StateInterrupted: 0,
	}
	for _, j := range m.Jobs() {
		counts[j.Record().State]++
	}
	return counts
}

// Resume starts another attempt of a cancelled, failed, or interrupted
// job once its previous attempt has fully exited. Interrupted jobs are
// the ones recovered at startup, so Resume is also how a restarted
// daemon finishes work a crash orphaned.
func (m *Manager) Resume(id string) error {
	j, err := m.Lookup(id)
	if err != nil {
		return err
	}
	j.mu.Lock()
	state, done := j.rec.State, j.done
	j.mu.Unlock()
	if !Resumable(state) {
		return fmt.Errorf("%s: %s is %s; only cancelled, failed, or interrupted %ss resume", m.kind.Name, id, state, m.kind.Noun)
	}
	<-done

	ctx, cancel := context.WithCancel(context.Background())
	// Launch under m.mu so Shutdown, which sets closed under the same lock
	// before cancelling jobs, either refuses this resume or sees its fresh
	// cancel/done pair.
	m.mu.Lock()
	j.mu.Lock()
	switch {
	case m.closed:
		err = m.errClosed()
	case !Resumable(j.rec.State): // lost a race with another Resume
		err = fmt.Errorf("%s: %s already resumed", m.kind.Name, id)
	default:
		err = j.work.Prepare()
	}
	if err != nil {
		j.mu.Unlock()
		m.mu.Unlock()
		cancel()
		return err
	}
	j.rec.Finished, j.userCancel = nil, false
	j.cancel, j.done = cancel, make(chan struct{})
	j.setLocked(m.kind.Name, m.startState(), nil)
	go m.run(ctx, j, j.done)
	j.mu.Unlock()
	m.mu.Unlock()
	m.emit("resumed", id, "")
	return nil
}

// ResumeInterrupted resumes every interrupted job (the autoresume path)
// and returns the ids it resumed.
func (m *Manager) ResumeInterrupted() []string {
	var ids []string
	for _, j := range m.Jobs() {
		if j.Record().State != StateInterrupted {
			continue
		}
		if err := m.Resume(j.id); err != nil {
			log.Printf("%s: autoresume %s: %v", m.kind.Name, j.id, err)
			continue
		}
		ids = append(ids, j.id)
	}
	return ids
}

// Cancel stops a job's current attempt; Resume continues from whatever
// it made durable. An interrupted job, which no goroutine owns, flips
// straight to cancelled, so an explicit Resume stays possible but
// autoresume treats the operator's decision as final.
func (m *Manager) Cancel(id string) error {
	j, err := m.Lookup(id)
	if err != nil {
		return err
	}
	j.mu.Lock()
	if j.rec.State == StateInterrupted {
		j.setLocked(m.kind.Name, StateCancelled, j.err)
	} else {
		j.userCancel = true
	}
	cancel := j.cancel
	j.mu.Unlock()
	cancel()
	j.work.Cancelled()
	m.emit("cancel", id, "")
	return nil
}

// Done returns a channel closed when the job's current attempt exits,
// for waiters that must also watch a context.
func (j *Job) Done() <-chan struct{} {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.done
}

// Wait blocks until the job's current attempt exits and returns the
// job's error, if any.
func (m *Manager) Wait(id string) error {
	j, err := m.Lookup(id)
	if err != nil {
		return err
	}
	<-j.Done()
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.err
}

// Interrupt refuses new attempts and cancels every live one without
// waiting: the first half of a shutdown. Idempotent.
func (m *Manager) Interrupt() {
	m.mu.Lock()
	m.closed = true
	m.mu.Unlock()
	for _, j := range m.Jobs() {
		j.mu.Lock()
		cancel := j.cancel
		j.mu.Unlock()
		cancel()
	}
}

// Close is Shutdown without a deadline.
func (m *Manager) Close() { m.Shutdown(0) }

// Shutdown interrupts every job and waits at most timeout in total
// (0 = forever) for the attempts to exit, releasing each job whose
// attempt did. It returns false when the deadline expired with attempts
// still alive — their work stays unreleased, since they may still write,
// and their records still say running, which the next boot classifies
// as interrupted, exactly like a crash — or when a Release failed. Only
// the first call does anything; later calls return true.
func (m *Manager) Shutdown(timeout time.Duration) bool {
	m.mu.Lock()
	if m.shut {
		m.mu.Unlock()
		return true
	}
	m.shut = true
	m.mu.Unlock()
	m.Interrupt()
	var deadline <-chan time.Time
	if timeout > 0 {
		tmr := time.NewTimer(timeout)
		defer tmr.Stop()
		deadline = tmr.C
	}
	clean, timedOut := true, false
	for _, j := range m.Jobs() {
		done := j.Done()
		if !timedOut {
			select {
			case <-done:
			case <-deadline:
				timedOut = true
			}
		}
		if timedOut {
			// The deadline fired once; poll the remaining jobs without
			// blocking so already-finished ones are still released.
			select {
			case <-done:
			default:
				clean = false
				continue
			}
		}
		if err := j.work.Release(); err != nil {
			clean = false
		}
	}
	return clean
}

package dispatch

import (
	"context"
	"crypto/rand"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"slices"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// Job is one campaign the coordinator dispatches: its grid shape, the
// spec payload served to workers, the trials already durable, and the
// campaign engine's callbacks.
type Job struct {
	// Campaign is the campaign id leases and reports are keyed by.
	Campaign string
	// Spec is the campaign spec, served verbatim to workers.
	Spec json.RawMessage
	// Units are the grid dimensions, in unit order.
	Units []UnitGrid
	// Durable is the set of trials already durable (resume): one bitset
	// per unit, in NewTable's layout. The job's table takes it over.
	Durable [][]uint64
	// Verify, if non-nil, checks a reported result against the grid
	// (seed, rate). Results that fail are dropped — their trials stay
	// outstanding and are re-executed — so a buggy or malicious worker
	// cannot corrupt a campaign, only slow it down.
	Verify func(TrialResult) bool
	// Sink merges verified results into durable storage, once per
	// report, and returns the ones that were not durable yet; it may
	// reorder and overwrite the slice, but not keep it. It is called from
	// HTTP handler goroutines and must be safe for concurrent use. An
	// error fails the whole job.
	Sink func([]TrialResult) ([]TrialResult, error)
}

type runningJob struct {
	job   Job
	table *Table

	failOnce sync.Once
	failErr  error
	failed   chan struct{}
}

func (j *runningJob) fail(err error) {
	j.failOnce.Do(func() {
		j.failErr = err
		close(j.failed)
	})
}

// report merges one worker batch: bounds/verify-filter, sink, then lease
// bookkeeping for the results the sink made durable. Results are sunk
// before the lease check, so even a batch arriving on an expired lease
// contributes durable trials (the store dedups; the value is
// deterministic either way). req.Results is filtered and sunk in place.
func (j *runningJob) report(c *Coordinator, req ReportRequest, now time.Time, ttl time.Duration) (ReportResponse, error) {
	valid := req.Results[:0]
	for _, r := range req.Results {
		if inGrid(j.job.Units, r.Key()) && (j.job.Verify == nil || j.job.Verify(r)) {
			valid = append(valid, r)
		}
	}
	rejected := len(req.Results) - len(valid)
	c.rejected.Add(int64(rejected))
	if len(valid) > 0 {
		var err error
		if valid, err = j.job.Sink(valid); err != nil {
			j.fail(fmt.Errorf("dispatch: sink %s: %w", j.job.Campaign, err))
			return ReportResponse{Lost: true, Rejected: rejected}, nil
		}
	}
	lost := j.table.Report(req.Lease, valid, req.Done, now, ttl)
	return ReportResponse{Lost: lost, Rejected: rejected}, nil
}

type workerInfo struct {
	id         string
	seq        int // registration order (ids don't sort: they widen past -9999)
	name       string
	registered time.Time
	lastSeen   time.Time
}

// Coordinator owns the worker registry and the lease tables of every
// campaign currently executing distributed. It is driven from two sides:
// the campaign engine calls RunJob (blocking until the grid is durable),
// and the HTTP layer calls Register/Lease/Report on behalf of workers.
type Coordinator struct {
	opt Options
	// epoch scopes worker ids to this coordinator incarnation: a worker
	// surviving a coordinator restart must get ErrUnknownWorker (and
	// re-register), never silently collide with a freshly issued id.
	epoch string

	rejected atomic.Int64 // results dropped by bounds/verify checks

	mu         sync.Mutex
	nextWorker int
	workers    map[string]*workerInfo
	// jobs only grows by append and is copied on removal, so a slice
	// taken under mu stays valid after unlocking.
	jobs []*runningJob
	rr   int // round-robin cursor over jobs, for multi-campaign fairness
}

// New creates a coordinator.
func New(opt Options) *Coordinator {
	var b [4]byte
	rand.Read(b[:]) // crypto/rand.Read never fails (panics on broken entropy)
	return &Coordinator{
		opt:     opt,
		epoch:   hex.EncodeToString(b[:]),
		workers: make(map[string]*workerInfo),
	}
}

// RunJob dispatches one campaign and blocks until every trial in its
// grid is durable, the sink fails, or ctx is cancelled. The lease table
// is built fresh from Durable — i.e. from the durable store — which is
// how a restarted coordinator resumes a half-dispatched campaign: trials
// already recorded start done, everything else is re-dispatched.
func (c *Coordinator) RunJob(ctx context.Context, job Job) error {
	if job.Campaign == "" {
		return fmt.Errorf("dispatch: job needs a campaign id")
	}
	if job.Sink == nil {
		return fmt.Errorf("dispatch: job %s needs a sink", job.Campaign)
	}
	j := &runningJob{
		job:    job,
		table:  NewTable(job.Units, job.Durable, c.opt.ShardSize),
		failed: make(chan struct{}),
	}
	if c.opt.Events != nil {
		j.table.SetEvents(c.opt.Events, job.Campaign)
	}
	c.mu.Lock()
	for _, other := range c.jobs {
		if other.job.Campaign == job.Campaign {
			c.mu.Unlock()
			return fmt.Errorf("dispatch: campaign %s is already dispatched", job.Campaign)
		}
	}
	c.jobs = append(c.jobs, j)
	c.mu.Unlock()
	defer c.removeJob(j)

	select {
	case <-j.table.Done():
		return nil
	case <-j.failed:
		return j.failErr
	case <-ctx.Done():
		return ctx.Err()
	}
}

func (c *Coordinator) removeJob(j *runningJob) {
	c.mu.Lock()
	defer c.mu.Unlock()
	for i, other := range c.jobs {
		if other == j {
			c.jobs = slices.Delete(slices.Clone(c.jobs), i, i+1)
			return
		}
	}
}

// Register admits a worker and assigns its id. Re-registration after a
// coordinator restart simply allocates a fresh id; long-silent ids are
// pruned here (see pruneLocked), so a crash-looping worker cannot grow
// the registry without bound.
func (c *Coordinator) Register(req RegisterRequest) RegisterResponse {
	now := time.Now()
	c.mu.Lock()
	defer c.mu.Unlock()
	c.pruneLocked(now)
	c.nextWorker++
	id := fmt.Sprintf("w%s-%04d", c.epoch, c.nextWorker)
	c.workers[id] = &workerInfo{id: id, seq: c.nextWorker, name: req.Name, registered: now, lastSeen: now}
	return RegisterResponse{Worker: id, LeaseTTL: c.opt.leaseTTL()}
}

// pruneLocked forgets workers silent for ten active-windows (20 lease
// TTLs): they are dead, and a survivor that went that quiet simply gets
// ErrUnknownWorker on its next call and re-registers — the same path it
// already takes across coordinator restarts. c.mu must be held.
func (c *Coordinator) pruneLocked(now time.Time) {
	cutoff := 10 * c.activeWindow()
	for id, w := range c.workers {
		if now.Sub(w.lastSeen) > cutoff {
			delete(c.workers, id)
		}
	}
}

// Lease hands the asking worker one shard of pending work, sized by the
// worker's measured rate (see Table.Acquire), round-robining across
// campaigns so a long campaign cannot starve a later one. A nil response
// (and nil error) means no work is pending anywhere.
func (c *Coordinator) Lease(req LeaseRequest) (*LeaseResponse, error) {
	now := time.Now()
	c.mu.Lock()
	w, ok := c.workers[req.Worker]
	if !ok {
		c.mu.Unlock()
		return nil, ErrUnknownWorker
	}
	w.lastSeen = now
	jobs := c.jobs
	start := c.rr
	c.rr++
	c.mu.Unlock()

	ttl := c.opt.leaseTTL()
	for i := range jobs {
		j := jobs[(start+i)%len(jobs)]
		if l, ok := j.table.Acquire(req.Worker, now, ttl); ok {
			return &LeaseResponse{
				Lease:    l.ID,
				Campaign: j.job.Campaign,
				Spec:     j.job.Spec,
				Shard:    l.Shard,
				TTL:      ttl,
			}, nil
		}
	}
	return nil, nil
}

// Report merges a worker's result batch (see runningJob.report) and
// renews or releases its lease. A report for a campaign no longer
// dispatched — finished, cancelled, or from before a coordinator restart
// — answers Lost so the worker moves on. Report filters and sinks
// req.Results in place; nothing keeps it once Report returns.
func (c *Coordinator) Report(req ReportRequest) (ReportResponse, error) {
	now := time.Now()
	c.mu.Lock()
	w, ok := c.workers[req.Worker]
	if !ok {
		c.mu.Unlock()
		return ReportResponse{}, ErrUnknownWorker
	}
	w.lastSeen = now
	var j *runningJob
	for _, cand := range c.jobs {
		if cand.job.Campaign == req.Campaign {
			j = cand
			break
		}
	}
	c.mu.Unlock()
	if j == nil {
		return ReportResponse{Lost: true}, nil
	}
	return j.report(c, req, now, c.opt.leaseTTL())
}

// WorkerStatus is one registered worker as reported by Workers.
type WorkerStatus struct {
	ID         string    `json:"id"`
	Name       string    `json:"name,omitempty"`
	Registered time.Time `json:"registered"`
	LastSeen   time.Time `json:"last_seen"`
	Active     bool      `json:"active"`
}

// activeWindow is how recently a worker must have leased or reported to
// count as active: two TTLs of silence and it is presumed gone.
func (c *Coordinator) activeWindow() time.Duration { return 2 * c.opt.leaseTTL() }

// Workers lists every registered worker in registration order.
func (c *Coordinator) Workers() []WorkerStatus {
	now := time.Now()
	c.mu.Lock()
	defer c.mu.Unlock()
	infos := make([]*workerInfo, 0, len(c.workers))
	for _, w := range c.workers {
		infos = append(infos, w)
	}
	sort.Slice(infos, func(i, j int) bool { return infos[i].seq < infos[j].seq })
	out := make([]WorkerStatus, 0, len(infos))
	for _, w := range infos {
		out = append(out, WorkerStatus{
			ID: w.id, Name: w.name, Registered: w.registered, LastSeen: w.lastSeen,
			Active: now.Sub(w.lastSeen) <= c.activeWindow(),
		})
	}
	return out
}

// Stats is a point-in-time dispatch snapshot for observability. The
// Trials* fields count the trials of every dispatched campaign's grid:
// durable (done), under an outstanding lease (leased), or neither.
type Stats struct {
	WorkersRegistered int
	WorkersActive     int
	WorkersExpected   int
	Jobs              int
	TrialsPending     int
	TrialsLeased      int
	TrialsDone        int
	LeasesOutstanding int
	RejectedResults   int64
	// OldestLeaseAgeSeconds is the age of the longest-outstanding lease
	// across all dispatched campaigns (0 when none are outstanding).
	OldestLeaseAgeSeconds float64
}

// Stats snapshots the fleet and lease state.
func (c *Coordinator) Stats() Stats {
	now := time.Now()
	c.mu.Lock()
	s := Stats{
		WorkersRegistered: len(c.workers),
		WorkersExpected:   c.opt.WorkersExpected,
		Jobs:              len(c.jobs),
		RejectedResults:   c.rejected.Load(),
	}
	for _, w := range c.workers {
		if now.Sub(w.lastSeen) <= c.activeWindow() {
			s.WorkersActive++
		}
	}
	jobs := c.jobs
	c.mu.Unlock()
	for _, j := range jobs {
		j.table.addStats(&s, now)
	}
	return s
}

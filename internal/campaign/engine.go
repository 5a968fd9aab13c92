package campaign

import (
	"context"
	"encoding/json"
	"fmt"
	"math"
	"slices"
	"sync/atomic"
	"time"

	"robustify/internal/dispatch"
	"robustify/internal/figures"
	"robustify/internal/harness"
	"robustify/internal/obs"
)

// Campaign is a compiled spec: the deterministic trial grid of a figure
// plan (or custom sweep) ready for execution.
type Campaign struct {
	Spec Spec
	Plan *figures.Plan
}

// Total is the number of trials in the full grid.
func (c *Campaign) Total() int { return c.Plan.Size() }

// RunShard runs one shard of the grid — unit sh.Unit's linear indices
// [sh.Start, sh.Start+sh.Count) — through the harness trial loop on
// workers goroutines (0 = the unit's own default). Indices set in
// h.Skip or listed in sh.Skip are already durable: they neither run nor
// reach the sink. It is the one way trials execute: Execution.Run and
// robustworker run the shards they lease. A shard outside the grid is
// an error, and nothing runs.
func (c *Campaign) RunShard(ctx context.Context, sh dispatch.Shard, workers int, h harness.Hooks) error {
	if sh.Unit < 0 || sh.Unit >= len(c.Plan.Units) {
		return fmt.Errorf("campaign: shard names unit %d of %d", sh.Unit, len(c.Plan.Units))
	}
	sweep := c.Plan.Units[sh.Unit].Sweep
	if size := sweep.Size(); sh.Start < 0 || sh.Count < 0 || sh.Start+sh.Count > size {
		return fmt.Errorf("campaign: shard range [%d,%d) exceeds unit %d's grid of %d",
			sh.Start, sh.Start+sh.Count, sh.Unit, size)
	}
	if workers > 0 {
		sweep.Workers = workers
	}
	if len(sh.Skip) > 0 {
		skip := make([]uint64, (sh.Start+sh.Count+63)/64)
		copy(skip, h.Skip)
		for _, i := range sh.Skip {
			if i >= sh.Start && i < sh.Start+sh.Count {
				skip[i>>6] |= 1 << (i & 63)
			}
		}
		h.Skip = skip
	}
	return sweep.RunRange(ctx, c.Plan.Units[sh.Unit].Fn, sh.Start, sh.Count, h)
}

// TableFromStore materializes the campaign's table from whatever the store
// currently holds: cells aggregate over their completed trials in
// trial-index order, empty cells are omitted. Once every trial is
// recorded, the result is byte-identical to an uninterrupted Plan.Build —
// same values folded by the same aggregators in the same order.
func (c *Campaign) TableFromStore(st *Store) *harness.Table {
	t := c.Plan.Skeleton
	t.Series = make([]harness.Series, len(c.Plan.Units))
	var xs []float64
	for i, u := range c.Plan.Units {
		agg, err := harness.AggregatorByName(u.Agg)
		if err != nil {
			agg = harness.Mean
		}
		trials := u.Sweep.PerCell()
		var pts []harness.Point
		for r, rate := range u.Sweep.Rates {
			// The aggregators keep no reference to xs, so one buffer
			// serves every cell.
			xs = st.AppendCell(xs[:0], i, r, trials)
			if len(xs) == 0 {
				continue
			}
			pts = append(pts, harness.Point{Rate: rate, RateIdx: r, Value: agg(xs)})
		}
		t.Series[i] = harness.Series{Name: u.Series, Points: pts}
	}
	return &t
}

// Progress is a point-in-time completion snapshot.
type Progress struct {
	Done  int `json:"done"`
	Total int `json:"total"`
}

// JSONFloat marshals like a float64 but encodes NaN and infinities as
// null, so the statistics of empty cells survive JSON encoding.
type JSONFloat float64

// MarshalJSON implements json.Marshaler.
func (f JSONFloat) MarshalJSON() ([]byte, error) {
	v := float64(f)
	if v != v || math.IsInf(v, 0) {
		return []byte("null"), nil
	}
	return json.Marshal(v)
}

// CellStatus is the live view of one (series, rate) cell: its
// completed-trial count and the mean, median, min and max of its
// recorded values, computed from the store when asked. The value the
// cell's aggregator names equals its TableFromStore point bit for bit.
type CellStatus struct {
	Rate   float64   `json:"rate"`
	Done   int       `json:"done"`
	Total  int       `json:"total"`
	Mean   JSONFloat `json:"mean"`
	Median JSONFloat `json:"median"`
	Min    JSONFloat `json:"min"`
	Max    JSONFloat `json:"max"`
}

// UnitStatus is the live view of one series.
type UnitStatus struct {
	Series string       `json:"series"`
	Agg    string       `json:"agg"`
	Cells  []CellStatus `json:"cells"`
}

// Execution runs a campaign against a store. It holds nothing derived
// from the store, so building one costs O(1), and it is safe to query
// (Progress, Status, Table) while Run is executing on another goroutine.
type Execution struct {
	camp *Campaign
	st   *Store
	// trials, if non-nil, counts freshly executed (newly durable) trials —
	// the manager points every execution at one daemon-wide counter for
	// the /metrics throughput numbers.
	trials *atomic.Int64

	// hub, if non-nil, receives diagnostics: trial telemetry lines
	// (written beside the store, never into it, once per lease) and
	// trial latency observations. id labels them with the owning
	// campaign. Both stay nil for bare executions (robustbench local
	// runs, tests).
	hub *obs.Hub
	id  string
}

// MetricLabel names the spec's workload for latency histograms: the
// figure id or the custom workload name.
func (s Spec) MetricLabel() string {
	if s.Custom != nil {
		return s.Custom.Workload
	}
	return "fig:" + s.Figure
}

// merge merges trial results into the store with one write and counts
// the new ones — those whose keys were not yet durable — in the
// fresh-trial counter. It returns the new ones, compacted in place in
// recs: a duplicate (a reassigned shard got there first) changes
// nothing. Run merges each lease, the dispatched sink each report.
func (e *Execution) merge(recs []Record) ([]Record, error) {
	for i := range recs {
		recs[i].Series = e.camp.Plan.Units[recs[i].Unit].Series
	}
	fresh, err := e.st.PutBatch(recs)
	if err != nil || len(fresh) == 0 {
		return nil, err
	}
	if e.trials != nil {
		e.trials.Add(int64(len(fresh)))
	}
	return fresh, nil
}

// NewExecution prepares a run of camp against st. It reads nothing from
// the store: Run takes the durable set when it starts, and Status reads
// the store when asked.
func NewExecution(camp *Campaign, st *Store) *Execution {
	return &Execution{camp: camp, st: st}
}

// grid is the campaign's grid in the dispatch layout and the trials of
// it already durable: what a lease table is built from.
func (e *Execution) grid() ([]dispatch.UnitGrid, [][]uint64) {
	units := make([]dispatch.UnitGrid, len(e.camp.Plan.Units))
	for i, u := range e.camp.Plan.Units {
		units[i] = dispatch.UnitGrid{Rates: len(u.Sweep.Rates), Trials: u.Sweep.PerCell()}
	}
	return units, e.st.Durable(e.camp.Plan)
}

// localTTL is the lease TTL of Run's consumer. Nothing competes for its
// leases: the TTL only keeps the table's 100 ms lease slice in force.
const localTTL = time.Hour

// Run executes the campaign in-process as a fleet worker would: it
// leases shards from a dispatch.Table over the grid, each sized to about
// 100 ms of work (16 to dispatch.MaxReport trials), and runs and merges
// them one by one (lane.run). Durable trials are skipped (resume); a
// crash loses at most the running lease. Cancelling ctx merges what the
// lease finished and returns ctx.Err(). A store error ends the run after
// the lease whose merge failed, and Run returns it.
func (e *Execution) Run(ctx context.Context) error {
	l := e.lane(0)
	defer func() {
		l.e, l.tb, l.hub = nil, nil, nil // the lane keeps only its buffers
		spareLanes.put(l)
	}()
	for ctx.Err() == nil {
		lease, ok := l.tb.Acquire("local", time.Now(), localTTL)
		if !ok {
			return nil
		}
		if err := l.run(ctx, lease); err != nil {
			return err
		}
	}
	return ctx.Err()
}

// lane is Run's consumer of the lease table tb. The trials of its lease
// sh collect in pend and, their latency and fault summary, in diag by
// offset in sh. Lanes are reused from run to run with their buffers, as
// a daemon runs campaign after campaign.
type lane struct {
	e     *Execution
	tb    *dispatch.Table
	hub   *obs.Hub
	label string
	pend  dispatch.Pending
	hooks harness.Hooks
	sh    dispatch.Shard
	per   int
	diag  []struct {
		dur    time.Duration
		faults *obs.FaultSummary
	}
}

var spareLanes = make(freeList[lane], spareReports)

// lane sets up a consumer for a run of e, whose leases hold at least
// floor trials (0 = the table's default).
func (e *Execution) lane(floor int) *lane {
	units, durable := e.grid()
	l := spareLanes.get()
	l.e, l.tb, l.label = e, dispatch.NewTable(units, durable, floor), e.camp.Spec.MetricLabel()
	l.hooks.Sink = l.sink
	return l
}

// run runs one lease and, also when ctx ends it early, merges its trials
// as the fleet merges a report: one store write, one telemetry append of
// the new trials, then the lease's done report.
func (l *lane) run(ctx context.Context, lease dispatch.Lease) error {
	e, sh := l.e, lease.Shard
	l.hub, l.sh, l.per = e.hub, sh, e.camp.Plan.Units[sh.Unit].Sweep.PerCell()
	l.diag = slices.Grow(l.diag[:0], sh.Count)[:sh.Count]
	runErr := e.camp.RunShard(ctx, sh, e.camp.Spec.Workers, l.hooks)
	recs := l.pend.Take(nil) // no trial runs until the next lease,
	l.pend.Take(recs[:0])    // which collects in the same array
	fresh, err := e.merge(recs)
	if err != nil {
		return fmt.Errorf("campaign: record trials: %w", err)
	}
	l.hub.AppendTrials(e.st.Dir(), len(fresh), func(i int) obs.TrialRecord {
		r := &fresh[i]
		d := l.diag[r.RateIdx*l.per+r.TrialIdx-sh.Start]
		return obs.TrialRecord{Campaign: e.id, Unit: l.label, Series: r.Series, RateIdx: r.RateIdx, TrialIdx: r.TrialIdx,
			Rate: r.Rate, Seed: r.Seed, Value: obs.Float(r.Value), DurationMicros: d.dur.Microseconds(), Faults: d.faults}
	})
	l.tb.Report(lease.ID, fresh, true, time.Now(), localTTL)
	return runErr
}

// sink collects a trial of the running lease on its trial goroutine.
func (l *lane) sink(t harness.Trial) {
	d := &l.diag[t.RateIdx*l.per+t.TrialIdx-l.sh.Start]
	d.dur, d.faults = t.Dur, nil
	if fr := l.hub.TakeFaults(t.Rate, t.Seed); fr != nil {
		s := fr.Summary()
		d.faults = &s
	}
	l.hub.ObserveTrial(l.label, t.Dur)
	l.pend.Add(Record{Unit: l.sh.Unit, RateIdx: t.RateIdx, TrialIdx: t.TrialIdx, Rate: t.Rate, Seed: t.Seed, Value: t.Value})
}

// Progress reports completed vs total trials; store lines outside the
// campaign's grid are not progress.
func (e *Execution) Progress() Progress {
	return Progress{Done: e.st.Done(e.camp.Plan), Total: e.camp.Total()}
}

// Status reports every cell's statistics, computed from the store on
// each call, so a finished cell agrees exactly with the table. A call
// costs O(recorded trials): a copy of each cell's recorded values and
// one selection, in a single scratch buffer sized to the largest cell.
func (e *Execution) Status() []UnitStatus {
	per := 0
	for _, u := range e.camp.Plan.Units {
		per = max(per, u.Sweep.PerCell())
	}
	buf := make([]float64, 0, per)
	out := make([]UnitStatus, len(e.camp.Plan.Units))
	for i, u := range e.camp.Plan.Units {
		cells := make([]CellStatus, len(u.Sweep.Rates))
		trials := u.Sweep.PerCell()
		for r, rate := range u.Sweep.Rates {
			cells[r] = cellStatus(rate, trials, e.st.AppendCell(buf[:0], i, r, trials))
		}
		out[i] = UnitStatus{Series: u.Series, Agg: u.Agg, Cells: cells}
	}
	return out
}

// cellStatus summarizes one cell from its values in trial-index order:
// the mean sums them in that order, as harness.Mean does, then xs is
// reordered in place for harness.Median's median, which leaves the
// minimum in its lower half and the maximum in its upper half.
func cellStatus(rate float64, total int, xs []float64) CellStatus {
	nan := JSONFloat(math.NaN())
	c := CellStatus{Rate: rate, Done: len(xs), Total: total,
		Mean: JSONFloat(harness.Mean(xs)), Median: nan, Min: nan, Max: nan}
	if n := len(xs); n > 0 {
		c.Median = JSONFloat(harness.MedianInPlace(xs))
		c.Min, c.Max = JSONFloat(slices.Min(xs[:n/2+1])), JSONFloat(slices.Max(xs[n/2:]))
	}
	return c
}

// Table materializes the current results table.
func (e *Execution) Table() *harness.Table {
	return e.camp.TableFromStore(e.st)
}

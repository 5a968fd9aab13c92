package campaign

import (
	"context"
	"encoding/json"
	"fmt"
	"log"
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
// workers goroutines (0 = the unit's own default), handing each trial to
// sink as harness.Sweep.RunRange does. It is the one way trials execute:
// Execution.Run and robustworker run the shards they lease. A shard
// outside the grid is an error, and nothing runs.
func (c *Campaign) RunShard(ctx context.Context, sh dispatch.Shard, workers int, sink func(harness.Trial)) error {
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
	return sweep.RunRange(ctx, c.Plan.Units[sh.Unit].Fn, sh.Start, sh.Count, sink)
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

	// hub, if non-nil, receives diagnostics: trial latency observations,
	// and trial telemetry lines, which each run appends once per lease to
	// the sidecar writer the hub opens for it beside the store, never
	// into it. id labels them with the owning campaign. Both stay nil for
	// bare executions (robustbench local runs, tests).
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

// localTTL is the lease TTL of Run's leases. Nothing competes for them:
// the TTL only keeps the table's 100 ms lease slice in force.
const localTTL = time.Hour

// Run executes the campaign in-process as a fleet worker would: it
// leases shards from a dispatch.Table over the grid, each sized to about
// 100 ms of work (16 to dispatch.MaxReport trials), and runs them
// through dispatch.Consume, which merges lease k while lease k+1 runs.
// Durable trials are skipped (resume); a crash loses at most two leases,
// the running one and the one being merged. Cancelling ctx merges what
// both leases finished and returns ctx.Err(), or nil when that left
// every trial durable. A store error ends the run after the lease whose
// merge failed, and Run returns it. With a hub, the run holds the
// campaign's telemetry writer while it lasts (obs.Hub.WithTelemetry).
func (e *Execution) Run(ctx context.Context) error {
	return e.hub.WithTelemetry(e.id, e.st.Dir(), func(tel *obs.Telemetry) error {
		src := e.local(0, tel)
		defer src.release()
		err := dispatch.Consume(ctx, src)
		select {
		case <-src.tb.Done(): // also when a cancel came after the last trial
			return nil
		default:
			return err
		}
	})
}

// local is Run's dispatch.Source: leases come from the table tb, and a
// lease is delivered as the fleet merges a report (Execution.merge: one
// store write), then its new trials' lines are appended at once to the
// run's telemetry writer tel (nil without a hub) and the lease reported
// done to tb. Sources are reused from run to run with their slots'
// buffers, as a daemon runs campaign after campaign.
type local struct {
	e     *Execution
	tb    *dispatch.Table
	tel   *obs.Telemetry
	label string
	slots [2]localSlot
}

// localSlot holds one lease. Its trials collect in pend and, their
// latency and fault recorder, in diag by offset in the shard. sink is
// collect, bound once so that running a lease allocates no method value.
type localSlot struct {
	src   *local
	lease dispatch.Lease
	per   int
	pend  dispatch.Pending
	sink  func(harness.Trial)
	diag  []struct {
		dur    time.Duration
		faults *obs.FaultRecorder
	}
}

var spareLocals = make(freeList[local], spareReports)

// local sets up a source for a run of e whose leases hold at least floor
// trials (0 = the table's default) and whose trial lines go to tel.
func (e *Execution) local(floor int, tel *obs.Telemetry) *local {
	units, durable := e.grid()
	src := spareLocals.get()
	src.e, src.tb, src.tel, src.label = e, dispatch.NewTable(units, durable, floor), tel, e.camp.Spec.MetricLabel()
	for i := range src.slots {
		if sl := &src.slots[i]; sl.src == nil {
			sl.src = src
			sl.sink = sl.collect
		}
	}
	return src
}

// release returns the source for reuse, keeping only its buffers: a run
// that a failed delivery ended leaves the last lease's trials behind.
func (src *local) release() {
	src.e, src.tb, src.tel = nil, nil, nil
	for i := range src.slots {
		p := &src.slots[i].pend
		p.Take(p.Take(nil)[:0])
	}
	spareLocals.put(src)
}

// Acquire leases the next shard from the table into slot s.
func (src *local) Acquire(_ context.Context, s int) bool {
	lease, ok := src.tb.Acquire("local", time.Now(), localTTL)
	if !ok {
		return false
	}
	sl, sh := &src.slots[s], lease.Shard
	sl.lease, sl.per = lease, src.e.camp.Plan.Units[sh.Unit].Sweep.PerCell()
	sl.diag = slices.Grow(sl.diag[:0], sh.Count)[:sh.Count]
	return true
}

// Run runs slot s's lease on the spec's trial goroutines.
func (src *local) Run(ctx context.Context, s int) error {
	sl := &src.slots[s]
	return src.e.camp.RunShard(ctx, sl.lease.Shard, src.e.camp.Spec.Workers, sl.sink)
}

// Deliver merges slot s's trials into the store, appends the new ones'
// telemetry and reports the lease done, which hands back whatever a
// cancel left unrun.
func (src *local) Deliver(_ context.Context, s int) error {
	e, sl := src.e, &src.slots[s]
	recs := sl.pend.Take(nil) // the slot's next lease collects in the
	sl.pend.Take(recs[:0])    // same array, once this delivery is over
	fresh, err := e.merge(recs)
	if err != nil {
		return fmt.Errorf("campaign: record trials: %w", err)
	}
	if src.tel != nil {
		start := sl.lease.Shard.Start
		err := src.tel.AppendTrials("trial", len(fresh), func(i int) obs.TrialRecord {
			r := &fresh[i]
			d := sl.diag[r.RateIdx*sl.per+r.TrialIdx-start]
			return obs.TrialRecord{Campaign: e.id, Unit: src.label, Series: r.Series, RateIdx: r.RateIdx, TrialIdx: r.TrialIdx,
				Rate: r.Rate, Seed: r.Seed, Value: obs.Float(r.Value), DurationMicros: d.dur.Microseconds(), Faults: d.faults}
		})
		if err != nil { // telemetry never fails a trial
			log.Printf("campaign: append trial telemetry: %v", err)
		}
	}
	src.tb.Report(sl.lease.ID, fresh, true, time.Now(), localTTL)
	return nil
}

// collect collects a trial of the slot's lease on its trial goroutine.
func (sl *localSlot) collect(t harness.Trial) {
	hub, sh := sl.src.e.hub, sl.lease.Shard
	d := &sl.diag[t.RateIdx*sl.per+t.TrialIdx-sh.Start]
	d.dur, d.faults = t.Dur, hub.TakeFaults(t.Rate, t.Seed)
	hub.ObserveTrial(sl.src.label, t.Dur)
	sl.pend.Add(Record{Unit: sh.Unit, RateIdx: t.RateIdx, TrialIdx: t.TrialIdx, Rate: t.Rate, Seed: t.Seed, Value: t.Value})
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

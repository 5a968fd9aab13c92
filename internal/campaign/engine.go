package campaign

import (
	"context"
	"encoding/json"
	"fmt"
	"math"
	"slices"
	"sync"
	"sync/atomic"

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
// reach the sink. It is the one way trials execute: Execution.Run runs
// each unit as a whole-unit shard, and robustworker runs the shards it
// leases. A shard outside the grid is an error, and nothing runs.
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

	// hub, if non-nil, receives diagnostics: per-trial telemetry records
	// (written beside the store, never into it) and trial latency
	// observations. id labels them with the owning campaign. Both stay
	// nil for bare executions (robustbench local runs, tests), which then
	// behave exactly as before.
	hub *obs.Hub
	id  string
}

// SetHub attaches an observability hub; trial telemetry and latency
// histograms are labeled with the campaign id.
func (e *Execution) SetHub(h *obs.Hub, id string) {
	e.hub = h
	e.id = id
}

// MetricLabel names the spec's workload for latency histograms: the
// figure id or the custom workload name.
func (s Spec) MetricLabel() string {
	if s.Custom != nil {
		return s.Custom.Workload
	}
	return "fig:" + s.Figure
}

// observeTrial records a trial's diagnostics — its telemetry line and
// latency histogram sample — after the trial was durably added to the
// store. It never touches the store itself, and emits no ring event: at
// a trial every few microseconds one would evict every lifecycle event
// from /debug/events, and the telemetry line already carries the trial's
// identity and duration.
func (e *Execution) observeTrial(unit int, t harness.Trial) {
	if e.hub == nil {
		return
	}
	label, d := e.camp.Spec.MetricLabel(), t.Dur
	e.hub.ObserveTrial(label, d)
	rec := obs.TrialRecord{
		Campaign: e.id,
		Unit:     label,
		Series:   e.camp.Plan.Units[unit].Series,
		RateIdx:  t.RateIdx, TrialIdx: t.TrialIdx,
		Rate: t.Rate, Seed: t.Seed,
		Value:          obs.Float(t.Value),
		DurationMicros: d.Microseconds(),
	}
	if fr := e.hub.TakeFaults(t.Rate, t.Seed); fr != nil {
		s := fr.Summary()
		rec.Faults = &s
	}
	e.hub.AppendTrial(e.st.Dir(), rec)
}

// merge merges trial results into the store with one write and counts
// the new ones — those whose keys were not yet durable — in the
// fresh-trial counter. It returns the new ones, compacted in place in
// recs: a duplicate (a concurrent worker or a reassigned shard got there
// first) changes nothing. The in-process sink merges each trial as a
// batch of one, the dispatched sink each worker report as one batch.
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

// record is the in-process sink for one freshly computed trial of unit:
// it merges the trial into the store as a batch of one, then records its
// diagnostics if it was new.
func (e *Execution) record(unit int, t harness.Trial) error {
	batch := [1]Record{{
		Unit: unit, RateIdx: t.RateIdx, TrialIdx: t.TrialIdx,
		Rate: t.Rate, Seed: t.Seed, Value: t.Value,
	}}
	fresh, err := e.merge(batch[:])
	if len(fresh) == 1 {
		e.observeTrial(unit, t)
	} else if e.hub != nil {
		e.hub.TakeFaults(t.Rate, t.Seed) // drop the recorders of a trial the store refused
	}
	return err
}

// NewExecution prepares a run of camp against st. It reads nothing from
// the store: Run takes the durable set when it starts, and Status reads
// the store when asked.
func NewExecution(camp *Campaign, st *Store) *Execution {
	return &Execution{camp: camp, st: st}
}

// Run executes every unit in plan order, each as one whole-unit shard
// through RunShard. Trials already durable when it starts are skipped
// (resume); every freshly executed trial is appended to the store before
// counting as progress, so an interrupt at any point loses no completed
// work. Cancelling ctx stops between trials and returns ctx.Err(). A
// store error stops the sweep too, without computing the remaining
// trials, and Run returns that error rather than a cancellation.
func (e *Execution) Run(ctx context.Context) error {
	ctx, stop := context.WithCancel(ctx)
	defer stop()
	durable := e.st.Durable(e.camp.Plan)
	for unit, u := range e.camp.Plan.Units {
		var sinkErr error
		var sinkMu sync.Mutex
		hooks := harness.Hooks{
			Skip: durable[unit],
			Sink: func(t harness.Trial) {
				if err := e.record(unit, t); err != nil {
					sinkMu.Lock()
					if sinkErr == nil {
						sinkErr = err
					}
					sinkMu.Unlock()
					stop() // no later trial of this sweep could be recorded
				}
			},
		}
		err := e.camp.RunShard(ctx, dispatch.Shard{Unit: unit, Count: u.Sweep.Size()}, e.camp.Spec.Workers, hooks)
		if sinkErr != nil {
			return fmt.Errorf("campaign: record trial: %w", sinkErr)
		}
		if err != nil {
			return err
		}
	}
	return nil
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

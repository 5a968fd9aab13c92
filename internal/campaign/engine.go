package campaign

import (
	"context"
	"encoding/json"
	"fmt"
	"math"
	"strconv"
	"sync"
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

// unitTrials is the one grid-normalization rule, shared with the
// dispatch layer so coordinator and workers always linearize the same
// grid.
func unitTrials(u figures.Unit) int { return dispatch.TrialsPerCell(u.Sweep.Trials) }

// TableFromStore materializes the campaign's table from whatever the store
// currently holds: cells aggregate over their completed trials in
// trial-index order, empty cells are omitted. Once every trial is
// recorded, the result is byte-identical to an uninterrupted Plan.Build —
// same values folded by the same aggregators in the same order.
func (c *Campaign) TableFromStore(st *Store) *harness.Table {
	t := c.Plan.Skeleton
	t.Series = make([]harness.Series, len(c.Plan.Units))
	for i, u := range c.Plan.Units {
		agg, err := harness.AggregatorByName(u.Agg)
		if err != nil {
			agg = harness.Mean
		}
		trials := unitTrials(u)
		var pts []harness.Point
		for r, rate := range u.Sweep.Rates {
			xs := st.CellValues(i, r, trials)
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
// null, so live statistics of empty cells survive JSON encoding.
type JSONFloat float64

// MarshalJSON implements json.Marshaler.
func (f JSONFloat) MarshalJSON() ([]byte, error) {
	v := float64(f)
	if v != v || math.IsInf(v, 0) {
		return []byte("null"), nil
	}
	return json.Marshal(v)
}

// CellStatus is the live view of one (series, rate) cell: completed-trial
// count plus streaming statistics (exact mean/min/max, P² median
// estimate). Final numbers come from TableFromStore, not from here.
type CellStatus struct {
	Rate   float64   `json:"rate"`
	Done   int       `json:"done"`
	Total  int       `json:"total"`
	Mean   JSONFloat `json:"mean"`
	Median JSONFloat `json:"median"`
	// MedianEstimated marks a median that has spilled from the exact
	// small-cell buffer to the P² streaming estimate, so mid-run JSON can
	// no longer promise agreement with the exact final table.
	MedianEstimated bool      `json:"median_estimated,omitempty"`
	Min             JSONFloat `json:"min"`
	Max             JSONFloat `json:"max"`
}

// UnitStatus is the live view of one series.
type UnitStatus struct {
	Series string       `json:"series"`
	Agg    string       `json:"agg"`
	Cells  []CellStatus `json:"cells"`
}

// Execution runs a campaign against a store, tracking live per-cell
// streaming statistics. It is safe to query (Progress, Status, Table)
// while Run is executing on another goroutine.
type Execution struct {
	camp *Campaign
	st   *Store
	// trials, if non-nil, counts freshly executed (non-cached) trials —
	// the manager points every execution at one daemon-wide counter for
	// the /metrics throughput numbers.
	trials *atomic.Int64

	// hub, if non-nil, receives diagnostics: per-trial telemetry records
	// (written beside the store, never into it), trial latency
	// observations, and trial-finish trace events. id labels them with
	// the owning campaign. Both stay nil for bare executions (robustbench
	// local runs, tests), which then behave exactly as before.
	hub *obs.Hub
	id  string

	// lat stashes each in-flight trial's wall-clock latency between the
	// instrumented trial function returning and the sink consuming the
	// result (the harness runs both on the same goroutine, so the stash
	// for a given seed is written before it is read).
	latMu sync.Mutex
	lat   map[uint64]time.Duration

	mu    sync.Mutex
	stats [][]*OnlineStats // [unit][rateIdx]
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

// stashLatency records a just-computed trial's latency until its sink
// runs; takeLatency removes and returns it.
func (e *Execution) stashLatency(seed uint64, d time.Duration) {
	e.latMu.Lock()
	if e.lat == nil {
		e.lat = make(map[uint64]time.Duration)
	}
	e.lat[seed] = d
	e.latMu.Unlock()
}

func (e *Execution) takeLatency(seed uint64) time.Duration {
	e.latMu.Lock()
	d := e.lat[seed]
	delete(e.lat, seed)
	e.latMu.Unlock()
	return d
}

// observeDispatched is observeTrial for results arriving from a worker
// fleet: no local latency or fault recorder exists for them.
func (e *Execution) observeDispatched(r dispatch.TrialResult) {
	if e.hub == nil {
		return
	}
	e.hub.AppendTrial(e.st.Dir(), obs.TrialRecord{
		Campaign: e.id,
		Unit:     e.camp.Spec.MetricLabel(),
		Series:   e.camp.Plan.Units[r.Unit].Series,
		RateIdx:  r.RateIdx, TrialIdx: r.TrialIdx,
		Rate: r.Rate, Seed: r.Seed,
		Value: obs.Float(r.Value),
	})
}

// observeTrial emits a trial's diagnostics — telemetry record, latency
// histogram sample, and trace event — after the trial was durably added
// to the store. It never touches the store itself.
func (e *Execution) observeTrial(unit int, t harness.Trial, d time.Duration) {
	if e.hub == nil {
		return
	}
	label := e.camp.Spec.MetricLabel()
	if d > 0 {
		e.hub.ObserveTrial(label, d)
	}
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
	e.hub.Emit("trial.finish", e.id,
		e.camp.Plan.Units[unit].Series+" rate="+strconv.FormatFloat(t.Rate, 'g', -1, 64)+
			" trial="+strconv.Itoa(t.TrialIdx)+" dur="+d.String())
}

// noteTrial bumps the fresh-trial counter, if one is attached.
func (e *Execution) noteTrial() {
	if e.trials != nil {
		e.trials.Add(1)
	}
}

// NewExecution prepares a run, folding any trials already in the store
// into the live statistics (so a resumed campaign's status is complete).
func NewExecution(camp *Campaign, st *Store) *Execution {
	e := &Execution{camp: camp, st: st}
	e.stats = make([][]*OnlineStats, len(camp.Plan.Units))
	for i, u := range camp.Plan.Units {
		e.stats[i] = make([]*OnlineStats, len(u.Sweep.Rates))
		trials := unitTrials(u)
		for r := range u.Sweep.Rates {
			s := &OnlineStats{}
			for _, v := range st.CellValues(i, r, trials) {
				s.Add(v)
			}
			e.stats[i][r] = s
		}
	}
	return e
}

// Run executes every unit in plan order. Trials already in the store are
// served from it instead of re-executing (resume); every freshly executed
// trial is appended to the store before counting as progress, so an
// interrupt at any point loses no completed work. Cancelling ctx stops
// between trials and returns ctx.Err(). A store error stops the sweep
// too, without computing the remaining trials, and Run returns that
// error rather than a cancellation.
func (e *Execution) Run(ctx context.Context) error {
	ctx, stop := context.WithCancel(ctx)
	defer stop()
	for i, u := range e.camp.Plan.Units {
		unit, stats := i, e.stats[i]
		agg, err := harness.AggregatorByName(u.Agg)
		if err != nil {
			return err
		}
		var sinkErr error
		var sinkMu sync.Mutex
		fn := u.Fn
		if e.hub != nil {
			// Wrap the trial function to time each fresh trial. The stash
			// is keyed by seed and consumed by the sink, which the harness
			// runs on the computing goroutine right after fn returns. The
			// wrapper changes no arithmetic: fn's value passes through
			// untouched, so results stay bit-identical with the hub on.
			inner := u.Fn
			fn = func(rate float64, seed uint64) float64 {
				start := time.Now()
				v := inner(rate, seed)
				e.stashLatency(seed, time.Since(start))
				return v
			}
		}
		hooks := harness.Hooks{
			Lookup: func(rateIdx, trial int) (float64, bool) {
				return e.st.Lookup(unit, rateIdx, trial)
			},
			Sink: func(t harness.Trial) {
				if t.Cached {
					return // already folded in (preloaded from the store)
				}
				added, err := e.st.Put(Record{
					Unit: unit, RateIdx: t.RateIdx, TrialIdx: t.TrialIdx,
					Rate: t.Rate, Seed: t.Seed, Value: t.Value,
					Series: e.camp.Plan.Units[unit].Series,
				})
				if err != nil {
					sinkMu.Lock()
					if sinkErr == nil {
						sinkErr = err
					}
					sinkMu.Unlock()
					stop() // no later trial of this sweep could be recorded
					e.discard(t)
					return
				}
				if !added {
					e.discard(t) // a concurrent worker beat us to this key
					return
				}
				e.noteTrial()
				e.mu.Lock()
				stats[t.RateIdx].Add(t.Value)
				e.mu.Unlock()
				e.observeTrial(unit, t, e.takeLatency(t.Seed))
			},
		}
		sweep := u.Sweep
		if e.camp.Spec.Workers > 0 {
			sweep.Workers = e.camp.Spec.Workers
		}
		_, err = sweep.RunHooked(ctx, fn, agg, hooks)
		if sinkErr != nil {
			return fmt.Errorf("campaign: record trial: %w", sinkErr)
		}
		if err != nil {
			return err
		}
	}
	return nil
}

// discard drops the diagnostics stashed for a trial that never reached
// the store.
func (e *Execution) discard(t harness.Trial) {
	if e.hub == nil {
		return
	}
	e.takeLatency(t.Seed)
	e.hub.TakeFaults(t.Rate, t.Seed)
}

// Progress reports completed vs total trials.
func (e *Execution) Progress() Progress {
	return Progress{Done: e.st.Count(), Total: e.camp.Total()}
}

// Status reports the live per-cell statistics of every unit.
func (e *Execution) Status() []UnitStatus {
	e.mu.Lock()
	defer e.mu.Unlock()
	out := make([]UnitStatus, len(e.camp.Plan.Units))
	for i, u := range e.camp.Plan.Units {
		us := UnitStatus{Series: u.Series, Agg: u.Agg}
		trials := unitTrials(u)
		for r, rate := range u.Sweep.Rates {
			s := e.stats[i][r]
			us.Cells = append(us.Cells, CellStatus{
				Rate: rate, Done: s.Count(), Total: trials,
				Mean: JSONFloat(s.Mean()), Median: JSONFloat(s.Median()),
				MedianEstimated: s.MedianEstimated(),
				Min:             JSONFloat(s.Min()), Max: JSONFloat(s.Max()),
			})
		}
		out[i] = us
	}
	return out
}

// Table materializes the current results table.
func (e *Execution) Table() *harness.Table {
	return e.camp.TableFromStore(e.st)
}

package campaign

import (
	"context"
	"encoding/json"
	"fmt"

	"robustify/internal/dispatch"
	"robustify/internal/obs"
)

// RunDispatched executes the campaign on a robustworker fleet instead of
// in-process: the grid is handed to the dispatch coordinator as one job,
// workers pull shard leases and stream results back, and every verified
// result is merged through the same dedup-keyed store the local path
// uses — so the finished table is byte-identical to Run's, regardless of
// fleet size, shard interleaving, or how many leases expired and were
// reassigned along the way. Trials already in the store are never
// re-dispatched (resume), and cancelling ctx stops dispatching without
// losing durable work.
func (e *Execution) RunDispatched(ctx context.Context, d *dispatch.Coordinator, id string) error {
	specJSON, err := json.Marshal(e.camp.Spec)
	if err != nil {
		return fmt.Errorf("campaign: encode spec for dispatch: %w", err)
	}
	units := make([]dispatch.UnitGrid, len(e.camp.Plan.Units))
	for i, u := range e.camp.Plan.Units {
		units[i] = dispatch.UnitGrid{Rates: len(u.Sweep.Rates), Trials: u.Sweep.PerCell()}
	}
	return d.RunJob(ctx, dispatch.Job{
		Campaign: id,
		Spec:     specJSON,
		Units:    units,
		Durable:  e.st.Durable(e.camp.Plan),
		// A result must carry exactly the rate and seed the grid pins for
		// its key — anything else is a worker running different code (or
		// lying) and would silently corrupt a deterministic table.
		// Bounds are already checked by dispatch.
		Verify: func(r dispatch.TrialResult) bool {
			return pinned(e.camp.Plan, r.Unit, r.RateIdx, r.TrialIdx, r.Rate, r.Seed)
		},
		Sink: e.mergeReport,
	})
}

// reportBatch holds one worker report's store records and telemetry
// lines while it is merged. Batches are reused, so merging a report
// allocates nothing per result.
type reportBatch struct {
	recs []Record
	tele []obs.TrialRecord
}

var reportBatches = make(freeList[reportBatch], spareReports)

// spareReports is how many report-sized buffers of each kind are kept
// for reuse: enough for that many reports handled at once.
const spareReports = 4

// freeList keeps up to cap(l) spare values for reuse. Report buffers are
// hundreds of kilobytes; unlike a sync.Pool, a free list keeps them
// across garbage collections and whichever processor a report runs on.
type freeList[T any] chan *T

// get takes a spare value, or a new zero one when there is none.
func (l freeList[T]) get() *T {
	select {
	case v := <-l:
		return v
	default:
		return new(T)
	}
}

// put returns v for reuse, dropping it when the list is full.
func (l freeList[T]) put(v *T) {
	select {
	case l <- v:
	default:
	}
}

// mergeReport is the dispatched sink: it merges one worker report with
// one store write and, when a hub is attached, writes the telemetry of
// its fresh results with one more. A fleet result's latency and fault
// placement live in the worker's own telemetry, so the coordinator's
// line records only its arrival.
func (e *Execution) mergeReport(results []dispatch.TrialResult) error {
	b := reportBatches.get()
	defer reportBatches.put(b)
	b.recs = b.recs[:0]
	for _, r := range results {
		b.recs = append(b.recs, Record{
			Unit: r.Unit, RateIdx: r.RateIdx, TrialIdx: r.TrialIdx,
			Rate: r.Rate, Seed: r.Seed, Value: r.Value,
		})
	}
	fresh, err := e.merge(b.recs)
	if err != nil || e.hub == nil {
		return err
	}
	label := e.camp.Spec.MetricLabel()
	b.tele = b.tele[:0]
	for _, r := range fresh {
		b.tele = append(b.tele, obs.TrialRecord{
			Campaign: e.id, Unit: label, Series: r.Series,
			RateIdx: r.RateIdx, TrialIdx: r.TrialIdx,
			Rate: r.Rate, Seed: r.Seed, Value: obs.Float(r.Value),
		})
	}
	e.hub.AppendTrials(e.st.Dir(), b.tele)
	return nil
}

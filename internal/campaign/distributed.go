package campaign

import (
	"context"
	"encoding/json"
	"fmt"

	"robustify/internal/dispatch"
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

// reportBatches holds the buffers worker reports are merged through:
// merging writes each record's series, and a sink must not modify the
// report's slice. Batches are reused, so merging a report allocates
// nothing per result.
var reportBatches = make(freeList[[]Record], spareReports)

// spareReports is how many report-sized buffers are kept for reuse:
// enough for that many reports handled at once.
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
// one store write. The coordinator writes no telemetry for it: a fleet
// result's latency and fault placement are the worker's own diagnostics.
func (e *Execution) mergeReport(results []dispatch.TrialResult) error {
	b := reportBatches.get()
	defer reportBatches.put(b)
	*b = append((*b)[:0], results...)
	_, err := e.merge(*b)
	return err
}

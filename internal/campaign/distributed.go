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
// losing durable work. Like Run, it holds the campaign's telemetry
// writer while it lasts.
func (e *Execution) RunDispatched(ctx context.Context, d *dispatch.Coordinator, id string) error {
	specJSON, err := json.Marshal(e.camp.Spec)
	if err != nil {
		return fmt.Errorf("campaign: encode spec for dispatch: %w", err)
	}
	units, durable := e.grid()
	job := dispatch.Job{
		Campaign: id,
		Spec:     specJSON,
		Units:    units,
		Durable:  durable,
		// A result must carry exactly the rate and seed the grid pins for
		// its key — anything else is a worker running different code (or
		// lying) and would silently corrupt a deterministic table.
		// Bounds are already checked by dispatch.
		Verify: func(r dispatch.TrialResult) bool {
			return pinned(e.camp.Plan, r.Unit, r.RateIdx, r.TrialIdx, r.Rate, r.Seed)
		},
		Sink: e.merge,
	}
	// The coordinator writes no line for a remote trial: the writer
	// carries only the run's mirrored events.
	return e.hub.WithTelemetry(id, e.st.Dir(), func(*obs.Telemetry) error {
		return d.RunJob(ctx, job)
	})
}

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

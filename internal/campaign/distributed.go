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
		Have: func(k dispatch.Key) bool {
			_, ok := e.st.Lookup(k.Unit, k.RateIdx, k.TrialIdx)
			return ok
		},
		// A result must carry exactly the rate and seed the grid pins for
		// its key — anything else is a worker running different code (or
		// lying) and would silently corrupt a deterministic table.
		Verify: func(r dispatch.TrialResult) bool {
			u := e.camp.Plan.Units[r.Unit] // bounds already checked by dispatch
			return r.Rate == u.Sweep.Rates[r.RateIdx] && r.Seed == u.Sweep.TrialSeed(r.RateIdx, r.TrialIdx)
		},
		Sink: func(results []dispatch.TrialResult) error {
			for _, r := range results {
				added, err := e.record(Record{
					Unit: r.Unit, RateIdx: r.RateIdx, TrialIdx: r.TrialIdx,
					Rate: r.Rate, Seed: r.Seed, Value: r.Value,
				})
				if err != nil {
					return err
				}
				if added { // else a duplicate from a reassigned shard
					e.observeDispatched(r)
				}
			}
			return nil
		},
	})
}

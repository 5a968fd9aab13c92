package figures

import (
	"context"
	"fmt"

	"robustify/internal/harness"
)

// Unit is one series of a sweep-shaped figure: an independent rate×trial
// grid with its own aggregator. Units are the scheduling granularity of the
// campaign engine — every trial in a unit's grid is addressable as
// (unit index, rate index, trial index) and replayable from Sweep.TrialSeed.
type Unit struct {
	// Series is the name the unit's points carry in the finished table.
	Series string
	// Agg names the cell aggregator: "mean" or "median".
	Agg string
	// Sweep is the rate×trial grid (seed, rates, trials, workers).
	Sweep harness.Sweep
	// Fn runs one trial.
	Fn harness.TrialFunc
}

// Plan is the declarative decomposition of a figure into sweep units plus a
// table skeleton. A Plan exposes the figure's trial grid before any trial
// has run, so an external engine can execute, persist, and resume it; Build
// runs it eagerly, as Figure.Build does.
type Plan struct {
	// ID is the figure id ("6.1", "momentum", ...).
	ID string
	// Skeleton carries Title, XLabel, YLabel, and Notes; its Series are
	// filled from Units in order.
	Skeleton harness.Table
	// Units hold one grid per series, in presentation order.
	Units []Unit
}

// Size is the total number of trials across all units.
func (p *Plan) Size() int {
	n := 0
	for _, u := range p.Units {
		n += u.Sweep.Size()
	}
	return n
}

// Build executes every unit in order and returns the finished table. It is
// the reference execution: any engine that replays the same grids must
// reproduce Build's table exactly.
func (p *Plan) Build() *harness.Table {
	t := p.Skeleton
	t.Series = make([]harness.Series, len(p.Units))
	for i, u := range p.Units {
		agg, err := harness.AggregatorByName(u.Agg)
		if err != nil {
			panic(fmt.Sprintf("figures: plan %s unit %q: %v", p.ID, u.Series, err))
		}
		points, _ := u.Sweep.RunHooked(context.Background(), u.Fn, agg)
		t.Series[i] = harness.Series{Name: u.Series, Points: points}
	}
	return &t
}

// PlanFor returns the sweep plan for a figure id, or nil when the figure is
// unknown or not sweep-shaped (use Lookup for the eager builder instead).
func PlanFor(id string, c Config) *Plan {
	if plan := find(id).Plan; plan != nil {
		return plan(c)
	}
	return nil
}

// HasPlan reports whether a figure id is sweep-shaped without building
// its (potentially full-size) plan.
func HasPlan(id string) bool { return find(id).Plan != nil }

// PlanIDs lists the figure ids that expose sweep plans, in registry order.
func PlanIDs() []string {
	var ids []string
	for _, f := range All() {
		if f.Plan != nil {
			ids = append(ids, f.ID)
		}
	}
	return ids
}

package obs

import (
	"math"
	"sync"

	"robustify/internal/fpu"
)

// collectorCap bounds the number of (rate, seed) keys a Collector holds.
// Keys are removed by Take as trials complete; the cap only matters when
// nothing takes them (robustbench -telemetry drains once, after the run)
// or a workload builds throwaway units outside any trial. At the cap the
// held recorders are folded into per-rate totals and the map is emptied,
// so DrainByRate still counts every fault while memory stays bounded: one
// recorder per rate. A trial still running at the fold keeps recording
// into a recorder the collector no longer holds, and the fold reads that
// recorder's counters without synchronising with it, so the faults it
// records after the fold are not counted: at most one trial per trial
// goroutine for each fold.
const collectorCap = 16384

// Collector hands out FaultRecorders keyed by (rate, seed) — the identity
// the trial layer already threads everywhere — and lets the sink that
// observes a trial's completion take the merged counters back out.
//
// The map holds the newest recorder of each key. A trial function may
// build several faulty units for the same (rate, seed) (one per solver
// variant under comparison); each gets its own recorder, chained to the
// key's older ones through its next field, and Take merges the chain. A
// trial that builds one unit thus costs one allocation: its recorder.
type Collector struct {
	mu     sync.Mutex
	byKey  map[collectorKey]*FaultRecorder
	byRate map[float64]*FaultRecorder // totals folded at the cap
}

type collectorKey struct {
	rate uint64 // math.Float64bits of the trial rate: exact, hashable
	seed uint64
}

// NewCollector returns an empty collector.
func NewCollector() *Collector {
	return &Collector{
		byKey:  make(map[collectorKey]*FaultRecorder),
		byRate: make(map[float64]*FaultRecorder),
	}
}

// Observer returns a fresh recorder registered under (rate, seed). It is
// the factory signature expected by faultmodel.SetUnitObserver.
func (c *Collector) Observer(rate float64, seed uint64) fpu.Observer {
	r := &FaultRecorder{}
	k := collectorKey{rate: math.Float64bits(rate), seed: seed}
	c.mu.Lock()
	if len(c.byKey) >= collectorCap {
		c.foldLocked()
	}
	r.next = c.byKey[k]
	c.byKey[k] = r
	c.mu.Unlock()
	return r
}

// Take removes the recorders registered under (rate, seed) and returns
// their counters, or nil when none were. A lone recorder (a trial that
// built one unit) is returned itself, not copied; a chain is merged into
// a fresh recorder. Call it only after the trial at that key has
// finished computing (its units' goroutine has returned), which the
// harness guarantees for sinks.
func (c *Collector) Take(rate float64, seed uint64) *FaultRecorder {
	k := collectorKey{rate: math.Float64bits(rate), seed: seed}
	c.mu.Lock()
	r := c.byKey[k]
	delete(c.byKey, k)
	c.mu.Unlock()
	if r == nil || r.next == nil {
		return r
	}
	merged := &FaultRecorder{}
	merged.mergeChain(r)
	return merged
}

// DrainByRate removes every pending recorder and returns the faults
// recorded since the last drain merged per trial rate — the aggregate view
// robustbench's -telemetry report uses after a run, when individual trials
// no longer matter.
func (c *Collector) DrainByRate() map[float64]*FaultRecorder {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.foldLocked()
	out := c.byRate
	c.byRate = make(map[float64]*FaultRecorder)
	return out
}

// foldLocked merges every held recorder into its rate's total and empties
// the map. The caller holds c.mu.
func (c *Collector) foldLocked() {
	for k, r := range c.byKey {
		rate := math.Float64frombits(k.rate)
		t := c.byRate[rate]
		if t == nil {
			t = &FaultRecorder{}
			c.byRate[rate] = t
		}
		t.mergeChain(r)
	}
	clear(c.byKey)
}

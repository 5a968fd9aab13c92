package obs

import (
	"math"
	"sync"

	"robustify/internal/fpu"
)

// collectorCap bounds the number of (rate, seed) keys a Collector holds.
// Keys are removed by Take as trials complete; the cap only matters if a
// caller attaches recorders and never takes them (e.g. a workload building
// throwaway units outside any trial), in which case the map is reset —
// recorders stay referenced by their live units, they just stop being
// retrievable, which loses diagnostics but can never leak unboundedly.
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
	mu    sync.Mutex
	byKey map[collectorKey]*FaultRecorder
}

type collectorKey struct {
	rate uint64 // math.Float64bits of the trial rate: exact, hashable
	seed uint64
}

// NewCollector returns an empty collector.
func NewCollector() *Collector {
	return &Collector{byKey: make(map[collectorKey]*FaultRecorder)}
}

// Observer returns a fresh recorder registered under (rate, seed). It is
// the factory signature expected by faultmodel.SetUnitObserver.
func (c *Collector) Observer(rate float64, seed uint64) fpu.Observer {
	r := &FaultRecorder{}
	k := collectorKey{rate: math.Float64bits(rate), seed: seed}
	c.mu.Lock()
	if len(c.byKey) >= collectorCap {
		c.byKey = make(map[collectorKey]*FaultRecorder)
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

// DrainByRate removes every pending recorder and merges them per trial
// rate — the aggregate view robustbench's -telemetry report uses after a
// run, when individual trials no longer matter.
func (c *Collector) DrainByRate() map[float64]*FaultRecorder {
	c.mu.Lock()
	byKey := c.byKey
	c.byKey = make(map[collectorKey]*FaultRecorder)
	c.mu.Unlock()
	out := make(map[float64]*FaultRecorder)
	for k, r := range byKey {
		rate := math.Float64frombits(k.rate)
		m := out[rate]
		if m == nil {
			m = &FaultRecorder{}
			out[rate] = m
		}
		m.mergeChain(r)
	}
	return out
}

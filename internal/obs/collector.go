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
// A trial function may build several faulty units for the same (rate,
// seed) (one per solver variant under comparison); each gets its own
// recorder and Take merges them.
type Collector struct {
	mu    sync.Mutex
	byKey map[collectorKey][]*FaultRecorder
}

type collectorKey struct {
	rate uint64 // math.Float64bits of the trial rate: exact, hashable
	seed uint64
}

// NewCollector returns an empty collector.
func NewCollector() *Collector {
	return &Collector{byKey: make(map[collectorKey][]*FaultRecorder)}
}

// Observer returns a fresh recorder registered under (rate, seed). It is
// the factory signature expected by faultmodel.SetUnitObserver.
func (c *Collector) Observer(rate float64, seed uint64) fpu.Observer {
	r := &FaultRecorder{}
	k := collectorKey{rate: math.Float64bits(rate), seed: seed}
	c.mu.Lock()
	if len(c.byKey) >= collectorCap {
		c.byKey = make(map[collectorKey][]*FaultRecorder)
	}
	c.byKey[k] = append(c.byKey[k], r)
	c.mu.Unlock()
	return r
}

// Take removes every recorder registered under (rate, seed) and returns
// them merged, or nil when none were. A lone recorder (a trial that built
// one unit) is returned itself, not copied. Call it only after the trial
// at that key has finished computing (its units' goroutine has returned),
// which the harness guarantees for sinks.
func (c *Collector) Take(rate float64, seed uint64) *FaultRecorder {
	k := collectorKey{rate: math.Float64bits(rate), seed: seed}
	c.mu.Lock()
	rs := c.byKey[k]
	delete(c.byKey, k)
	c.mu.Unlock()
	switch len(rs) {
	case 0:
		return nil
	case 1:
		return rs[0]
	}
	merged := &FaultRecorder{}
	for _, r := range rs {
		merged.Merge(r)
	}
	return merged
}

// DrainByRate removes every pending recorder and merges them per trial
// rate — the aggregate view robustbench's -telemetry report uses after a
// run, when individual trials no longer matter.
func (c *Collector) DrainByRate() map[float64]*FaultRecorder {
	c.mu.Lock()
	byKey := c.byKey
	c.byKey = make(map[collectorKey][]*FaultRecorder)
	c.mu.Unlock()
	out := make(map[float64]*FaultRecorder)
	for k, rs := range byKey {
		rate := math.Float64frombits(k.rate)
		m := out[rate]
		if m == nil {
			m = &FaultRecorder{}
			out[rate] = m
		}
		for _, r := range rs {
			m.Merge(r)
		}
	}
	return out
}

package obs

import (
	"io"
	"maps"
	"math"
	"slices"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"
)

// histBounds are the upper bounds, in seconds, of the latency histogram
// buckets (Prometheus `le` convention, the last one +Inf). Trial latencies
// in this repo span ~100µs (quick figure cells) to tens of seconds (full
// CG sweeps), so the bounds cover 100µs..10s log-ish.
var histBounds = [...]float64{
	0.0001, 0.00025, 0.0005, 0.001, 0.0025, 0.005, 0.01,
	0.025, 0.05, 0.1, 0.25, 0.5, 1, 2.5, 5, 10, math.Inf(1),
}

// Hist is a fixed-bucket latency histogram safe for concurrent observers
// and scrapers: pure atomics, no locks on the observe path. Counts are
// per-bucket (non-cumulative); exposition accumulates.
type Hist struct {
	buckets  [len(histBounds)]atomic.Uint64
	count    atomic.Uint64
	sumNanos atomic.Uint64
}

// Observe records one duration.
func (h *Hist) Observe(d time.Duration) {
	i := sort.SearchFloat64s(histBounds[:], d.Seconds())
	h.buckets[i].Add(1)
	h.count.Add(1)
	if d > 0 {
		h.sumNanos.Add(uint64(d))
	}
}

// HistSet is a label → histogram map, one histogram per workload label.
type HistSet struct {
	mu sync.Mutex
	m  map[string]*Hist
}

// NewHistSet returns an empty set.
func NewHistSet() *HistSet {
	return &HistSet{m: make(map[string]*Hist)}
}

// Observe records one duration under the given label.
func (s *HistSet) Observe(label string, d time.Duration) {
	s.mu.Lock()
	h := s.m[label]
	if h == nil {
		h = &Hist{}
		s.m[label] = h
	}
	s.mu.Unlock()
	h.Observe(d)
}

// WriteProm writes the set as a Prometheus histogram family named name,
// one series per workload label, labels sorted for stable exposition
// order. Nothing is written while the set is empty.
func (s *HistSet) WriteProm(w io.Writer, name string) {
	s.mu.Lock()
	m := maps.Clone(s.m)
	s.mu.Unlock()
	if len(m) == 0 {
		return
	}
	p := NewProm(w)
	p.Family(name, "histogram", "")
	for _, l := range slices.Sorted(maps.Keys(m)) {
		h := m[l]
		var cum uint64
		for b, bound := range histBounds {
			cum += h.buckets[b].Load()
			p.Int(name+"_bucket", int64(cum), "workload", l, "le", strconv.FormatFloat(bound, 'g', -1, 64))
		}
		p.Float(name+"_sum", float64(h.sumNanos.Load())/1e9, "workload", l)
		p.Int(name+"_count", int64(h.count.Load()), "workload", l)
	}
}

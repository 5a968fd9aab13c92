package main

import (
	"io"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"robustify/internal/obs"
)

// wstats is the worker's own observability state: monotonic execution
// counters, per-workload trial latency histograms, and the fold of every
// trial's fault-placement recorders. It is purely diagnostic — trial
// values are computed exactly as without it.
type wstats struct {
	trials  atomic.Int64
	shards  atomic.Int64
	reports atomic.Int64

	lat       *obs.HistSet
	collector *obs.Collector

	mu     sync.Mutex
	faults obs.FaultRecorder // merged across all completed trials
}

func newWstats() *wstats {
	return &wstats{lat: obs.NewHistSet(), collector: obs.NewCollector()}
}

// observeTrial records one executed trial: its latency under the
// workload label, the trial counter, and the fault recorders its faulty
// units accumulated.
func (s *wstats) observeTrial(label string, d time.Duration, rate float64, seed uint64) {
	s.trials.Add(1)
	s.lat.Observe(label, d)
	if fr := s.collector.Take(rate, seed); fr != nil {
		s.mu.Lock()
		s.faults.Merge(fr)
		s.mu.Unlock()
	}
}

// metricsHandler serves the worker's GET /metrics in Prometheus text
// exposition format. Stateless like robustd's: counters and histograms
// only, safe under concurrent scrapes.
func (s *wstats) metricsHandler() http.HandlerFunc {
	return obs.MetricsHandler(func(w io.Writer) {
		p := obs.NewProm(w)
		p.Family("robustworker_trials_total", "counter", "Trials executed since worker start.")
		p.Int("robustworker_trials_total", s.trials.Load())
		p.Family("robustworker_shards_total", "counter", "Shard leases executed since worker start.")
		p.Int("robustworker_shards_total", s.shards.Load())
		p.Family("robustworker_reports_total", "counter", "Result batches delivered to the coordinator.")
		p.Int("robustworker_reports_total", s.reports.Load())

		s.mu.Lock()
		f := s.faults
		s.mu.Unlock()
		p.Family("robustworker_faults_total", "counter", "Injected faults observed across executed trials, by class.")
		p.Int("robustworker_faults_total", int64(f.ValueFaults), "class", "value")
		p.Int("robustworker_faults_total", int64(f.CompareFaults), "class", "compare")
		p.Int("robustworker_faults_total", int64(f.Sign), "class", "sign")
		p.Int("robustworker_faults_total", int64(f.Exponent), "class", "exponent")
		p.Int("robustworker_faults_total", int64(f.Mantissa), "class", "mantissa")
		p.Int("robustworker_faults_total", int64(f.MultiBit), "class", "multi_bit")
		p.Int("robustworker_faults_total", int64(f.Clustered), "class", "clustered")
		p.Int("robustworker_faults_total", int64(f.MemFaults), "class", "memory")
		s.lat.WriteProm(w, "robustworker_trial_duration_seconds")
	})
}

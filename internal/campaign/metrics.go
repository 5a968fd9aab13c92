package campaign

import (
	"io"
	"net/http"

	"robustify/internal/obs"
)

// storeBytes sums the on-disk size of every open campaign store, in
// submission order. Lazily recovered stores that were never opened don't
// count — the gauge tracks live write load, not archive size.
func (m *Manager) storeBytes() int64 {
	var total int64
	for _, j := range m.jobs.Jobs() {
		h := j.Work().(*handle)
		h.mu.Lock()
		if h.st != nil {
			total += h.st.Size()
		}
		h.mu.Unlock()
	}
	return total
}

// metricsHandler serves GET /metrics in Prometheus text exposition
// format: campaigns by state, monotonic trial counters, store size, and —
// when a dispatcher is attached — worker fleet and lease-table gauges,
// followed by any registered extra families (trial latency histograms,
// tune-search progress). State and progress come from the in-memory
// registry.
//
// The handler is deliberately stateless: every exported number is either
// a monotonic counter or an instantaneous gauge, so any number of
// concurrent scrapers see consistent values. Rates are the scraper's job
// (PromQL rate()); an earlier trials-per-second gauge computed against
// the previous scrape's state corrupted under concurrent scrapers and is
// gone.
func metricsHandler(m *Manager) http.HandlerFunc {
	return obs.MetricsHandler(func(w io.Writer) {
		p := obs.NewProm(w)
		counts := m.jobs.Counts()
		p.Family("robustd_campaigns", "gauge", "Campaigns in the registry by lifecycle state.")
		for _, state := range []string{
			StateQueued, StateRunning, StateDone, StateFailed, StateCancelled, StateInterrupted,
		} {
			p.Int("robustd_campaigns", int64(counts[state]), "state", state)
		}
		p.Family("robustd_trials_completed_total", "counter", "Freshly executed trials recorded since daemon start.")
		p.Int("robustd_trials_completed_total", m.trials.Load())
		p.Family("robustd_store_bytes", "gauge", "On-disk bytes across open campaign stores.")
		p.Int("robustd_store_bytes", m.storeBytes())

		d := m.Dispatcher()
		p.Family("robustd_dispatch_enabled", "gauge", "Whether distributed trial execution is enabled.")
		if d == nil {
			p.Int("robustd_dispatch_enabled", 0)
		} else {
			p.Int("robustd_dispatch_enabled", 1)
			ds := d.Stats()
			p.Family("robustd_workers", "gauge", "Robustworkers by liveness (active = leased or reported within two lease TTLs).")
			p.Int("robustd_workers", int64(ds.WorkersRegistered), "kind", "registered")
			p.Int("robustd_workers", int64(ds.WorkersActive), "kind", "active")
			p.Int("robustd_workers", int64(ds.WorkersExpected), "kind", "expected")
			p.Family("robustd_leases_outstanding", "gauge", "Shard leases currently held by workers.")
			p.Int("robustd_leases_outstanding", int64(ds.LeasesOutstanding))
			p.Family("robustd_oldest_lease_age_seconds", "gauge", "Age of the oldest outstanding shard lease (0 when none).")
			p.Float("robustd_oldest_lease_age_seconds", ds.OldestLeaseAgeSeconds)
			p.Family("robustd_dispatch_trials", "gauge", "Trials of actively dispatched campaigns: durable (done), under an outstanding lease, or pending.")
			p.Int("robustd_dispatch_trials", int64(ds.TrialsPending), "state", "pending")
			p.Int("robustd_dispatch_trials", int64(ds.TrialsLeased), "state", "leased")
			p.Int("robustd_dispatch_trials", int64(ds.TrialsDone), "state", "done")
			p.Family("robustd_dispatch_jobs", "gauge", "Campaigns currently dispatched to the fleet.")
			p.Int("robustd_dispatch_jobs", int64(ds.Jobs))
			p.Family("robustd_dispatch_rejected_results_total", "counter", "Worker results dropped by grid bounds or seed/rate verification.")
			p.Int("robustd_dispatch_rejected_results_total", ds.RejectedResults)
		}

		m.mu.Lock()
		extras := append([]func(io.Writer){}, m.metricsExtras...)
		m.mu.Unlock()
		for _, f := range extras {
			f(w)
		}
	})
}

package campaign

import (
	"fmt"
	"io"
	"net/http"
)

// ManagerMetrics is the manager's observability snapshot.
type ManagerMetrics struct {
	// States counts campaigns by lifecycle state (all known states
	// present, zero-filled, so scrape output is stable).
	States map[string]int
	// TrialsTotal is the number of freshly executed trials recorded since
	// this manager was created (cached/resumed trials don't count).
	TrialsTotal int64
	// StoreBytes is the summed on-disk size of every open campaign store
	// (lazily recovered stores that were never opened don't count — the
	// gauge tracks live write load, not archive size).
	StoreBytes int64
}

// Metrics snapshots campaign counts and the trial counter. It never
// opens lazily recovered stores — state and progress come from the
// in-memory registry.
func (m *Manager) Metrics() ManagerMetrics {
	return ManagerMetrics{
		States:      m.jobs.Counts(),
		TrialsTotal: m.trials.Load(),
		StoreBytes:  m.storeBytes(),
	}
}

// storeBytes sums the on-disk size of every open campaign store, in
// submission order.
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

// writeMetricsExtras appends every registered extra exposition writer.
func (m *Manager) writeMetricsExtras(w io.Writer) {
	m.mu.Lock()
	extras := append([]func(io.Writer){}, m.metricsExtras...)
	m.mu.Unlock()
	for _, f := range extras {
		f(w)
	}
}

// metricsHandler serves GET /metrics in Prometheus text exposition
// format: campaigns by state, monotonic trial counters, store size, and —
// when a dispatcher is attached — worker fleet and lease-table gauges,
// followed by any registered extra families (trial latency histograms,
// tune-search progress).
//
// The handler is deliberately stateless: every exported number is either
// a monotonic counter or an instantaneous gauge, so any number of
// concurrent scrapers see consistent values. Rates are the scraper's job
// (PromQL rate()); an earlier trials-per-second gauge computed against
// the previous scrape's state corrupted under concurrent scrapers and is
// gone.
func metricsHandler(m *Manager) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		mm := m.Metrics()
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		fmt.Fprintf(w, "# HELP robustd_campaigns Campaigns in the registry by lifecycle state.\n")
		fmt.Fprintf(w, "# TYPE robustd_campaigns gauge\n")
		for _, state := range []string{
			StateQueued, StateRunning, StateDone, StateFailed, StateCancelled, StateInterrupted,
		} {
			fmt.Fprintf(w, "robustd_campaigns{state=%q} %d\n", state, mm.States[state])
		}
		fmt.Fprintf(w, "# HELP robustd_trials_completed_total Freshly executed trials recorded since daemon start.\n")
		fmt.Fprintf(w, "# TYPE robustd_trials_completed_total counter\n")
		fmt.Fprintf(w, "robustd_trials_completed_total %d\n", mm.TrialsTotal)
		fmt.Fprintf(w, "# HELP robustd_store_bytes On-disk bytes across open campaign stores.\n")
		fmt.Fprintf(w, "# TYPE robustd_store_bytes gauge\n")
		fmt.Fprintf(w, "robustd_store_bytes %d\n", mm.StoreBytes)

		d := m.Dispatcher()
		fmt.Fprintf(w, "# HELP robustd_dispatch_enabled Whether distributed trial execution is enabled.\n")
		fmt.Fprintf(w, "# TYPE robustd_dispatch_enabled gauge\n")
		if d == nil {
			fmt.Fprintf(w, "robustd_dispatch_enabled 0\n")
		} else {
			fmt.Fprintf(w, "robustd_dispatch_enabled 1\n")
			ds := d.Stats()
			fmt.Fprintf(w, "# HELP robustd_workers Robustworkers by liveness (active = leased or reported within two lease TTLs).\n")
			fmt.Fprintf(w, "# TYPE robustd_workers gauge\n")
			fmt.Fprintf(w, "robustd_workers{kind=\"registered\"} %d\n", ds.WorkersRegistered)
			fmt.Fprintf(w, "robustd_workers{kind=\"active\"} %d\n", ds.WorkersActive)
			fmt.Fprintf(w, "robustd_workers{kind=\"expected\"} %d\n", ds.WorkersExpected)
			fmt.Fprintf(w, "# HELP robustd_leases_outstanding Shard leases currently held by workers.\n")
			fmt.Fprintf(w, "# TYPE robustd_leases_outstanding gauge\n")
			fmt.Fprintf(w, "robustd_leases_outstanding %d\n", ds.LeasesOutstanding)
			fmt.Fprintf(w, "# HELP robustd_oldest_lease_age_seconds Age of the oldest outstanding shard lease (0 when none).\n")
			fmt.Fprintf(w, "# TYPE robustd_oldest_lease_age_seconds gauge\n")
			fmt.Fprintf(w, "robustd_oldest_lease_age_seconds %g\n", ds.OldestLeaseAgeSeconds)
			fmt.Fprintf(w, "# HELP robustd_dispatch_trials Trials of actively dispatched campaigns: durable (done), under an outstanding lease, or pending.\n")
			fmt.Fprintf(w, "# TYPE robustd_dispatch_trials gauge\n")
			fmt.Fprintf(w, "robustd_dispatch_trials{state=\"pending\"} %d\n", ds.TrialsPending)
			fmt.Fprintf(w, "robustd_dispatch_trials{state=\"leased\"} %d\n", ds.TrialsLeased)
			fmt.Fprintf(w, "robustd_dispatch_trials{state=\"done\"} %d\n", ds.TrialsDone)
			fmt.Fprintf(w, "# HELP robustd_dispatch_jobs Campaigns currently dispatched to the fleet.\n")
			fmt.Fprintf(w, "# TYPE robustd_dispatch_jobs gauge\n")
			fmt.Fprintf(w, "robustd_dispatch_jobs %d\n", ds.Jobs)
			fmt.Fprintf(w, "# HELP robustd_dispatch_rejected_results_total Worker results dropped by grid bounds or seed/rate verification.\n")
			fmt.Fprintf(w, "# TYPE robustd_dispatch_rejected_results_total counter\n")
			fmt.Fprintf(w, "robustd_dispatch_rejected_results_total %d\n", ds.RejectedResults)
		}
		m.writeMetricsExtras(w)
	}
}

package campaign

import (
	"context"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"robustify/internal/dispatch"
	"robustify/internal/job"
)

// TestRecoverTerminalLazyStore pins the lazy-recovery satellite: a
// terminal campaign whose meta carries progress is recovered without
// opening its store. The proof is observational — the store file is
// sabotaged after the run, and recovery still lists the campaign with
// accurate state and progress; only a results access (which opens the
// store lazily) hits the damage.
func TestRecoverTerminalLazyStore(t *testing.T) {
	root := t.TempDir()
	m1 := newManager(t, root, 1)
	id, err := m1.Submit(quickSpec(0.05, 7, 3))
	if err != nil {
		t.Fatal(err)
	}
	if err := m1.Wait(id); err != nil {
		t.Fatal(err)
	}
	m1.Close()

	// Replace trials.jsonl with a directory: any store open now fails, so
	// a recovery that still replayed terminal stores would lose the
	// campaign (or fail), while lazy recovery must not notice.
	storePath := filepath.Join(root, id, storeFile)
	if err := os.Remove(storePath); err != nil {
		t.Fatal(err)
	}
	if err := os.MkdirAll(filepath.Join(storePath, "x"), 0o755); err != nil {
		t.Fatal(err)
	}

	m2 := newManager(t, root, 1)
	defer m2.Close()
	st, err := m2.Get(id)
	if err != nil {
		t.Fatalf("terminal campaign not recovered lazily: %v", err)
	}
	if st.State != StateDone || st.Progress.Done != 3 || st.Progress.Total != 3 {
		t.Errorf("lazy recovered = %s %+v, want done 3/3 from meta alone", st.State, st.Progress)
	}
	if _, err := m2.Table(id); err == nil {
		t.Error("results over the sabotaged store succeeded; store was not opened lazily")
	}
}

// TestRecoverTerminalLazyServesResults: the lazy path must be invisible
// when the store is intact — first results access opens it and serves
// the same bytes as before the restart, and per-cell status works too.
func TestRecoverTerminalLazyServesResults(t *testing.T) {
	root := t.TempDir()
	spec := quickSpec(0.2, 3, 4)
	m1 := newManager(t, root, 1)
	id, err := m1.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	if err := m1.Wait(id); err != nil {
		t.Fatal(err)
	}
	table, err := m1.Table(id)
	if err != nil {
		t.Fatal(err)
	}
	var want strings.Builder
	if err := table.Render(&want); err != nil {
		t.Fatal(err)
	}
	m1.Close()

	m2 := newManager(t, root, 1)
	defer m2.Close()
	table, err = m2.Table(id) // opens the store on first access
	if err != nil {
		t.Fatal(err)
	}
	var got strings.Builder
	if err := table.Render(&got); err != nil {
		t.Fatal(err)
	}
	if got.String() != want.String() {
		t.Errorf("lazily opened results differ:\n--- want ---\n%s--- got ---\n%s", want.String(), got.String())
	}
	st, err := m2.Get(id)
	if err != nil {
		t.Fatal(err)
	}
	if len(st.Units) == 0 || len(st.Units[0].Cells) == 0 || st.Units[0].Cells[0].Done != 4 {
		t.Errorf("per-cell status after lazy open = %+v", st.Units)
	}
}

// TestRecoverOldMetaUpgraded: metas written before progress was recorded
// (no done/total) recover eagerly — progress from the store, as always —
// and the meta is upgraded in place so the next boot takes the lazy path.
func TestRecoverOldMetaUpgraded(t *testing.T) {
	spec := quickSpec(0.05, 5, 3)
	root := t.TempDir()
	now := time.Now()
	seedCampaignDir(t, filepath.Join(root, "c0001"), spec, -1, &Meta{
		ID: "c0001", State: StateDone, Created: now, Finished: &now})

	m := newManager(t, root, 1)
	st, err := m.Get("c0001")
	if err != nil || st.State != StateDone || st.Progress.Done != 3 {
		t.Fatalf("old-format recovery = %+v (err=%v), want done 3/3", st, err)
	}
	m.Close()
	meta, ok, err := readMeta(filepath.Join(root, "c0001"))
	if err != nil || !ok || meta.Done != 3 || meta.Total != 3 {
		t.Errorf("meta after recovery = %+v ok=%v err=%v, want done/total 3/3 recorded", meta, ok, err)
	}
}

// wedged is job work whose attempt ignores cancellation until released,
// as a trial stuck in an endless numeric loop would.
type wedged struct{ release chan struct{} }

func (w wedged) Drive(context.Context) error { <-w.release; return nil }
func (wedged) Persist(job.Record) error      { return nil }
func (wedged) Prepare() error                { return nil }
func (wedged) Cancelled()                    {}
func (wedged) Release() error                { return nil }

// TestShutdownTimeout: Shutdown must give up on a wedged campaign after
// the deadline instead of hanging the daemon forever.
func TestShutdownTimeout(t *testing.T) {
	m := newManager(t, t.TempDir(), 2)
	release := make(chan struct{})
	t.Cleanup(func() { close(release) })
	for range 2 { // two, to cover the post-deadline poll loop
		if _, err := m.jobs.Submit("wedged", func(string, string) (job.Work, error) {
			return wedged{release}, nil
		}); err != nil {
			t.Fatal(err)
		}
	}
	for _, j := range m.jobs.Jobs() { // both must hold a slot before the shutdown
		for j.Record().State != StateRunning {
			time.Sleep(time.Millisecond)
		}
	}
	start := time.Now()
	if m.Shutdown(50 * time.Millisecond) {
		t.Error("Shutdown reported clean with wedged campaigns")
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Errorf("Shutdown took %s with a 50ms deadline", elapsed)
	}
	// Idempotent: a later Close must return immediately, not re-wait.
	done := make(chan struct{})
	go func() { m.Close(); close(done) }()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("Close after timed-out Shutdown hung")
	}
}

func TestShutdownCleanReleasesRoot(t *testing.T) {
	root := t.TempDir()
	m := newManager(t, root, 1)
	id, err := m.Submit(quickSpec(0.01, 1, 1))
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Wait(id); err != nil {
		t.Fatal(err)
	}
	if !m.Shutdown(5 * time.Second) {
		t.Fatal("clean shutdown reported timeout")
	}
	m2, err := NewManager(root, 1) // flock released
	if err != nil {
		t.Fatalf("root still held after clean shutdown: %v", err)
	}
	m2.Close()
}

func fetch(t *testing.T, url string) (int, string) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	return resp.StatusCode, string(body)
}

// metricsBase is the campaign families of a fresh manager's /metrics.
const metricsBase = `# HELP robustd_campaigns Campaigns in the registry by lifecycle state.
# TYPE robustd_campaigns gauge
robustd_campaigns{state="queued"} 0
robustd_campaigns{state="running"} 0
robustd_campaigns{state="done"} 0
robustd_campaigns{state="failed"} 0
robustd_campaigns{state="cancelled"} 0
robustd_campaigns{state="interrupted"} 0
# HELP robustd_trials_completed_total Freshly executed trials recorded since daemon start.
# TYPE robustd_trials_completed_total counter
robustd_trials_completed_total 0
# HELP robustd_store_bytes On-disk bytes across open campaign stores.
# TYPE robustd_store_bytes gauge
robustd_store_bytes 0
# HELP robustd_dispatch_enabled Whether distributed trial execution is enabled.
# TYPE robustd_dispatch_enabled gauge
`

// TestMetricsEndpoint pins the full /metrics bytes of a fresh manager
// with and without a dispatcher, then checks the counters after a run.
func TestMetricsEndpoint(t *testing.T) {
	for _, tc := range []struct {
		name string
		disp *dispatch.Coordinator
		want string
	}{
		{"no dispatcher", nil, metricsBase + "robustd_dispatch_enabled 0\n"},
		{"dispatcher", dispatch.New(dispatch.Options{LeaseTTL: time.Minute, WorkersExpected: 2}), metricsBase + `robustd_dispatch_enabled 1
# HELP robustd_workers Robustworkers by liveness (active = leased or reported within two lease TTLs).
# TYPE robustd_workers gauge
robustd_workers{kind="registered"} 0
robustd_workers{kind="active"} 0
robustd_workers{kind="expected"} 2
# HELP robustd_leases_outstanding Shard leases currently held by workers.
# TYPE robustd_leases_outstanding gauge
robustd_leases_outstanding 0
# HELP robustd_oldest_lease_age_seconds Age of the oldest outstanding shard lease (0 when none).
# TYPE robustd_oldest_lease_age_seconds gauge
robustd_oldest_lease_age_seconds 0
# HELP robustd_dispatch_trials Trials of actively dispatched campaigns: durable (done), under an outstanding lease, or pending.
# TYPE robustd_dispatch_trials gauge
robustd_dispatch_trials{state="pending"} 0
robustd_dispatch_trials{state="leased"} 0
robustd_dispatch_trials{state="done"} 0
# HELP robustd_dispatch_jobs Campaigns currently dispatched to the fleet.
# TYPE robustd_dispatch_jobs gauge
robustd_dispatch_jobs 0
# HELP robustd_dispatch_rejected_results_total Worker results dropped by grid bounds or seed/rate verification.
# TYPE robustd_dispatch_rejected_results_total counter
robustd_dispatch_rejected_results_total 0
`},
	} {
		t.Run(tc.name, func(t *testing.T) {
			srv, m := newTestServer(t, 1)
			if tc.disp != nil {
				m.SetDispatcher(tc.disp)
			}
			resp, err := http.Get(srv.URL + "/metrics")
			if err != nil {
				t.Fatal(err)
			}
			body, _ := io.ReadAll(resp.Body)
			resp.Body.Close()
			if ct := resp.Header.Get("Content-Type"); ct != "text/plain; version=0.0.4; charset=utf-8" {
				t.Errorf("Content-Type = %q", ct)
			}
			if string(body) != tc.want {
				t.Errorf("/metrics =\n%s\nwant\n%s", body, tc.want)
			}
		})
	}

	srv, _ := newTestServer(t, 1)
	var resp map[string]string
	doJSON(t, "POST", srv.URL+"/campaigns",
		`{"custom":{"workload":"sort/base","rates":[0.01]},"trials":3,"seed":1}`,
		http.StatusAccepted, &resp)
	waitState(t, srv.URL, resp["id"], StateDone)

	code, body := fetch(t, srv.URL+"/metrics")
	if code != http.StatusOK {
		t.Fatalf("/metrics = %d: %s", code, body)
	}
	for _, line := range []string{
		`robustd_campaigns{state="done"} 1`,
		`robustd_campaigns{state="running"} 0`,
		"robustd_trials_completed_total 3",
		"robustd_store_bytes",
		"robustd_dispatch_enabled 0",
	} {
		if !strings.Contains(body, line) {
			t.Errorf("/metrics missing %q:\n%s", line, body)
		}
	}
	// The old trials-per-second gauge kept mutable scrape state and
	// corrupted under concurrent scrapers; it must stay gone (scrapers
	// compute rates from the monotonic counter instead).
	if strings.Contains(body, "robustd_trials_per_second") {
		t.Errorf("/metrics still exports the stateful trials-per-second gauge:\n%s", body)
	}
}

func TestWorkerRoutesRequireDispatcher(t *testing.T) {
	srv, _ := newTestServer(t, 1)
	for _, path := range []string{"/workers/register", "/workers/lease", "/workers/report"} {
		r, err := http.Post(srv.URL+path, "application/json", strings.NewReader("{}"))
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, r.Body)
		r.Body.Close()
		if r.StatusCode != http.StatusServiceUnavailable {
			t.Errorf("POST %s without dispatcher = %d, want 503", path, r.StatusCode)
		}
	}
	code, _ := fetch(t, srv.URL+"/workers")
	if code != http.StatusServiceUnavailable {
		t.Errorf("GET /workers without dispatcher = %d, want 503", code)
	}
}

func TestWorkerRoutesWithDispatcher(t *testing.T) {
	m := newManager(t, t.TempDir(), 1)
	m.SetDispatcher(dispatch.New(dispatch.Options{LeaseTTL: time.Minute, WorkersExpected: 2}))
	srv := httptest.NewServer(NewServer(m))
	t.Cleanup(func() {
		srv.Close()
		m.Close()
	})

	var reg dispatch.RegisterResponse
	doJSON(t, "POST", srv.URL+"/workers/register", `{"name":"test"}`, http.StatusOK, &reg)
	if reg.Worker == "" || reg.LeaseTTL != time.Minute {
		t.Fatalf("register = %+v", reg)
	}
	// No campaigns: leasing answers 204.
	r, err := http.Post(srv.URL+"/workers/lease", "application/json",
		strings.NewReader(`{"worker":"`+reg.Worker+`"}`))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, r.Body)
	r.Body.Close()
	if r.StatusCode != http.StatusNoContent {
		t.Errorf("lease with no work = %d, want 204", r.StatusCode)
	}
	// Unknown worker ids answer 404 (the re-register signal).
	doJSON(t, "POST", srv.URL+"/workers/lease", `{"worker":"w9999"}`, http.StatusNotFound, nil)
	doJSON(t, "POST", srv.URL+"/workers/report", `{"worker":"w9999"}`, http.StatusNotFound, nil)
	// Malformed bodies are rejected.
	doJSON(t, "POST", srv.URL+"/workers/register", `{nope`, http.StatusBadRequest, nil)

	var workers []dispatch.WorkerStatus
	doJSON(t, "GET", srv.URL+"/workers", "", http.StatusOK, &workers)
	if len(workers) != 1 || workers[0].ID != reg.Worker || !workers[0].Active {
		t.Errorf("/workers = %+v", workers)
	}

	code, body := fetch(t, srv.URL+"/metrics")
	if code != http.StatusOK {
		t.Fatalf("/metrics = %d", code)
	}
	for _, line := range []string{
		"robustd_dispatch_enabled 1",
		`robustd_workers{kind="registered"} 1`,
		`robustd_workers{kind="expected"} 2`,
		"robustd_leases_outstanding 0",
		`robustd_dispatch_trials{state="pending"} 0`,
		`robustd_dispatch_trials{state="leased"} 0`,
		`robustd_dispatch_trials{state="done"} 0`,
	} {
		if !strings.Contains(body, line) {
			t.Errorf("/metrics missing %q:\n%s", line, body)
		}
	}
}

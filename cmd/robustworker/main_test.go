package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"os/exec"
	"regexp"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"robustify/internal/campaign"
	"robustify/internal/dispatch"
	"robustify/internal/obs"
)

// TestMain doubles the test binary as the worker itself: with
// ROBUSTWORKER_TEST_CHILD set it runs the real worker main loop, so the
// kill-a-worker e2e can SIGKILL an actual OS process mid-shard.
func TestMain(m *testing.M) {
	if os.Getenv("ROBUSTWORKER_TEST_CHILD") == "1" {
		if err := run(os.Args[1:]); err != nil {
			os.Stderr.WriteString("robustworker: " + err.Error() + "\n")
			os.Exit(1)
		}
		os.Exit(0)
	}
	os.Exit(m.Run())
}

var registeredRe = regexp.MustCompile(`registered as (w[0-9a-f]+-\d+)`)

// stderrWatch collects a worker child's stderr and announces its
// assigned worker id once registration is logged.
type stderrWatch struct {
	mu    sync.Mutex
	buf   bytes.Buffer
	idc   chan string
	found bool
}

func (s *stderrWatch) Write(p []byte) (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.buf.Write(p)
	if !s.found {
		if m := registeredRe.FindSubmatch(s.buf.Bytes()); m != nil {
			s.found = true
			s.idc <- string(m[1])
		}
	}
	return len(p), nil
}

func (s *stderrWatch) String() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.buf.String()
}

// startWorker boots a robustworker child against the coordinator and
// waits until it has registered.
func startWorker(t *testing.T, coordinator string, extra ...string) *exec.Cmd {
	t.Helper()
	args := append([]string{"-coordinator", coordinator, "-poll", "20ms"}, extra...)
	cmd := exec.Command(os.Args[0], args...)
	cmd.Env = append(os.Environ(), "ROBUSTWORKER_TEST_CHILD=1")
	watch := &stderrWatch{idc: make(chan string, 1)}
	cmd.Stderr = watch
	if err := cmd.Start(); err != nil {
		t.Fatalf("start worker: %v", err)
	}
	t.Cleanup(func() {
		cmd.Process.Kill()
		cmd.Wait()
	})
	select {
	case id := <-watch.idc:
		t.Logf("worker pid %d registered as %s", cmd.Process.Pid, id)
		return cmd
	case <-time.After(30 * time.Second):
		t.Fatalf("worker never registered; stderr:\n%s", watch)
		return nil
	}
}

func renderCampaign(t *testing.T, m *campaign.Manager, id string) (text, csv string) {
	t.Helper()
	table, err := m.Table(id)
	if err != nil {
		t.Fatalf("table %s: %v", id, err)
	}
	var tb, cb strings.Builder
	if err := table.Render(&tb); err != nil {
		t.Fatal(err)
	}
	if err := table.CSV(&cb); err != nil {
		t.Fatal(err)
	}
	return tb.String(), cb.String()
}

func waitCampaign(t *testing.T, m *campaign.Manager, id string) {
	t.Helper()
	done := make(chan error, 1)
	go func() { done <- m.Wait(id) }()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("campaign %s: %v", id, err)
		}
	case <-time.After(120 * time.Second):
		st, _ := m.Get(id)
		t.Fatalf("campaign %s stuck: %+v", id, st)
	}
}

// TestKillWorkerE2E is the acceptance criterion end to end: a figure
// campaign sharded across two real robustworker processes, one of which
// is SIGKILLed mid-shard, must complete via lease reassignment and
// produce a results table byte-identical to the same campaign run fully
// in-process.
func TestKillWorkerE2E(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns child processes and runs ~seconds of trials")
	}
	spec := campaign.Spec{
		Custom: &campaign.CustomSweep{
			Workload: "sort/robust", Rates: []float64{0.05, 0.1, 0.2}, Iters: 3000,
		},
		Trials: 8, Seed: 77,
	}
	const total = 24

	// Coordinator: a real manager + dispatcher behind a real HTTP server,
	// with shards of 2 trials and a short TTL so the killed worker's
	// leases come back quickly.
	m, err := campaign.NewManager(t.TempDir(), 2)
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	m.SetDispatcher(dispatch.New(dispatch.Options{
		LeaseTTL: 2 * time.Second, ShardSize: 2, WorkersExpected: 2,
	}))
	srv := httptest.NewServer(campaign.NewServer(m))
	defer srv.Close()

	victim := startWorker(t, srv.URL, "-name", "victim", "-parallel", "1")
	startWorker(t, srv.URL, "-name", "survivor", "-parallel", "2")

	id, err := m.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}

	// Let the fleet make real progress, then kill the victim the way a
	// crashed machine would: SIGKILL, no shutdown path, mid-shard.
	deadline := time.Now().Add(60 * time.Second)
	for {
		st, err := m.Get(id)
		if err != nil {
			t.Fatal(err)
		}
		if st.Progress.Done >= 4 {
			break
		}
		if st.Progress.Done >= total || terminalState(st.State) {
			t.Fatalf("campaign reached %s %+v before the kill", st.State, st.Progress)
		}
		if time.Now().After(deadline) {
			t.Fatalf("fleet never made progress: %+v", st.Progress)
		}
		time.Sleep(2 * time.Millisecond)
	}
	if err := victim.Process.Kill(); err != nil {
		t.Fatal(err)
	}
	victim.Wait()

	waitCampaign(t, m, id)
	st, err := m.Get(id)
	if err != nil {
		t.Fatal(err)
	}
	if st.State != "done" || st.Progress.Done != total {
		t.Fatalf("after kill+reassignment: %s %+v, want done %d/%d", st.State, st.Progress, total, total)
	}
	gotText, gotCSV := renderCampaign(t, m, id)

	// Reference: the same campaign fully in-process (no dispatcher).
	local, err := campaign.NewManager(t.TempDir(), 2)
	if err != nil {
		t.Fatal(err)
	}
	defer local.Close()
	lid, err := local.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	waitCampaign(t, local, lid)
	wantText, wantCSV := renderCampaign(t, local, lid)

	if gotText != wantText {
		t.Errorf("distributed table differs from in-process run:\n--- want ---\n%s--- got ---\n%s", wantText, gotText)
	}
	if gotCSV != wantCSV {
		t.Errorf("distributed CSV differs from in-process run:\n--- want ---\n%s--- got ---\n%s", wantCSV, gotCSV)
	}
}

func terminalState(s string) bool {
	return s == "done" || s == "failed" || s == "cancelled"
}

func TestRunBadFlag(t *testing.T) {
	if err := run([]string{"-definitely-not-a-flag"}); err == nil {
		t.Error("bad flag accepted")
	}
}

// TestRunShardCountsExecutedShards: a lease whose shard lies outside the
// compiled grid is handed straight back — a done report with no results
// — and does not count in robustworker_shards_total; an in-grid lease
// reports every non-skipped trial and counts once.
func TestRunShardCountsExecutedShards(t *testing.T) {
	var mu sync.Mutex
	var reports []dispatch.ReportRequest
	coord := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		var req dispatch.ReportRequest
		if r.URL.Path != "/workers/report" || json.NewDecoder(r.Body).Decode(&req) != nil {
			http.Error(w, "unexpected request", http.StatusBadRequest)
			return
		}
		mu.Lock()
		reports = append(reports, req)
		mu.Unlock()
		fmt.Fprintln(w, "{}")
	}))
	defer coord.Close()
	spec, err := json.Marshal(campaign.Spec{
		Custom: &campaign.CustomSweep{Workload: "sort/robust", Rates: []float64{0.05, 0.1}, Iters: 50},
		Trials: 2, Seed: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	w := testWorker(coord.URL)
	lease := func(id string, sh dispatch.Shard) *dispatch.LeaseResponse {
		return &dispatch.LeaseResponse{Lease: id, Campaign: "c0001", Spec: spec, Shard: sh, TTL: time.Minute}
	}

	w.runShard(context.Background(), lease("l1", dispatch.Shard{Unit: 0, Start: 3, Count: 2}))
	if n := w.stats.shards.Load(); n != 0 {
		t.Errorf("out-of-grid shard counted: shards_total = %d", n)
	}
	w.runShard(context.Background(), lease("l2", dispatch.Shard{Unit: 0, Count: 4, Skip: []int{1}}))
	if n := w.stats.shards.Load(); n != 1 {
		t.Errorf("shards_total = %d after one executed shard, want 1", n)
	}
	if n := w.stats.trials.Load(); n != 3 {
		t.Errorf("trials_total = %d, want 3", n)
	}
	w.settle(context.Background()) // l2's done report goes in the background

	mu.Lock()
	defer mu.Unlock()
	got, done := map[string][]int{}, map[string]bool{}
	for _, r := range reports {
		for _, res := range r.Results {
			got[r.Lease] = append(got[r.Lease], res.RateIdx*2+res.TrialIdx)
		}
		done[r.Lease] = done[r.Lease] || r.Done
	}
	if idx := got["l1"]; !done["l1"] || len(idx) != 0 {
		t.Errorf("out-of-grid lease: reported %v (done %v), want an empty done report", idx, done["l1"])
	}
	if idx := got["l2"]; !done["l2"] || !slices.Equal(slices.Sorted(slices.Values(idx)), []int{0, 2, 3}) {
		t.Errorf("in-grid lease reported indices %v, want [0 2 3]", idx)
	}
}

// testWorker is a worker for coordinator, as run builds it, that runs
// two trials at once.
func testWorker(coordinator string) *worker {
	return &worker{
		cl:       dispatch.NewClient(coordinator, "test"),
		poll:     time.Millisecond,
		parallel: 2,
		stats:    newWstats(),
		plans:    make(map[string]*campaign.Campaign),
		bad:      make(map[string]string),
	}
}

// reportLog is a fake coordinator's record of the reports it received.
type reportLog struct {
	mu      sync.Mutex
	reports []dispatch.ReportRequest
}

func (l *reportLog) add(r dispatch.ReportRequest) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.reports = append(l.reports, r)
}

// of returns the reports received for lease.
func (l *reportLog) of(lease string) []dispatch.ReportRequest {
	l.mu.Lock()
	defer l.mu.Unlock()
	var out []dispatch.ReportRequest
	for _, r := range l.reports {
		if r.Lease == lease {
			out = append(out, r)
		}
	}
	return out
}

// sortLease returns a lease of a sort/robust campaign of eight trials
// (two rates of four) covering [start, start+count).
func sortLease(t *testing.T, id string, start, count int) *dispatch.LeaseResponse {
	t.Helper()
	spec, err := json.Marshal(campaign.Spec{
		Custom: &campaign.CustomSweep{Workload: "sort/robust", Rates: []float64{0.05, 0.1}, Iters: 50},
		Trials: 4, Seed: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	return &dispatch.LeaseResponse{Lease: id, Campaign: "c0001", Spec: spec,
		Shard: dispatch.Shard{Start: start, Count: count}, TTL: time.Minute}
}

// TestInFlightReportDeliveredOnShutdown: a done report still in flight
// when the worker shuts down is not cancelled with the loop's context; it
// finishes within the detached budget, and the coordinator receives it.
func TestInFlightReportDeliveredOnShutdown(t *testing.T) {
	var log reportLog
	arrived, proceed := make(chan struct{}, 1), make(chan struct{})
	coord := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		select {
		case arrived <- struct{}{}:
		default:
		}
		<-proceed // hold the report until the worker is shutting down
		var req dispatch.ReportRequest
		if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		log.add(req)
		fmt.Fprintln(w, "{}")
	}))
	defer coord.Close()
	w := testWorker(coord.URL)
	ctx, shutdown := context.WithCancel(context.Background())

	w.runShard(ctx, sortLease(t, "l1", 0, 4))
	if w.inflight == nil {
		t.Fatal("runShard returned without a done report in flight")
	}
	<-arrived
	shutdown()
	close(proceed)
	settled := make(chan struct{})
	go func() {
		w.settle(ctx) // as the loop does before it exits
		close(settled)
	}()
	select {
	case <-settled:
	case <-time.After(2 * detachedBudget):
		t.Fatal("the in-flight report outlived the detached budget")
	}

	got := log.of("l1")
	if len(got) != 1 || !got[0].Done || len(got[0].Results) != 4 {
		t.Fatalf("coordinator received %+v, want one done report of 4 results", got)
	}
	if n := w.stats.reports.Load(); n != 1 {
		t.Errorf("reports_total = %d, want 1: the report was cut off with the loop's context", n)
	}
}

// TestInFlightReportRejectionMarksCampaignBad: a Rejected answer to a
// background done report marks the campaign bad once the worker settles
// the report, so the campaign's next lease is handed straight back — an
// empty done report — without running a trial.
func TestInFlightReportRejectionMarksCampaignBad(t *testing.T) {
	var log reportLog
	coord := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		var req dispatch.ReportRequest
		if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		log.add(req)
		if req.Lease == "l1" {
			fmt.Fprintln(w, `{"rejected":4}`)
			return
		}
		fmt.Fprintln(w, "{}")
	}))
	defer coord.Close()
	w := testWorker(coord.URL)
	ctx := context.Background()

	w.runShard(ctx, sortLease(t, "l1", 0, 4))
	p := w.inflight
	if p == nil {
		t.Fatal("runShard returned without a done report in flight")
	}
	<-p.done // the verdict is in; the worker has not applied it yet
	trials := w.stats.trials.Load()
	l2 := sortLease(t, "l2", 4, 4)
	w.runShard(ctx, l2)

	if n := w.stats.trials.Load(); n != trials {
		t.Errorf("the next lease ran %d trials of a rejected campaign", n-trials)
	}
	if !w.isBad(planKey(l2)) {
		t.Error("the rejected campaign is not marked bad")
	}
	if w.inflight != nil {
		t.Error("a report is still in flight after the release")
	}
	if got := log.of("l1"); len(got) != 1 || !got[0].Done || len(got[0].Results) != 4 {
		t.Errorf("l1 reports %+v, want one done report of 4 results", got)
	}
	if got := log.of("l2"); len(got) != 1 || !got[0].Done || len(got[0].Results) != 0 {
		t.Errorf("l2 reports %+v, want one empty done report (a release)", got)
	}
}

// TestMetricsExposition pins the full bytes of the worker's /metrics:
// the three counters, the eight fault classes in order, and the latency
// histogram.
func TestMetricsExposition(t *testing.T) {
	s := newWstats()
	s.trials.Store(12)
	s.shards.Store(3)
	s.reports.Store(2)
	s.faults = obs.FaultRecorder{
		ValueFaults: 1, CompareFaults: 2, Sign: 3, Exponent: 4,
		Mantissa: 5, MultiBit: 6, Clustered: 7, MemFaults: 8,
	}
	s.lat.Observe("sort/base", 3*time.Millisecond)
	rec := httptest.NewRecorder()
	s.metricsHandler()(rec, httptest.NewRequest("GET", "/metrics", nil))
	if ct := rec.Header().Get("Content-Type"); ct != "text/plain; version=0.0.4; charset=utf-8" {
		t.Errorf("Content-Type = %q", ct)
	}
	if got := rec.Body.String(); got != wantMetrics {
		t.Errorf("/metrics =\n%s\nwant\n%s", got, wantMetrics)
	}
}

const wantMetrics = `# HELP robustworker_trials_total Trials executed since worker start.
# TYPE robustworker_trials_total counter
robustworker_trials_total 12
# HELP robustworker_shards_total Shard leases executed since worker start.
# TYPE robustworker_shards_total counter
robustworker_shards_total 3
# HELP robustworker_reports_total Result batches delivered to the coordinator.
# TYPE robustworker_reports_total counter
robustworker_reports_total 2
# HELP robustworker_faults_total Injected faults observed across executed trials, by class.
# TYPE robustworker_faults_total counter
robustworker_faults_total{class="value"} 1
robustworker_faults_total{class="compare"} 2
robustworker_faults_total{class="sign"} 3
robustworker_faults_total{class="exponent"} 4
robustworker_faults_total{class="mantissa"} 5
robustworker_faults_total{class="multi_bit"} 6
robustworker_faults_total{class="clustered"} 7
robustworker_faults_total{class="memory"} 8
# TYPE robustworker_trial_duration_seconds histogram
robustworker_trial_duration_seconds_bucket{workload="sort/base",le="0.0001"} 0
robustworker_trial_duration_seconds_bucket{workload="sort/base",le="0.00025"} 0
robustworker_trial_duration_seconds_bucket{workload="sort/base",le="0.0005"} 0
robustworker_trial_duration_seconds_bucket{workload="sort/base",le="0.001"} 0
robustworker_trial_duration_seconds_bucket{workload="sort/base",le="0.0025"} 0
robustworker_trial_duration_seconds_bucket{workload="sort/base",le="0.005"} 1
robustworker_trial_duration_seconds_bucket{workload="sort/base",le="0.01"} 1
robustworker_trial_duration_seconds_bucket{workload="sort/base",le="0.025"} 1
robustworker_trial_duration_seconds_bucket{workload="sort/base",le="0.05"} 1
robustworker_trial_duration_seconds_bucket{workload="sort/base",le="0.1"} 1
robustworker_trial_duration_seconds_bucket{workload="sort/base",le="0.25"} 1
robustworker_trial_duration_seconds_bucket{workload="sort/base",le="0.5"} 1
robustworker_trial_duration_seconds_bucket{workload="sort/base",le="1"} 1
robustworker_trial_duration_seconds_bucket{workload="sort/base",le="2.5"} 1
robustworker_trial_duration_seconds_bucket{workload="sort/base",le="5"} 1
robustworker_trial_duration_seconds_bucket{workload="sort/base",le="10"} 1
robustworker_trial_duration_seconds_bucket{workload="sort/base",le="+Inf"} 1
robustworker_trial_duration_seconds_sum{workload="sort/base"} 0.003
robustworker_trial_duration_seconds_count{workload="sort/base"} 1
`

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
	args := append([]string{"-coordinator", coordinator, "-poll", "20ms", "-batch", "4"}, extra...)
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
	w := &worker{
		cl:    dispatch.NewClient(coord.URL, "test"),
		poll:  time.Millisecond,
		batch: 32, parallel: 2,
		stats: newWstats(),
		plans: make(map[string]*campaign.Campaign),
		bad:   make(map[string]string),
	}
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

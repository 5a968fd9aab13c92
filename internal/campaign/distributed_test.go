package campaign

import (
	"context"
	"encoding/json"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"robustify/internal/dispatch"
	"robustify/internal/harness"
	"robustify/internal/obs"
)

// execShard runs a lease's shard the way cmd/robustworker does: compile
// the spec and hand the shard to Campaign.RunShard, keeping the results
// of every trial it executes.
func execShard(t *testing.T, lr *dispatch.LeaseResponse) []dispatch.TrialResult {
	t.Helper()
	spec, err := ParseSpec(lr.Spec)
	if err != nil {
		t.Fatalf("worker: parse spec: %v", err)
	}
	camp, err := Compile(spec)
	if err != nil {
		t.Fatalf("worker: compile: %v", err)
	}
	var out []dispatch.TrialResult
	err = camp.RunShard(context.Background(), lr.Shard, 1, harness.Hooks{Sink: func(tr harness.Trial) {
		out = append(out, dispatch.TrialResult{
			Unit: lr.Shard.Unit, RateIdx: tr.RateIdx, TrialIdx: tr.TrialIdx,
			Rate: tr.Rate, Seed: tr.Seed, Value: tr.Value,
		})
	}})
	if err != nil {
		t.Fatalf("worker: run shard: %v", err)
	}
	return out
}

// liveWorker pulls leases over real HTTP until stop closes, executing
// and reporting every shard it gets.
func liveWorker(t *testing.T, base string, stop <-chan struct{}, wg *sync.WaitGroup) {
	defer wg.Done()
	ctx := context.Background()
	cl := dispatch.NewClient(base, "live")
	if err := cl.Register(ctx); err != nil {
		t.Errorf("worker register: %v", err)
		return
	}
	for {
		select {
		case <-stop:
			return
		default:
		}
		lr, err := cl.Lease(ctx)
		if err != nil {
			t.Errorf("worker lease: %v", err)
			return
		}
		if lr == nil {
			time.Sleep(2 * time.Millisecond)
			continue
		}
		if _, err := cl.Report(ctx, lr.Campaign, lr.Lease, execShard(t, lr), true); err != nil {
			t.Errorf("worker report: %v", err)
			return
		}
	}
}

func renderTable(t *testing.T, m *Manager, id string) (text, csv string) {
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

// TestDistributedCampaignByteIdentical is the tentpole acceptance check
// at the package level: a campaign executed by workers over real HTTP —
// including a worker that takes a lease and dies silently, forcing
// expiry and reassignment — produces a results table byte-identical to
// the same campaign run fully in-process. The coordinator's telemetry
// sidecar holds its mirrored lifecycle events and no trial line.
func TestDistributedCampaignByteIdentical(t *testing.T) {
	spec := Spec{
		Custom: &CustomSweep{Workload: "sort/base", Rates: []float64{0.01, 0.15, 0.4}},
		Trials: 6,
		Seed:   11,
	}

	root := t.TempDir()
	m, err := NewManager(root, 2)
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	hub := obs.NewHub()
	defer hub.Close()
	hub.SetMirrorEvents(true)
	m.SetHub(hub)
	m.SetDispatcher(dispatch.New(dispatch.Options{LeaseTTL: 250 * time.Millisecond, ShardSize: 2}))
	ts := httptest.NewServer(NewServer(m))
	defer ts.Close()

	// The dead worker grabs one lease and is never heard from again: its
	// shard must come back after the TTL and be finished by the live
	// worker.
	dead := dispatch.NewClient(ts.URL, "dead")
	if err := dead.Register(context.Background()); err != nil {
		t.Fatal(err)
	}

	id, err := m.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(10 * time.Second)
	for {
		lr, err := dead.Lease(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		if lr != nil {
			break // holds the lease forever
		}
		if time.Now().After(deadline) {
			t.Fatal("dead worker never got a lease")
		}
		time.Sleep(2 * time.Millisecond)
	}

	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go liveWorker(t, ts.URL, stop, &wg)
	if err := m.Wait(id); err != nil {
		t.Fatalf("distributed campaign failed: %v", err)
	}
	close(stop)
	wg.Wait()
	st, err := m.Get(id)
	if err != nil {
		t.Fatal(err)
	}
	if st.State != StateDone || st.Progress.Done != st.Progress.Total {
		t.Fatalf("distributed campaign = %s %+v", st.State, st.Progress)
	}
	gotText, gotCSV := renderTable(t, m, id)

	local, err := NewManager(t.TempDir(), 2)
	if err != nil {
		t.Fatal(err)
	}
	defer local.Close()
	lid, err := local.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	if err := local.Wait(lid); err != nil {
		t.Fatal(err)
	}
	wantText, wantCSV := renderTable(t, local, lid)
	if gotText != wantText {
		t.Errorf("distributed table differs from in-process run:\n--- want ---\n%s--- got ---\n%s", wantText, gotText)
	}
	if gotCSV != wantCSV {
		t.Errorf("distributed CSV differs from in-process run:\n--- want ---\n%s--- got ---\n%s", wantCSV, gotCSV)
	}
	checkDispatchedTelemetry(t, filepath.Join(root, id))
}

// checkDispatchedTelemetry asserts that a dispatched campaign's
// coordinator sidecar holds mirrored lifecycle events and no trial line:
// a fleet result's record is the store's, and its latency and fault
// placement are the worker's own diagnostics.
func checkDispatchedTelemetry(t *testing.T, dir string) {
	t.Helper()
	tele, err := os.ReadFile(filepath.Join(dir, obs.TelemetryFile))
	if err != nil {
		t.Fatal(err)
	}
	events := 0
	for _, line := range strings.Split(strings.TrimSpace(string(tele)), "\n") {
		var env struct {
			Kind string `json:"kind"`
		}
		if err := json.Unmarshal([]byte(line), &env); err != nil {
			t.Fatalf("telemetry line does not parse: %v\n%s", err, line)
		}
		switch env.Kind {
		case "trial":
			t.Errorf("coordinator sidecar holds a trial line: %s", line)
		case "event":
			events++
		}
	}
	if events == 0 {
		t.Errorf("coordinator sidecar holds no mirrored event:\n%s", tele)
	}
}

// TestDispatchedResumeAfterCoordinatorRestart closes the coordinator
// manager mid-campaign (leases and all) and recovers on the same root:
// the lease table is rebuilt from the store, only missing trials are
// re-dispatched, and the finished table is byte-identical to a local
// run.
func TestDispatchedResumeAfterCoordinatorRestart(t *testing.T) {
	root := t.TempDir()
	spec := Spec{
		Custom: &CustomSweep{Workload: "sort/base", Rates: []float64{0.05, 0.25}},
		Trials: 8,
		Seed:   5,
	}

	m1, err := NewManager(root, 2)
	if err != nil {
		t.Fatal(err)
	}
	m1.SetDispatcher(dispatch.New(dispatch.Options{LeaseTTL: time.Minute, ShardSize: 2}))
	ts1 := httptest.NewServer(NewServer(m1))
	id, err := m1.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	// One worker delivers exactly four trials — its whole first lease
	// (ShardSize trials), then the front of its second, rate-sized one —
	// and the daemon dies with that second lease outstanding.
	cl := dispatch.NewClient(ts1.URL, "half")
	if err := cl.Register(context.Background()); err != nil {
		t.Fatal(err)
	}
	for n := 0; n < 4; {
		lr, err := cl.Lease(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		if lr == nil {
			time.Sleep(2 * time.Millisecond)
			continue
		}
		all := execShard(t, lr)
		results := all[:min(len(all), 4-n)]
		if _, err := cl.Report(context.Background(), lr.Campaign, lr.Lease, results, len(results) == len(all)); err != nil {
			t.Fatal(err)
		}
		n += len(results)
	}
	ts1.Close()
	m1.Close() // campaign becomes interrupted, 4 trials durable

	m2, err := NewManager(root, 2)
	if err != nil {
		t.Fatal(err)
	}
	defer m2.Close()
	m2.SetDispatcher(dispatch.New(dispatch.Options{LeaseTTL: time.Minute, ShardSize: 2}))
	ts2 := httptest.NewServer(NewServer(m2))
	defer ts2.Close()
	st, err := m2.Get(id)
	if err != nil {
		t.Fatal(err)
	}
	if st.State != StateInterrupted || st.Progress.Done != 4 {
		t.Fatalf("recovered = %s %+v, want interrupted with 4 done", st.State, st.Progress)
	}
	if err := m2.Resume(id); err != nil {
		t.Fatal(err)
	}
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go liveWorker(t, ts2.URL, stop, &wg)
	if err := m2.Wait(id); err != nil {
		t.Fatal(err)
	}
	close(stop)
	wg.Wait()
	gotText, _ := renderTable(t, m2, id)

	local, err := NewManager(t.TempDir(), 2)
	if err != nil {
		t.Fatal(err)
	}
	defer local.Close()
	lid, err := local.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	if err := local.Wait(lid); err != nil {
		t.Fatal(err)
	}
	wantText, _ := renderTable(t, local, lid)
	if gotText != wantText {
		t.Errorf("resumed distributed table differs:\n--- want ---\n%s--- got ---\n%s", wantText, gotText)
	}
}

package campaign

import (
	"bytes"
	"encoding/json"
	"net/http"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"robustify/internal/fpu/faultmodel"
	"robustify/internal/obs"
)

// runCampaignStore runs one quick campaign, optionally with the full
// observability hub attached (lifecycle events, per-trial telemetry, and
// the fault-placement observer factory), and returns the raw bytes of its
// trial store plus the campaign directory.
func runCampaignStore(t *testing.T, withHub bool) ([]byte, string) {
	t.Helper()
	root := t.TempDir()
	m := newManager(t, root, 1)
	defer m.Close()
	if withHub {
		hub := obs.NewHub()
		t.Cleanup(func() { hub.Close() })
		m.SetHub(hub)
		prev := faultmodel.SetUnitObserver(hub.Observer)
		t.Cleanup(func() { faultmodel.SetUnitObserver(prev) })
	}
	id, err := m.Submit(quickSpec(0.5, 7, 25))
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Wait(id); err != nil {
		t.Fatal(err)
	}
	dir := filepath.Join(root, id)
	b, err := os.ReadFile(filepath.Join(dir, storeFile))
	if err != nil {
		t.Fatal(err)
	}
	return b, dir
}

// recordSet parses a trial store into its records, sorted by trial key
// (unit, rate, trial): the identity TableFromStore, resume, and the fleet
// diff all key on. Concurrent trials append in completion order, so the
// line order of a store is not deterministic; its record set is.
func recordSet(t *testing.T, store []byte) []Record {
	t.Helper()
	var recs []Record
	for _, line := range strings.Split(strings.TrimSpace(string(store)), "\n") {
		var r Record
		if err := json.Unmarshal([]byte(line), &r); err != nil {
			t.Fatalf("store line does not parse: %v\n%s", err, line)
		}
		recs = append(recs, r)
	}
	sort.Slice(recs, func(i, j int) bool {
		a, b := recs[i], recs[j]
		if a.Unit != b.Unit {
			return a.Unit < b.Unit
		}
		if a.RateIdx != b.RateIdx {
			return a.RateIdx < b.RateIdx
		}
		return a.TrialIdx < b.TrialIdx
	})
	return recs
}

// TestTelemetryDoesNotPerturbStore is the determinism acceptance test for
// the observability layer: running the identical campaign with the flight
// recorder fully attached (hub, telemetry sidecar, fault observer) and
// with it absent must record identical trial sets — every record equal
// field for field, whatever order concurrent trials appended them in —
// and byte-identical spec.json files, written by two runs at different
// times. Telemetry is diagnostics beside the artifact stream, never part
// of it.
func TestTelemetryDoesNotPerturbStore(t *testing.T) {
	plain, plainDir := runCampaignStore(t, false)
	observed, dir := runCampaignStore(t, true)
	if a, b := recordSet(t, plain), recordSet(t, observed); !reflect.DeepEqual(a, b) {
		t.Errorf("trial records differ with telemetry attached:\n--- plain ---\n%+v\n--- observed ---\n%+v", a, b)
	}
	var specs [2][]byte
	for i, d := range []string{plainDir, dir} {
		b, err := os.ReadFile(filepath.Join(d, specFile))
		if err != nil {
			t.Fatal(err)
		}
		specs[i] = b
	}
	if !bytes.Equal(specs[0], specs[1]) {
		t.Errorf("spec.json differs between runs:\n%s\n%s", specs[0], specs[1])
	}

	// The sidecar exists, holds one record per trial, and at rate 0.5 the
	// fault-placement summaries are populated.
	b, err := os.ReadFile(filepath.Join(dir, obs.TelemetryFile))
	if err != nil {
		t.Fatalf("telemetry sidecar missing: %v", err)
	}
	var trials, withFaults int
	for _, line := range strings.Split(strings.TrimSpace(string(b)), "\n") {
		var env struct {
			Kind string `json:"kind"`
			Rec  struct {
				Faults *obs.FaultSummary `json:"faults"`
			} `json:"rec"`
		}
		if err := json.Unmarshal([]byte(line), &env); err != nil {
			t.Fatalf("telemetry line does not parse: %v\n%s", err, line)
		}
		if env.Kind != "trial" {
			continue
		}
		trials++
		if env.Rec.Faults != nil && env.Rec.Faults.Total > 0 {
			withFaults++
		}
	}
	if trials != 25 {
		t.Errorf("telemetry has %d trial records, want 25", trials)
	}
	if withFaults == 0 {
		t.Error("no trial carried a fault-placement summary at rate 0.5")
	}
}

// TestMetricsConcurrentScrapes hammers /metrics from several goroutines
// while a campaign is running. The handler must be stateless per scrape:
// under -race this pins the satellite fix that removed the shared
// mutable trials-per-second scrape state.
func TestMetricsConcurrentScrapes(t *testing.T) {
	srv, m := newTestServer(t, 2)
	hub := obs.NewHub()
	t.Cleanup(func() { hub.Close() })
	m.SetHub(hub)
	m.AddMetrics(hub.WriteMetrics)

	var resp map[string]string
	doJSON(t, "POST", srv.URL+"/campaigns",
		`{"custom":{"workload":"sort/robust","rates":[0.01],"iters":20000},"trials":30,"seed":5,"workers":1}`,
		http.StatusAccepted, &resp)

	var bad atomic.Int64
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 40; i++ {
				r, err := http.Get(srv.URL + "/metrics")
				if err != nil {
					bad.Add(1)
					return
				}
				body := make([]byte, 1<<16)
				n, _ := r.Body.Read(body)
				r.Body.Close()
				if r.StatusCode != http.StatusOK || !bytes.Contains(body[:n], []byte("robustd_trials_completed_total")) {
					bad.Add(1)
				}
			}
		}()
	}
	wg.Wait()
	if n := bad.Load(); n != 0 {
		t.Errorf("%d concurrent scrapes failed or returned malformed output", n)
	}
	waitState(t, srv.URL, resp["id"], StateDone)

	// The scrape after completion reports the full trial count — the
	// monotonic counter scrapers derive rates from.
	_, body := fetch(t, srv.URL+"/metrics")
	if !strings.Contains(body, "robustd_trials_completed_total 30") {
		t.Errorf("final scrape missing completed count:\n%s", body)
	}
	if !strings.Contains(body, "robustd_trial_duration_seconds_count") {
		t.Errorf("hub latency histogram missing from /metrics:\n%s", body)
	}
}

// openSidecars counts this process's open descriptors on a telemetry
// sidecar.
func openSidecars(t *testing.T) int {
	t.Helper()
	fds, err := os.ReadDir("/proc/self/fd")
	if err != nil {
		t.Skipf("cannot list open descriptors: %v", err)
	}
	n := 0
	for _, fd := range fds {
		if target, err := os.Readlink(filepath.Join("/proc/self/fd", fd.Name())); err == nil && filepath.Base(target) == obs.TelemetryFile {
			n++
		}
	}
	return n
}

// TestCampaignRunClosesTelemetry: a campaign's run end writes its
// buffered telemetry and closes its sidecar, so a long-lived daemon holds
// no open file per finished campaign, and each sidecar holds one line per
// fresh trial without the hub being closed.
func TestCampaignRunClosesTelemetry(t *testing.T) {
	before := openSidecars(t)
	root := t.TempDir()
	m := newManager(t, root, 1)
	defer m.Close()
	hub := obs.NewHub()
	defer hub.Close()
	m.SetHub(hub)
	for i, trials := range []int{5, 17, 40} {
		id, err := m.Submit(quickSpec(0.05, uint64(i+1), trials))
		if err != nil {
			t.Fatal(err)
		}
		if err := m.Wait(id); err != nil {
			t.Fatal(err)
		}
		if st, err := m.Get(id); err != nil || st.State != StateDone {
			t.Fatalf("campaign %s: %+v, %v; want done", id, st, err)
		}
		if n := openSidecars(t); n != before {
			t.Errorf("after campaign %s: %d telemetry files open, want %d", id, n, before)
		}
		b, err := os.ReadFile(filepath.Join(root, id, obs.TelemetryFile))
		if err != nil {
			t.Fatal(err)
		}
		if n := strings.Count(string(b), `"kind":"trial"`); n != trials {
			t.Errorf("campaign %s: sidecar holds %d trial lines, want %d", id, n, trials)
		}
	}
}

// TestHubEventsKeepLifecycle: an in-process campaign of twice the ring's
// size leaves its lifecycle events in /debug/events; trials emit no ring
// event of their own to evict them with.
func TestHubEventsKeepLifecycle(t *testing.T) {
	m := newManager(t, t.TempDir(), 1)
	defer m.Close()
	hub := obs.NewHub()
	defer hub.Close()
	m.SetHub(hub)
	id, err := m.Submit(quickSpec(0.05, 3, 4096))
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Wait(id); err != nil {
		t.Fatal(err)
	}
	seen := map[string]bool{}
	for _, ev := range hub.Events() {
		if ev.Campaign == id {
			seen[ev.Kind] = true
		}
		if ev.Kind == "trial.finish" {
			t.Fatalf("ring holds a per-trial event: %+v", ev)
		}
	}
	for _, kind := range []string{"campaign.submitted", "campaign.done"} {
		if !seen[kind] {
			t.Errorf("ring lost %s of %s after 4,096 trials; it holds %v", kind, id, seen)
		}
	}
}

package tune

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"robustify/internal/campaign"
	"robustify/internal/dispatch"
	"robustify/internal/fpu/faultmodel"
	"robustify/internal/harness"
	"robustify/internal/obs"
)

// quickSpec is the fast search used across tests: leastsq/cg trials are
// tens of microseconds, and restricting the search to the budget knob
// bounds the run at 12 evaluations.
func quickSpec() Spec {
	return Spec{
		Workload: "leastsq/cg",
		Rates:    []float64{0.02, 0.1},
		Trials:   2,
		Seed:     9,
		Knobs:    []string{"budget"},
		Rounds:   1,
	}
}

// runTune executes one tune run to completion over fresh managers
// rooted at dir, returning the raw trace bytes.
func runTune(t *testing.T, dir string, spec Spec) []byte {
	t.Helper()
	cm, err := campaign.NewManager(dir, 2)
	if err != nil {
		t.Fatal(err)
	}
	defer cm.Close()
	tm, err := NewManager(filepath.Join(dir, "tunes"), cm)
	if err != nil {
		t.Fatal(err)
	}
	defer tm.Close()
	id, err := tm.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	if err := tm.Wait(id); err != nil {
		t.Fatal(err)
	}
	return readTraceBytes(t, dir, id)
}

func readTraceBytes(t *testing.T, dir, id string) []byte {
	t.Helper()
	b, err := os.ReadFile(filepath.Join(dir, "tunes", id, traceFile))
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// TestTuneDeterministicTrace: same spec + seed, two fresh data roots,
// byte-identical tune.json — the acceptance criterion for the search's
// determinism.
func TestTuneDeterministicTrace(t *testing.T) {
	spec := quickSpec()
	a := runTune(t, t.TempDir(), spec)
	b := runTune(t, t.TempDir(), spec)
	if !bytes.Equal(a, b) {
		t.Errorf("traces differ:\n--- a ---\n%s\n--- b ---\n%s", a, b)
	}
	var tr Trace
	if err := json.Unmarshal(a, &tr); err != nil {
		t.Fatal(err)
	}
	if tr.State != StateDone {
		t.Errorf("state = %s, want done", tr.State)
	}
	if len(tr.Final) == 0 || tr.FinalObjective == nil {
		t.Errorf("no final configuration recorded: %+v", tr)
	}
	if len(tr.Evals) == 0 || len(tr.Best) == 0 {
		t.Errorf("trace missing evals/best trajectory")
	}
	for _, e := range tr.Evals {
		if e.Objective == nil {
			t.Errorf("eval %d left incomplete in a done trace", e.N)
		}
		if e.Seed != EvalSeed(spec.Seed, e.N) {
			t.Errorf("eval %d seed %d not derived from the tune seed", e.N, e.Seed)
		}
	}
	// The search may never report a configuration worse than one it
	// already completed: the best trajectory is monotone (minimizing).
	for i := 1; i < len(tr.Best); i++ {
		if tr.Best[i].Objective >= tr.Best[i-1].Objective {
			t.Errorf("best trajectory not improving at step %d: %v", i, tr.Best)
		}
	}
}

// TestTuneResumeByteIdentical interrupts a search mid-flight (graceful
// daemon-style wind-down), restarts fresh managers over the same data
// root, resumes, and requires the final trace byte-identical to an
// uninterrupted run in a separate root.
func TestTuneResumeByteIdentical(t *testing.T) {
	spec := Spec{
		Workload: "lp/apsp", // ~ms per trial: wide window to interrupt
		Rates:    []float64{0.01},
		Trials:   2,
		Seed:     4,
		Knobs:    []string{"mu"},
		Rounds:   1,
	}
	want := runTune(t, t.TempDir(), spec)

	dir := t.TempDir()
	cm, err := campaign.NewManager(dir, 2)
	if err != nil {
		t.Fatal(err)
	}
	tm, err := NewManager(filepath.Join(dir, "tunes"), cm)
	if err != nil {
		t.Fatal(err)
	}
	id, err := tm.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	// Let the search get some evaluations in, then wind down mid-run.
	deadline := time.Now().Add(10 * time.Second)
	for {
		st, err := tm.Get(id)
		if err != nil {
			t.Fatal(err)
		}
		if st.EvalsCompleted >= 2 || st.State == StateDone {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("search never progressed")
		}
		time.Sleep(2 * time.Millisecond)
	}
	tm.Interrupt()
	cm.Close()
	if !tm.Shutdown(30 * time.Second) {
		t.Fatal("tune shutdown timed out")
	}

	// Restart: recover both registries, autoresume, finish.
	cm2, err := campaign.NewManager(dir, 2)
	if err != nil {
		t.Fatal(err)
	}
	defer cm2.Close()
	tm2, err := NewManager(filepath.Join(dir, "tunes"), cm2)
	if err != nil {
		t.Fatal(err)
	}
	defer tm2.Close()
	st, err := tm2.Get(id)
	if err != nil {
		t.Fatal(err)
	}
	if st.State == StateInterrupted {
		if ids := tm2.ResumeInterrupted(); len(ids) != 1 || ids[0] != id {
			t.Fatalf("autoresume resumed %v, want [%s]", ids, id)
		}
	} else if st.State != StateDone {
		t.Fatalf("recovered state = %s", st.State)
	}
	if err := tm2.Wait(id); err != nil {
		t.Fatal(err)
	}
	got := readTraceBytes(t, dir, id)
	if !bytes.Equal(want, got) {
		t.Errorf("resumed trace differs from uninterrupted run:\n--- want ---\n%s\n--- got ---\n%s", want, got)
	}
}

// TestTuneCancelPreemptsRung: Cancel must stop the search where it
// stands — not sit out the rest of the current successive-halving rung —
// and must cancel the evaluation campaigns underneath. With slow trials
// no evaluation can have finished between submission and cancel, so any
// completed evaluation afterwards means the cancel waited out work.
func TestTuneCancelPreemptsRung(t *testing.T) {
	dir := t.TempDir()
	cm, err := campaign.NewManager(dir, 2)
	if err != nil {
		t.Fatal(err)
	}
	defer cm.Close()
	tm, err := NewManager(filepath.Join(dir, "tunes"), cm)
	if err != nil {
		t.Fatal(err)
	}
	defer tm.Close()
	spec := Spec{
		Workload: "lp/apsp",
		Rates:    []float64{0.01},
		Iters:    20000, // ~50ms per trial: nothing completes before the cancel lands
		Trials:   4,
		Seed:     8,
		Knobs:    []string{"mu"},
		Rounds:   1,
	}
	id, err := tm.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(10 * time.Second)
	for {
		st, err := tm.Get(id)
		if err != nil {
			t.Fatal(err)
		}
		if st.EvalsSubmitted >= 1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("search never submitted an evaluation")
		}
		time.Sleep(time.Millisecond)
	}
	if err := tm.Cancel(id); err != nil {
		t.Fatal(err)
	}
	tm.Wait(id)
	st, err := tm.Get(id)
	if err != nil {
		t.Fatal(err)
	}
	if st.State != StateCancelled {
		t.Errorf("state after cancel = %s, want cancelled", st.State)
	}
	if st.EvalsCompleted != 0 {
		t.Errorf("cancel waited out %d evaluations of the rung", st.EvalsCompleted)
	}
	// The evaluation campaigns underneath must be winding down too, not
	// silently running the rung to completion.
	for _, s := range cm.List() {
		if s.State == campaign.StateRunning || s.State == campaign.StateQueued {
			if err := cm.Wait(s.ID); err != nil {
				t.Fatal(err)
			}
			got, err := cm.Get(s.ID)
			if err != nil {
				t.Fatal(err)
			}
			if got.State == campaign.StateDone {
				t.Errorf("evaluation campaign %s ran to completion after tune cancel", s.ID)
			}
		}
	}
}

// execShard runs a lease's shard the way cmd/robustworker does: compile
// the spec and hand the shard to Campaign.RunShard, keeping the results
// of every trial it executes.
func execShard(t *testing.T, lr *dispatch.LeaseResponse) []dispatch.TrialResult {
	t.Helper()
	spec, err := campaign.ParseSpec(lr.Spec)
	if err != nil {
		t.Fatalf("worker: parse spec: %v", err)
	}
	camp, err := campaign.Compile(spec)
	if err != nil {
		t.Fatalf("worker: compile: %v", err)
	}
	var out []dispatch.TrialResult
	err = camp.RunShard(context.Background(), lr.Shard, 1, func(tr harness.Trial) {
		out = append(out, dispatch.TrialResult{
			Unit: lr.Shard.Unit, RateIdx: tr.RateIdx, TrialIdx: tr.TrialIdx,
			Rate: tr.Rate, Seed: tr.Seed, Value: tr.Value,
		})
	})
	if err != nil {
		t.Fatalf("worker: run shard: %v", err)
	}
	return out
}

// TestTuneDistributedMatchesInProcess: the same tune spec driven
// through a dispatch coordinator and one worker over real HTTP must
// produce a trace byte-identical to the in-process run — the tune layer
// inherits distribution for free.
func TestTuneDistributedMatchesInProcess(t *testing.T) {
	spec := quickSpec()
	want := runTune(t, t.TempDir(), spec)

	dir := t.TempDir()
	cm, err := campaign.NewManager(dir, 2)
	if err != nil {
		t.Fatal(err)
	}
	defer cm.Close()
	cm.SetDispatcher(dispatch.New(dispatch.Options{LeaseTTL: time.Minute, ShardSize: 4}))
	ts := httptest.NewServer(campaign.NewServer(cm))
	defer ts.Close()

	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		ctx := context.Background()
		cl := dispatch.NewClient(ts.URL, "tune-worker")
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
				time.Sleep(time.Millisecond)
				continue
			}
			if _, err := cl.Report(ctx, lr.Campaign, lr.Lease, execShard(t, lr), true); err != nil {
				t.Errorf("worker report: %v", err)
				return
			}
		}
	}()
	defer func() { close(stop); wg.Wait() }()

	tm, err := NewManager(filepath.Join(dir, "tunes"), cm)
	if err != nil {
		t.Fatal(err)
	}
	defer tm.Close()
	id, err := tm.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	if err := tm.Wait(id); err != nil {
		t.Fatal(err)
	}
	got := readTraceBytes(t, dir, id)
	if !bytes.Equal(want, got) {
		t.Errorf("distributed trace differs from in-process run:\n--- want ---\n%s\n--- got ---\n%s", want, got)
	}
}

func TestTuneSpecValidation(t *testing.T) {
	good := quickSpec()
	if err := good.Validate(); err != nil {
		t.Errorf("valid spec rejected: %v", err)
	}
	cases := map[string]Spec{
		"unknown workload": {Workload: "nope", Rates: []float64{0.1}},
		"no knobs":         {Workload: "sort/base", Rates: []float64{0.1}},
		"no rates":         {Workload: "leastsq/cg"},
		"bad rate":         {Workload: "leastsq/cg", Rates: []float64{-1}},
		"unknown knob":     {Workload: "leastsq/cg", Rates: []float64{0.1}, Knobs: []string{"nope"}},
		"bad agg":          {Workload: "leastsq/cg", Rates: []float64{0.1}, Agg: "p99"},
	}
	for name, s := range cases {
		if err := s.Validate(); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
	if _, err := ParseSpec([]byte(`{"workload":"leastsq/cg","rates":[0.1],"bogus":1}`)); err == nil {
		t.Error("unknown spec field accepted")
	}
}

// TestTuneServerEndpoints drives the HTTP API end to end: submit, poll
// to done, status fields, raw trace, and list.
func TestTuneServerEndpoints(t *testing.T) {
	dir := t.TempDir()
	cm, err := campaign.NewManager(dir, 2)
	if err != nil {
		t.Fatal(err)
	}
	defer cm.Close()
	tm, err := NewManager(filepath.Join(dir, "tunes"), cm)
	if err != nil {
		t.Fatal(err)
	}
	defer tm.Close()
	ts := httptest.NewServer(NewServer(tm))
	defer ts.Close()

	body, _ := json.Marshal(quickSpec())
	resp, err := http.Post(ts.URL+"/tune", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	var sub struct {
		ID string `json:"id"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&sub); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted || sub.ID == "" {
		t.Fatalf("submit: %d %+v", resp.StatusCode, sub)
	}
	if err := tm.Wait(sub.ID); err != nil {
		t.Fatal(err)
	}

	var st Status
	getJSON(t, ts.URL+"/tune/"+sub.ID, &st)
	if st.State != StateDone || len(st.Evals) == 0 || len(st.Final) == 0 {
		t.Errorf("status = %+v", st)
	}
	if st.EvalsCompleted != st.EvalsSubmitted {
		t.Errorf("done run has %d/%d evals completed", st.EvalsCompleted, st.EvalsSubmitted)
	}
	var tr Trace
	getJSON(t, ts.URL+"/tune/"+sub.ID+"/trace", &tr)
	if tr.ID != sub.ID || tr.State != StateDone {
		t.Errorf("trace = %+v", tr)
	}
	var list []Status
	getJSON(t, ts.URL+"/tune", &list)
	if len(list) != 1 || list[0].ID != sub.ID {
		t.Errorf("list = %+v", list)
	}
	// Unknown id and bad spec are proper HTTP errors.
	if resp, err := http.Get(ts.URL + "/tune/t9999"); err != nil || resp.StatusCode != http.StatusNotFound {
		t.Errorf("unknown id: %v %v", resp.StatusCode, err)
	} else {
		resp.Body.Close()
	}
	if resp, err := http.Post(ts.URL+"/tune", "application/json", strings.NewReader(`{"workload":"nope"}`)); err != nil || resp.StatusCode != http.StatusBadRequest {
		t.Errorf("bad spec: %v %v", resp.StatusCode, err)
	} else {
		resp.Body.Close()
	}
}

func getJSON(t *testing.T, url string, v any) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: %d", url, resp.StatusCode)
	}
	if err := json.NewDecoder(resp.Body).Decode(v); err != nil {
		t.Fatal(err)
	}
}

// TestTuneModelKnobSearch: fault-model parameters are first-class tuning
// knobs. A burst-model search over fm_burst_len must range over the model
// grid, stamp the fault model on every evaluation campaign, and remain
// byte-deterministic; and a knobless workload becomes tunable once a
// parameterized model family supplies knobs.
func TestTuneModelKnobSearch(t *testing.T) {
	spec := Spec{
		Workload:   "leastsq/cg",
		Rates:      []float64{0.05},
		Trials:     2,
		Seed:       6,
		FaultModel: &faultmodel.Spec{Name: faultmodel.Burst},
		Knobs:      []string{"fm_burst_len"},
		Rounds:     1,
	}
	a := runTune(t, t.TempDir(), spec)
	b := runTune(t, t.TempDir(), spec)
	if !bytes.Equal(a, b) {
		t.Error("model-knob search not byte-deterministic")
	}
	var tr Trace
	if err := json.Unmarshal(a, &tr); err != nil {
		t.Fatal(err)
	}
	if tr.State != StateDone {
		t.Fatalf("state = %s, want done", tr.State)
	}
	values := map[float64]bool{}
	for _, e := range tr.Evals {
		v, ok := e.Params["fm_burst_len"]
		if !ok {
			t.Fatalf("eval %d has no fm_burst_len: %v", e.N, e.Params)
		}
		values[v] = true
	}
	if len(values) < 2 {
		t.Errorf("search never varied fm_burst_len: %v", values)
	}
	if _, ok := tr.Final["fm_burst_len"]; !ok {
		t.Errorf("final configuration lost the model knob: %v", tr.Final)
	}

	// Validation: model knobs exist only under their family.
	noModel := spec
	noModel.FaultModel = nil
	if err := noModel.Validate(); err == nil {
		t.Error("fm_burst_len accepted without the burst model selected")
	}

	// A workload with no knobs of its own has a search space once the
	// model contributes parameters — and none without.
	knobless := Spec{
		Workload:   "sort/base",
		Rates:      []float64{0.05},
		Trials:     1,
		Seed:       2,
		FaultModel: &faultmodel.Spec{Name: faultmodel.Burst},
		Rounds:     1,
	}
	if err := knobless.Validate(); err != nil {
		t.Errorf("knobless workload with model knobs rejected: %v", err)
	}
	knobless.FaultModel = nil
	if err := knobless.Validate(); err == nil {
		t.Error("knobless workload with no model knobs accepted")
	}
}

// TestMetricsExposition pins the full bytes of robustd's /metrics as the
// daemon composes it: the campaign families, then the hub's trial latency
// histograms for two workloads, then the tune families.
func TestMetricsExposition(t *testing.T) {
	dir := t.TempDir()
	cm, err := campaign.NewManager(dir, 1)
	if err != nil {
		t.Fatal(err)
	}
	defer cm.Close()
	tm, err := NewManager(filepath.Join(dir, "tunes"), cm)
	if err != nil {
		t.Fatal(err)
	}
	defer tm.Close()
	hub := obs.NewHub()
	defer hub.Close()
	cm.SetHub(hub)
	cm.AddMetrics(hub.WriteMetrics)
	cm.AddMetrics(tm.WriteMetrics)
	hub.ObserveTrial("sort/base", 250*time.Microsecond)
	hub.ObserveTrial("sort/base", 7*time.Millisecond)
	hub.ObserveTrial("leastsq/cg", 1500*time.Microsecond)
	srv := httptest.NewServer(campaign.NewServer(cm))
	defer srv.Close()

	resp, err := http.Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if string(body) != wantMetrics {
		t.Errorf("/metrics =\n%s\nwant\n%s", body, wantMetrics)
	}
}

const wantMetrics = `# HELP robustd_campaigns Campaigns in the registry by lifecycle state.
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
robustd_dispatch_enabled 0
# TYPE robustd_trial_duration_seconds histogram
robustd_trial_duration_seconds_bucket{workload="leastsq/cg",le="0.0001"} 0
robustd_trial_duration_seconds_bucket{workload="leastsq/cg",le="0.00025"} 0
robustd_trial_duration_seconds_bucket{workload="leastsq/cg",le="0.0005"} 0
robustd_trial_duration_seconds_bucket{workload="leastsq/cg",le="0.001"} 0
robustd_trial_duration_seconds_bucket{workload="leastsq/cg",le="0.0025"} 1
robustd_trial_duration_seconds_bucket{workload="leastsq/cg",le="0.005"} 1
robustd_trial_duration_seconds_bucket{workload="leastsq/cg",le="0.01"} 1
robustd_trial_duration_seconds_bucket{workload="leastsq/cg",le="0.025"} 1
robustd_trial_duration_seconds_bucket{workload="leastsq/cg",le="0.05"} 1
robustd_trial_duration_seconds_bucket{workload="leastsq/cg",le="0.1"} 1
robustd_trial_duration_seconds_bucket{workload="leastsq/cg",le="0.25"} 1
robustd_trial_duration_seconds_bucket{workload="leastsq/cg",le="0.5"} 1
robustd_trial_duration_seconds_bucket{workload="leastsq/cg",le="1"} 1
robustd_trial_duration_seconds_bucket{workload="leastsq/cg",le="2.5"} 1
robustd_trial_duration_seconds_bucket{workload="leastsq/cg",le="5"} 1
robustd_trial_duration_seconds_bucket{workload="leastsq/cg",le="10"} 1
robustd_trial_duration_seconds_bucket{workload="leastsq/cg",le="+Inf"} 1
robustd_trial_duration_seconds_sum{workload="leastsq/cg"} 0.0015
robustd_trial_duration_seconds_count{workload="leastsq/cg"} 1
robustd_trial_duration_seconds_bucket{workload="sort/base",le="0.0001"} 0
robustd_trial_duration_seconds_bucket{workload="sort/base",le="0.00025"} 1
robustd_trial_duration_seconds_bucket{workload="sort/base",le="0.0005"} 1
robustd_trial_duration_seconds_bucket{workload="sort/base",le="0.001"} 1
robustd_trial_duration_seconds_bucket{workload="sort/base",le="0.0025"} 1
robustd_trial_duration_seconds_bucket{workload="sort/base",le="0.005"} 1
robustd_trial_duration_seconds_bucket{workload="sort/base",le="0.01"} 2
robustd_trial_duration_seconds_bucket{workload="sort/base",le="0.025"} 2
robustd_trial_duration_seconds_bucket{workload="sort/base",le="0.05"} 2
robustd_trial_duration_seconds_bucket{workload="sort/base",le="0.1"} 2
robustd_trial_duration_seconds_bucket{workload="sort/base",le="0.25"} 2
robustd_trial_duration_seconds_bucket{workload="sort/base",le="0.5"} 2
robustd_trial_duration_seconds_bucket{workload="sort/base",le="1"} 2
robustd_trial_duration_seconds_bucket{workload="sort/base",le="2.5"} 2
robustd_trial_duration_seconds_bucket{workload="sort/base",le="5"} 2
robustd_trial_duration_seconds_bucket{workload="sort/base",le="10"} 2
robustd_trial_duration_seconds_bucket{workload="sort/base",le="+Inf"} 2
robustd_trial_duration_seconds_sum{workload="sort/base"} 0.00725
robustd_trial_duration_seconds_count{workload="sort/base"} 2
# HELP robustd_tune_runs Tune runs in the registry by lifecycle state.
# TYPE robustd_tune_runs gauge
robustd_tune_runs{state="running"} 0
robustd_tune_runs{state="done"} 0
robustd_tune_runs{state="failed"} 0
robustd_tune_runs{state="interrupted"} 0
robustd_tune_runs{state="cancelled"} 0
# HELP robustd_tune_evals Candidate evaluations across all tune runs.
# TYPE robustd_tune_evals gauge
robustd_tune_evals{kind="submitted"} 0
robustd_tune_evals{kind="completed"} 0
`

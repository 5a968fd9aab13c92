package job_test

import (
	"encoding/json"
	"os"
	"path/filepath"
	"testing"

	"robustify/internal/campaign"
	"robustify/internal/job"
	"robustify/internal/tune"
)

// FuzzRecover feeds arbitrary bytes to recovery as a campaign's
// meta.json (beside a valid spec and store) and as a tune run's
// tune.json, then boots both managers over the data root:
//
//   - NewManager never errors or panics on a damaged record;
//   - every recovered job's state is one of the six job states;
//   - a recorded state that is not terminal — running, queued, none, or
//     one this build does not know — recovers as interrupted, and a
//     terminal one is kept.
func FuzzRecover(f *testing.F) {
	const validSpec = `{"workload":"leastsq/cg","rates":[0.1],"trials":1,"knobs":["budget"]}`
	for _, seed := range [][2]string{
		{`{"id":"c0001","state":"running","created":"2026-01-02T03:04:05Z"}`, `{"id":"t0001","state":"running","spec":` + validSpec + `,"evals":[]}`},
		{`{"id":"c0001","state":"done","done":2,"total":2}`, `{"id":"t0001","state":"done","spec":` + validSpec + `,"evals":[]}`},
		{`{"id":"c0001","state":"failed","error":"boom","total":2}`, `{"id":"t0001","state":"failed","error":"boom","spec":` + validSpec + `}`},
		{`{"id":"c0001","state":"paused"}`, `{"id":"t0001","state":"queued","spec":` + validSpec + `}`},
		{`{"id":"c0001","state":"runn`, `{"id":"t0001","state":"runn`},
		{`null`, `{"state":"cancelled","spec":` + validSpec + `,"evals":[null]}`},
		{"\x00garbage", "not json at all"},
		{"", ""},
	} {
		f.Add([]byte(seed[0]), []byte(seed[1]))
	}
	spec := campaign.Spec{
		Custom: &campaign.CustomSweep{Workload: "sort/base", Rates: []float64{0.1}},
		Trials: 2, Seed: 1,
	}
	f.Fuzz(func(t *testing.T, meta, trace []byte) {
		root := t.TempDir()
		cdir, tdir := filepath.Join(root, "c0001"), filepath.Join(root, "tunes", "t0001")
		st, err := campaign.Open(cdir)
		if err != nil {
			t.Fatal(err)
		}
		if err := st.SaveSpec(spec); err != nil {
			t.Fatal(err)
		}
		if err := st.Close(); err != nil {
			t.Fatal(err)
		}
		if err := os.MkdirAll(tdir, 0o755); err != nil {
			t.Fatal(err)
		}
		for path, b := range map[string][]byte{
			filepath.Join(cdir, "meta.json"): meta, filepath.Join(tdir, "tune.json"): trace,
		} {
			if err := os.WriteFile(path, b, 0o644); err != nil {
				t.Fatal(err)
			}
		}

		cm, err := campaign.NewManager(root, 1)
		if err != nil {
			t.Fatalf("campaign.NewManager: %v", err)
		}
		defer cm.Close()
		tm, err := tune.NewManager(filepath.Join(root, "tunes"), cm)
		if err != nil {
			t.Fatalf("tune.NewManager: %v", err)
		}
		defer tm.Close()

		var m campaign.Meta
		if json.Unmarshal(meta, &m) != nil {
			m.State = "" // unreadable: classified from the (incomplete) store
		}
		campaigns := cm.List()
		if len(campaigns) != 1 {
			t.Fatalf("recovered %d campaigns, want 1", len(campaigns))
		}
		checkState(t, "campaign", campaigns[0].State, m.State)

		var tr tune.Trace
		if json.Unmarshal(trace, &tr) != nil {
			return // no readable trace: not a run
		}
		for _, s := range tm.List() {
			checkState(t, "tune run", s.State, tr.State)
		}
	})
}

func checkState(t *testing.T, what, got, recorded string) {
	t.Helper()
	want := job.StateInterrupted
	if job.Terminal(recorded) {
		want = recorded
	}
	switch got {
	case job.StateQueued, job.StateRunning, job.StateDone, job.StateFailed, job.StateCancelled, job.StateInterrupted:
	default:
		t.Fatalf("%s recovered in unknown state %q", what, got)
	}
	if got != want {
		t.Errorf("%s recorded %q recovered as %q, want %q", what, recorded, got, want)
	}
}

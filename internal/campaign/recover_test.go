package campaign

import (
	"bytes"
	"context"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"robustify/internal/job"
)

// seedCampaignDir fabricates a campaign directory as a dead daemon would
// have left it: spec.json, the first keep lines of a completed run's
// trials.jsonl (keep < 0 keeps all of them), and — when meta is non-nil —
// a meta.json stamped with the given lifecycle record.
func seedCampaignDir(t *testing.T, dir string, spec Spec, keep int, meta *Meta) {
	t.Helper()
	camp, err := Compile(spec)
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	st, err := Open(dir)
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	if err := st.SaveSpec(spec); err != nil {
		t.Fatalf("save spec: %v", err)
	}
	if err := NewExecution(camp, st).Run(context.Background()); err != nil {
		t.Fatalf("run: %v", err)
	}
	if err := st.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
	if keep >= 0 {
		path := filepath.Join(dir, storeFile)
		b, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		lines := strings.SplitAfter(string(b), "\n")
		if keep > len(lines) {
			t.Fatalf("keep %d > %d store lines", keep, len(lines))
		}
		if err := os.WriteFile(path, []byte(strings.Join(lines[:keep], "")), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	if meta != nil {
		if err := writeMeta(dir, *meta); err != nil {
			t.Fatalf("write meta: %v", err)
		}
	}
}

// TestRecoverInterruptedAndResume is the tentpole path: a campaign whose
// meta still says "running" (the daemon was killed mid-run) is recovered
// as interrupted with accurate progress, keeps its timestamps, reclassifies
// its on-disk meta, does not block id allocation, and resumes to a table
// byte-identical to an uninterrupted run.
func TestRecoverInterruptedAndResume(t *testing.T) {
	spec := Spec{
		Custom: &CustomSweep{Workload: "sort/base", Rates: []float64{0.01, 0.2, 0.5}},
		Trials: 3, Seed: 17,
	}
	wantText, wantCSV := runAll(t, spec)

	root := t.TempDir()
	dir := filepath.Join(root, "c0007")
	started := time.Now().Add(-time.Minute).Truncate(time.Second)
	seedCampaignDir(t, dir, spec, 4, &Meta{
		ID: "c0007", Name: spec.Title(), State: StateRunning,
		Created: started.Add(-time.Second), Started: &started,
	})

	m := newManager(t, root, 2)
	defer m.Close()

	st, err := m.Get("c0007")
	if err != nil {
		t.Fatalf("recovered campaign not registered: %v", err)
	}
	if st.State != StateInterrupted {
		t.Errorf("recovered state = %s, want %s", st.State, StateInterrupted)
	}
	if st.Progress.Done != 4 || st.Progress.Total != 9 {
		t.Errorf("recovered progress = %+v, want 4/9", st.Progress)
	}
	if st.Started == nil || !st.Started.Equal(started) {
		t.Errorf("recovered started = %v, want %v", st.Started, started)
	}
	meta, ok, err := readMeta(dir)
	if err != nil || !ok || meta.State != StateInterrupted {
		t.Errorf("on-disk meta after recovery = %+v ok=%v err=%v, want state %s",
			meta, ok, err, StateInterrupted)
	}

	// Mid-run results of a recovered campaign are servable.
	table, err := m.Table("c0007")
	if err != nil {
		t.Fatalf("table: %v", err)
	}
	if len(table.Series) == 0 {
		t.Error("recovered table has no series")
	}

	// Id allocation continues after the highest recovered id.
	id, err := m.Submit(quickSpec(0.01, 1, 1))
	if err != nil {
		t.Fatalf("submit: %v", err)
	}
	if id != "c0008" {
		t.Errorf("submit after recovery allocated %s, want c0008", id)
	}
	if err := m.Wait(id); err != nil {
		t.Fatal(err)
	}

	// Resume executes only the missing five trials; the final table is
	// byte-identical to the uninterrupted run.
	if err := m.Resume("c0007"); err != nil {
		t.Fatalf("resume recovered campaign: %v", err)
	}
	if err := m.Wait("c0007"); err != nil {
		t.Fatalf("resumed run: %v", err)
	}
	st, err = m.Get("c0007")
	if err != nil {
		t.Fatal(err)
	}
	if st.State != StateDone || st.Progress.Done != 9 {
		t.Errorf("after resume: state=%s progress=%+v, want done 9/9", st.State, st.Progress)
	}
	table, err = m.Table("c0007")
	if err != nil {
		t.Fatal(err)
	}
	var text, csv bytes.Buffer
	if err := table.Render(&text); err != nil {
		t.Fatal(err)
	}
	if err := table.CSV(&csv); err != nil {
		t.Fatal(err)
	}
	if text.String() != wantText {
		t.Errorf("resumed table differs from uninterrupted run:\n--- want ---\n%s--- got ---\n%s",
			wantText, text.String())
	}
	if csv.String() != wantCSV {
		t.Errorf("resumed CSV differs from uninterrupted run")
	}
	meta, ok, err = readMeta(dir)
	if err != nil || !ok || meta.State != StateDone || meta.Finished == nil {
		t.Errorf("final on-disk meta = %+v ok=%v err=%v, want done with finish time", meta, ok, err)
	}
}

// TestRecoverOutOfGridLinesNotDone: a store line outside the grid does
// not stand in for a missing trial. With three of four trials durable
// plus one out-of-grid line and no meta, the campaign recovers as
// interrupted, not done, with progress 3/4; it resumes to 4/4 (meta.json
// done included) and to the uninterrupted table.
func TestRecoverOutOfGridLinesNotDone(t *testing.T) {
	spec := Spec{
		Custom: &CustomSweep{Workload: "sort/base", Rates: []float64{0.2}},
		Trials: 4, Seed: 23,
	}
	wantText, wantCSV := runAll(t, spec)
	root := t.TempDir()
	dir := filepath.Join(root, "c0001")
	seedCampaignDir(t, dir, spec, 3, nil)
	f, err := os.OpenFile(filepath.Join(dir, storeFile), os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteString(`{"u":0,"r":0,"t":9,"rate":0.2,"seed":1,"v":1}` + "\n"); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}

	m := newManager(t, root, 2)
	defer m.Close()
	st, err := m.Get("c0001")
	if err != nil {
		t.Fatal(err)
	}
	if st.State != StateInterrupted {
		t.Fatalf("recovered state = %s, want %s", st.State, StateInterrupted)
	}
	if want := (Progress{Done: 3, Total: 4}); st.Progress != want {
		t.Errorf("interrupted progress = %+v, want %+v", st.Progress, want)
	}
	if err := m.Resume("c0001"); err != nil {
		t.Fatal(err)
	}
	if err := m.Wait("c0001"); err != nil {
		t.Fatal(err)
	}
	if st, err = m.Get("c0001"); err != nil {
		t.Fatal(err)
	}
	if want := (Progress{Done: 4, Total: 4}); st.Progress != want {
		t.Errorf("resumed progress = %+v, want %+v", st.Progress, want)
	}
	if meta, ok, err := readMeta(dir); err != nil || !ok || meta.Done != 4 {
		t.Errorf("meta.json after resume: done=%d ok=%v err=%v, want done=4", meta.Done, ok, err)
	}
	table, err := m.Table("c0001")
	if err != nil {
		t.Fatal(err)
	}
	var text, csv bytes.Buffer
	if err := table.Render(&text); err != nil {
		t.Fatal(err)
	}
	if err := table.CSV(&csv); err != nil {
		t.Fatal(err)
	}
	if text.String() != wantText || csv.String() != wantCSV {
		t.Errorf("resumed table differs from uninterrupted run:\n--- want ---\n%s--- got ---\n%s", wantText, text.String())
	}
}

// TestRecoverClassification covers every recovered state: terminal states
// are kept (with their error), ownerless queued/running become
// interrupted, pre-registry directories (no meta.json) classify from
// store contents, and non-campaign directories are ignored.
func TestRecoverClassification(t *testing.T) {
	spec := quickSpec(0.05, 5, 3)
	root := t.TempDir()
	now := time.Now()
	seedCampaignDir(t, filepath.Join(root, "c0001"), spec, -1, &Meta{
		ID: "c0001", State: StateDone, Created: now, Finished: &now})
	seedCampaignDir(t, filepath.Join(root, "c0002"), spec, 1, &Meta{
		ID: "c0002", State: StateFailed, Error: "synthetic failure", Created: now})
	seedCampaignDir(t, filepath.Join(root, "c0003"), spec, 1, &Meta{
		ID: "c0003", State: StateCancelled, Created: now})
	seedCampaignDir(t, filepath.Join(root, "c0004"), spec, 1, &Meta{
		ID: "c0004", State: StateQueued, Created: now})
	seedCampaignDir(t, filepath.Join(root, "c0005"), spec, -1, nil) // pre-registry, complete
	seedCampaignDir(t, filepath.Join(root, "c0006"), spec, 1, nil)  // pre-registry, partial
	// Damaged meta with intact spec+trials must degrade to store-based
	// classification, not orphan the campaign.
	seedCampaignDir(t, filepath.Join(root, "c0007"), spec, 1, nil)
	if err := os.WriteFile(filepath.Join(root, "c0007", metaFile), []byte("{torn"), 0o644); err != nil {
		t.Fatal(err)
	}
	// Killed after the last trial's append but before the terminal meta
	// write: the store is complete, so the campaign is done, not
	// interrupted.
	seedCampaignDir(t, filepath.Join(root, "c0008"), spec, -1, &Meta{
		ID: "c0008", State: StateRunning, Created: now})
	if err := os.MkdirAll(filepath.Join(root, "notes"), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(root, "stray.txt"), []byte("x"), 0o644); err != nil {
		t.Fatal(err)
	}

	m := newManager(t, root, 1)
	defer m.Close()

	want := map[string]string{
		"c0001": StateDone,
		"c0002": StateFailed,
		"c0003": StateCancelled,
		"c0004": StateInterrupted,
		"c0005": StateDone,
		"c0006": StateInterrupted,
		"c0007": StateInterrupted,
		"c0008": StateDone,
	}
	list := m.List()
	if len(list) != len(want) {
		t.Fatalf("recovered %d campaigns, want %d: %+v", len(list), len(want), list)
	}
	for i, s := range list {
		if wantState := want[s.ID]; s.State != wantState {
			t.Errorf("%s recovered as %s, want %s", s.ID, s.State, wantState)
		}
		if i > 0 && list[i-1].ID >= s.ID {
			t.Errorf("recovered list out of id order: %s before %s", list[i-1].ID, s.ID)
		}
	}
	if st, err := m.Get("c0002"); err != nil || st.Error != "synthetic failure" {
		t.Errorf("failed campaign error = %q (err=%v), want preserved", st.Error, err)
	}

	// Completed campaigns don't resume; interrupted ones do.
	if err := m.Resume("c0001"); err == nil {
		t.Error("resume of a recovered done campaign accepted")
	}
	if err := m.Resume("c0004"); err != nil {
		t.Errorf("resume of interrupted campaign: %v", err)
	}
	if err := m.Wait("c0004"); err != nil {
		t.Errorf("resumed interrupted campaign: %v", err)
	}
}

// TestSpecFileRejectsUnknownFields: a spec.json holding a field this
// build does not know is refused by both of its readers, Store.LoadSpec
// (robustbench -resume) and the manager's recovery, rather than resumed
// with the field dropped. The same spec without the field is accepted by
// both.
func TestSpecFileRejectsUnknownFields(t *testing.T) {
	root := t.TempDir()
	spec := quickSpec(0.05, 5, 3)
	for _, id := range []string{"c0001", "c0002"} {
		seedCampaignDir(t, filepath.Join(root, id), spec, -1, nil)
	}
	path := filepath.Join(root, "c0002", specFile)
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	b = bytes.Replace(b, []byte("{"), []byte(`{"fault_modle":{"name":"burst"},`), 1)
	if err := os.WriteFile(path, b, 0o644); err != nil {
		t.Fatal(err)
	}
	for id, wantOK := range map[string]bool{"c0001": true, "c0002": false} {
		st, err := Open(filepath.Join(root, id))
		if err != nil {
			t.Fatal(err)
		}
		_, ok, err := st.LoadSpec()
		if ok != wantOK || (err == nil) != wantOK {
			t.Errorf("%s: LoadSpec = ok %v, err %v; want ok %v", id, ok, err, wantOK)
		}
		if err := st.Close(); err != nil {
			t.Fatal(err)
		}
	}
	m := newManager(t, root, 1)
	defer m.Close()
	if _, err := m.Get("c0001"); err != nil {
		t.Errorf("recovery refused the spec without the unknown field: %v", err)
	}
	if st, err := m.Get("c0002"); err == nil {
		t.Errorf("recovery accepted a spec.json with an unknown field: %+v", st)
	}
}

// TestCancelInterrupted: cancelling a recovered interrupted campaign —
// which no goroutine owns — must actually flip it to cancelled (and
// persist that), so -autoresume honors the operator's decision instead
// of resurrecting the campaign on the next boot.
func TestCancelInterrupted(t *testing.T) {
	spec := quickSpec(0.05, 5, 3)
	root := t.TempDir()
	now := time.Now()
	seedCampaignDir(t, filepath.Join(root, "c0001"), spec, 1, &Meta{
		ID: "c0001", State: StateRunning, Created: now})

	m := newManager(t, root, 1)
	defer m.Close()
	if err := m.Cancel("c0001"); err != nil {
		t.Fatalf("cancel interrupted: %v", err)
	}
	if st, _ := m.Get("c0001"); st.State != StateCancelled {
		t.Errorf("state after cancel = %s, want cancelled", st.State)
	}
	meta, ok, err := readMeta(filepath.Join(root, "c0001"))
	if err != nil || !ok || meta.State != StateCancelled {
		t.Errorf("on-disk meta after cancel = %+v ok=%v err=%v, want cancelled", meta, ok, err)
	}
	if ids := m.ResumeInterrupted(); len(ids) != 0 {
		t.Errorf("autoresume after cancel = %v, want none", ids)
	}
	// The operator can still resume it explicitly.
	if err := m.Resume("c0001"); err != nil {
		t.Fatalf("explicit resume after cancel: %v", err)
	}
	if err := m.Wait("c0001"); err != nil {
		t.Fatal(err)
	}
	if st, _ := m.Get("c0001"); st.State != StateDone {
		t.Errorf("after explicit resume: %s, want done", st.State)
	}
}

// TestCloseLeavesRunningInterrupted: a graceful shutdown (Manager.Close,
// the SIGTERM path) is a daemon wind-down, not an operator cancel — the
// in-flight campaign must persist as interrupted so the next boot (and
// -autoresume) finishes it, exactly as after a crash.
func TestCloseLeavesRunningInterrupted(t *testing.T) {
	root := t.TempDir()
	m1 := newManager(t, root, 1)
	spec := Spec{
		Custom: &CustomSweep{Workload: "sort/robust", Rates: []float64{0.05, 0.1, 0.2}, Iters: 2000},
		Trials: 6, Seed: 13, Workers: 1,
	}
	id, err := m1.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(60 * time.Second)
	for {
		st, err := m1.Get(id)
		if err != nil {
			t.Fatal(err)
		}
		if st.Progress.Done > 0 || job.Terminal(st.State) {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("campaign never made progress")
		}
		time.Sleep(time.Millisecond)
	}
	m1.Close()

	meta, ok, err := readMeta(filepath.Join(root, id))
	if err != nil || !ok {
		t.Fatalf("meta after close: ok=%v err=%v", ok, err)
	}
	if meta.State == StateDone {
		t.Skipf("campaign finished before close; nothing was interrupted")
	}
	if meta.State != StateInterrupted {
		t.Fatalf("meta state after graceful close = %s, want %s", meta.State, StateInterrupted)
	}

	m2 := newManager(t, root, 1)
	defer m2.Close()
	if ids := m2.ResumeInterrupted(); len(ids) != 1 || ids[0] != id {
		t.Fatalf("ResumeInterrupted after graceful shutdown = %v, want [%s]", ids, id)
	}
	if err := m2.Wait(id); err != nil {
		t.Fatal(err)
	}
	if st, _ := m2.Get(id); st.State != StateDone || st.Progress.Done != st.Progress.Total {
		t.Errorf("after resume: %s %+v, want done and complete", st.State, st.Progress)
	}
}

// TestRecoverAfterRealManagerRestart exercises the production write path
// end to end: states written by a live manager's own lifecycle
// transitions are what a second manager recovers.
func TestRecoverAfterRealManagerRestart(t *testing.T) {
	root := t.TempDir()
	m1 := newManager(t, root, 1)
	id, err := m1.Submit(quickSpec(0.1, 3, 2))
	if err != nil {
		t.Fatal(err)
	}
	if err := m1.Wait(id); err != nil {
		t.Fatal(err)
	}
	m1.Close()

	m2 := newManager(t, root, 1)
	defer m2.Close()
	st, err := m2.Get(id)
	if err != nil {
		t.Fatalf("campaign lost across restart: %v", err)
	}
	if st.State != StateDone || st.Finished == nil {
		t.Errorf("restarted state = %s finished=%v, want done with finish time", st.State, st.Finished)
	}
	if st.Progress.Done != st.Progress.Total || st.Progress.Total == 0 {
		t.Errorf("restarted progress = %+v", st.Progress)
	}
	if _, err := m2.Table(id); err != nil {
		t.Errorf("restarted results: %v", err)
	}
}

// TestResumeInterrupted pins the -autoresume primitive: exactly the
// interrupted campaigns are rescheduled.
func TestResumeInterrupted(t *testing.T) {
	spec := quickSpec(0.05, 5, 3)
	root := t.TempDir()
	now := time.Now()
	seedCampaignDir(t, filepath.Join(root, "c0001"), spec, -1, &Meta{
		ID: "c0001", State: StateDone, Created: now})
	seedCampaignDir(t, filepath.Join(root, "c0002"), spec, 1, &Meta{
		ID: "c0002", State: StateRunning, Created: now})
	seedCampaignDir(t, filepath.Join(root, "c0003"), spec, 2, &Meta{
		ID: "c0003", State: StateCancelled, Created: now})

	m := newManager(t, root, 2)
	defer m.Close()
	ids := m.ResumeInterrupted()
	if len(ids) != 1 || ids[0] != "c0002" {
		t.Fatalf("ResumeInterrupted = %v, want [c0002]", ids)
	}
	if err := m.Wait("c0002"); err != nil {
		t.Fatalf("auto-resumed campaign: %v", err)
	}
	st, err := m.Get("c0002")
	if err != nil || st.State != StateDone {
		t.Errorf("auto-resumed state = %s (err=%v), want done", st.State, err)
	}
	if st, _ := m.Get("c0003"); st.State != StateCancelled {
		t.Errorf("cancelled campaign auto-resumed: %s", st.State)
	}
}

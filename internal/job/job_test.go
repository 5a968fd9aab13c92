package job

import (
	"context"
	"errors"
	"os"
	"path/filepath"
	"sync/atomic"
	"testing"
	"time"
)

// fake is test work: its record is rec.json, and drive (nil = succeed at
// once) is the attempt.
type fake struct {
	dir                           string
	drive                         func(ctx context.Context) error
	prepared, cancelled, released atomic.Int32
}

func (f *fake) Drive(ctx context.Context) error {
	if f.drive == nil {
		return nil
	}
	return f.drive(ctx)
}
func (f *fake) Persist(r Record) error { return WriteRecord(filepath.Join(f.dir, "rec.json"), r) }
func (f *fake) Prepare() error         { f.prepared.Add(1); return nil }
func (f *fake) Cancelled()             { f.cancelled.Add(1) }
func (f *fake) Release() error         { f.released.Add(1); return nil }

// testKind loads rec.json; a "complete" marker file means finished work,
// and "husk" is the only file a crash can leave of a Submit.
func testKind(slots int) Kind {
	return Kind{
		Name: "test", Noun: "job", Prefix: 'x', Slots: slots,
		Load: func(id, dir string) (*Recovered, error) {
			var r Record
			if ok, err := ReadRecord(filepath.Join(dir, "rec.json"), &r); !ok {
				return nil, err
			}
			_, err := os.Stat(filepath.Join(dir, "complete"))
			return &Recovered{Work: &fake{dir: dir}, Record: r, Complete: err == nil}, nil
		},
		HuskEntry: func(name string, _ int64) bool { return name == "husk" },
	}
}

func newTest(t *testing.T, root string, slots int) *Manager {
	t.Helper()
	m, err := New(root, testKind(slots))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(m.Close)
	return m
}

// submit starts a fake job in its own directory.
func submit(t *testing.T, m *Manager, f *fake) string {
	t.Helper()
	id, err := m.Submit("fake", func(_, dir string) (Work, error) {
		f.dir = dir
		return f, os.MkdirAll(dir, 0o755)
	})
	if err != nil {
		t.Fatal(err)
	}
	return id
}

func writeFile(t *testing.T, path, data string) {
	t.Helper()
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, []byte(data), 0o644); err != nil {
		t.Fatal(err)
	}
}

// TestRecoverClassification: terminal records are kept, every other
// recorded state — including none and unknown ones — recovers as
// interrupted (done when the work is complete) and is persisted so; a
// crash husk is removed and its id reused, while foreign directories and
// manager-named stray data are left alone and keep their ids reserved.
func TestRecoverClassification(t *testing.T) {
	root := t.TempDir()
	want := map[string]string{
		"x0001": StateDone, "x0002": StateFailed, "x0003": StateCancelled,
		"x0004": StateQueued, "x0005": StateRunning, "x0006": StateInterrupted,
		"x0007": "", "x0008": "paused",
	}
	for id, state := range want {
		if err := os.MkdirAll(filepath.Join(root, id), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := WriteRecord(filepath.Join(root, id, "rec.json"), Record{State: state, Error: "e-" + id}); err != nil {
			t.Fatal(err)
		}
	}
	writeFile(t, filepath.Join(root, "x0009", "rec.json"), `{"State":"running"}`)
	writeFile(t, filepath.Join(root, "x0009", "complete"), "")
	writeFile(t, filepath.Join(root, "x0010", "rec.json"), "{torn")
	writeFile(t, filepath.Join(root, "x0012", "husk"), "")
	writeFile(t, filepath.Join(root, "notes", "husk"), "")

	m := newTest(t, root, 1)
	got := map[string]string{}
	for _, j := range m.Jobs() {
		got[j.id] = j.Record().State
	}
	for id, state := range want {
		if !Terminal(state) {
			want[id] = StateInterrupted
		}
	}
	want["x0009"] = StateDone
	for id, state := range want {
		if got[id] != state {
			t.Errorf("%s recovered as %q, want %q", id, got[id], state)
		}
		var r Record
		if _, err := ReadRecord(filepath.Join(root, id, "rec.json"), &r); err != nil || r.State != state {
			t.Errorf("%s persisted as %q (err %v), want %q", id, r.State, err, state)
		}
	}
	if len(got) != len(want) {
		t.Errorf("recovered %v, want %v", got, want)
	}
	if err := m.Wait("x0002"); err == nil || err.Error() != "e-x0002" {
		t.Errorf("recovered error = %v, want e-x0002", err)
	}
	if _, err := os.Stat(filepath.Join(root, "x0012")); !os.IsNotExist(err) {
		t.Errorf("crash husk not removed: %v", err)
	}
	if _, err := os.Stat(filepath.Join(root, "notes", "husk")); err != nil {
		t.Errorf("foreign directory disturbed: %v", err)
	}
	// The torn x0010 keeps its id reserved; the husk's x0012 is free again.
	for _, want := range []string{"x0011", "x0012"} {
		if id := submit(t, m, &fake{}); id != want {
			t.Errorf("submit allocated %s, want %s", id, want)
		}
	}
}

// TestCancelBeatsShutdown pins the stop precedence: an operator's cancel
// that overlaps a shutdown is recorded as cancelled; a shutdown alone
// leaves the job interrupted, for the next boot's autoresume.
func TestCancelBeatsShutdown(t *testing.T) {
	m := newTest(t, t.TempDir(), 0)
	started := make(chan struct{}, 2)
	block := func(ctx context.Context) error { started <- struct{}{}; <-ctx.Done(); return ctx.Err() }
	cancelled, interrupted := &fake{drive: block}, &fake{drive: block}
	a, b := submit(t, m, cancelled), submit(t, m, interrupted)
	<-started
	<-started
	if err := m.Cancel(a); err != nil {
		t.Fatal(err)
	}
	if !m.Shutdown(5 * time.Second) {
		t.Fatal("unclean shutdown")
	}
	for id, want := range map[string]string{a: StateCancelled, b: StateInterrupted} {
		if j, _ := m.Lookup(id); j.Record().State != want {
			t.Errorf("%s ended %s, want %s", id, j.Record().State, want)
		}
	}
	// The cancel hook runs at Cancel and again after the attempt exits.
	if n := cancelled.cancelled.Load(); n != 2 {
		t.Errorf("Cancelled ran %d times, want 2", n)
	}
	if n := interrupted.cancelled.Load(); n != 0 {
		t.Errorf("Cancelled ran %d times on an interrupted job", n)
	}
	if err := m.Resume(b); err == nil {
		t.Error("resume accepted after shutdown")
	}
}

// TestResumeAfterFailure: a failed job keeps its error until Resume
// prepares it for a new attempt, which clears it.
func TestResumeAfterFailure(t *testing.T) {
	m := newTest(t, t.TempDir(), 1)
	var attempts atomic.Int32
	f := &fake{drive: func(context.Context) error {
		if attempts.Add(1) == 1 {
			return errors.New("transient")
		}
		return nil
	}}
	id := submit(t, m, f)
	if err := m.Wait(id); err == nil || err.Error() != "transient" {
		t.Fatalf("first attempt = %v, want transient", err)
	}
	if err := m.Resume(id); err != nil {
		t.Fatal(err)
	}
	if err := m.Wait(id); err != nil {
		t.Fatal(err)
	}
	j, _ := m.Lookup(id)
	if r := j.Record(); r.State != StateDone || r.Error != "" || r.Started == nil || r.Finished == nil {
		t.Errorf("after resume: %+v", r)
	}
	if f.prepared.Load() != 1 {
		t.Errorf("Prepare ran %d times, want 1", f.prepared.Load())
	}
	if err := m.Resume(id); err == nil {
		t.Error("resume of a done job accepted")
	}
}

// TestShutdownTimeout: a wedged attempt makes Shutdown give up at the
// deadline and report unclean, leaving that job unreleased while
// finished ones are released; later calls return at once.
func TestShutdownTimeout(t *testing.T) {
	m := newTest(t, t.TempDir(), 0)
	release := make(chan struct{})
	defer close(release)
	wedged := &fake{drive: func(context.Context) error { <-release; return nil }}
	done := &fake{}
	submit(t, m, wedged)
	id := submit(t, m, done)
	if err := m.Wait(id); err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	if m.Shutdown(20 * time.Millisecond) {
		t.Error("clean shutdown with a wedged job")
	}
	if d := time.Since(start); d > 5*time.Second {
		t.Errorf("shutdown took %s", d)
	}
	if wedged.released.Load() != 0 || done.released.Load() != 1 {
		t.Errorf("released wedged=%d done=%d, want 0 and 1", wedged.released.Load(), done.released.Load())
	}
	if !m.Shutdown(0) {
		t.Error("repeated Shutdown did not return at once")
	}
}

package campaign

import (
	"errors"
	"os"
	"testing"
	"time"
)

func quickSpec(rate float64, seed uint64, trials int) Spec {
	return Spec{
		Custom: &CustomSweep{Workload: "sort/base", Rates: []float64{rate}},
		Trials: trials, Seed: seed,
	}
}

func newManager(t *testing.T, root string, maxConcurrent int) *Manager {
	t.Helper()
	m, err := NewManager(root, maxConcurrent)
	if err != nil {
		t.Fatalf("NewManager(%s): %v", root, err)
	}
	return m
}

// TestManagerRestartDoesNotReuseStores pins the restart behavior: a new
// manager over an old data directory must never hand a fresh campaign a
// previous run's store, whose records would be served as cached trials
// for a different grid.
func TestManagerRestartDoesNotReuseStores(t *testing.T) {
	root := t.TempDir()
	m1 := newManager(t, root, 1)
	id1, err := m1.Submit(quickSpec(0.01, 1, 1))
	if err != nil {
		t.Fatalf("submit: %v", err)
	}
	if err := m1.Wait(id1); err != nil {
		t.Fatalf("wait: %v", err)
	}
	m1.Close()

	m2 := newManager(t, root, 1)
	defer m2.Close()
	id2, err := m2.Submit(quickSpec(0.5, 99, 3))
	if err != nil {
		t.Fatalf("submit after restart: %v", err)
	}
	if id2 == id1 {
		t.Fatalf("restarted manager reused campaign id %s (and its store)", id1)
	}
	if err := m2.Wait(id2); err != nil {
		t.Fatalf("wait: %v", err)
	}
	st, err := m2.Get(id2)
	if err != nil {
		t.Fatal(err)
	}
	if st.Progress.Done != 3 || st.Progress.Total != 3 {
		t.Errorf("new campaign progress = %+v, want 3/3 freshly executed trials", st.Progress)
	}
}

// TestManagerDataRootLock: two live managers on one data root would both
// classify the other's running campaigns as ownerless and race on the
// same stores, so the second must be refused until the first closes.
func TestManagerDataRootLock(t *testing.T) {
	root := t.TempDir()
	m1 := newManager(t, root, 1)
	if _, err := NewManager(root, 1); err == nil {
		t.Fatal("second manager on a held data root accepted")
	}
	m1.Close()
	m2, err := NewManager(root, 1)
	if err != nil {
		t.Fatalf("manager after clean close: %v", err)
	}
	m2.Close()
}

func TestManagerSubmitAfterClose(t *testing.T) {
	m := newManager(t, t.TempDir(), 1)
	m.Close()
	if _, err := m.Submit(quickSpec(0.01, 1, 1)); err == nil {
		t.Error("submit after close accepted")
	}
}

// TestShutdownReportsFailedStoreClose pins the contract the
// error-durability audit tightened: Close is a store's last flush, and a
// Shutdown that drops its error would let the daemon exit claiming a
// clean shutdown — root flock released, meta trusted — over a store that
// may be missing records. A failed close must surface as unclean.
func TestShutdownReportsFailedStoreClose(t *testing.T) {
	m := newManager(t, t.TempDir(), 1)
	id, err := m.Submit(quickSpec(0.01, 1, 1))
	if err != nil {
		t.Fatalf("submit: %v", err)
	}
	if err := m.Wait(id); err != nil {
		t.Fatalf("wait: %v", err)
	}
	j, err := m.Lookup(id)
	if err != nil {
		t.Fatal(err)
	}
	h := j.Work().(*handle)
	// Sabotage: yank the descriptor out from under the store, so the
	// close Shutdown performs fails the way a full disk or dying mount
	// would.
	h.mu.Lock()
	h.st.f.Close()
	h.mu.Unlock()
	if m.Shutdown(5 * time.Second) {
		t.Fatal("Shutdown reported a clean shutdown despite a failed store close")
	}
}

// TestManagerStoreErrorFails: a campaign whose store stops accepting
// records ends failed, carrying the store error — not cancelled or
// interrupted, which would misreport a broken store as an operator stop.
func TestManagerStoreErrorFails(t *testing.T) {
	m := newManager(t, t.TempDir(), 1)
	defer m.Close()
	// The blocker holds the only run slot, so the second campaign's store
	// can be closed before it starts.
	blocker, err := m.Submit(quickSpec(0.01, 1, 100000))
	if err != nil {
		t.Fatalf("submit blocker: %v", err)
	}
	id, err := m.Submit(quickSpec(0.01, 2, 1000))
	if err != nil {
		t.Fatalf("submit: %v", err)
	}
	j, err := m.Lookup(id)
	if err != nil {
		t.Fatal(err)
	}
	h := j.Work().(*handle)
	h.mu.Lock()
	err = h.st.Close()
	h.mu.Unlock()
	if err != nil {
		t.Fatalf("close store: %v", err)
	}
	if err := m.Cancel(blocker); err != nil {
		t.Fatal(err)
	}
	if err := m.Wait(id); !errors.Is(err, os.ErrClosed) {
		t.Fatalf("Wait = %v, want the store's ErrClosed", err)
	}
	s, err := m.Get(id)
	if err != nil {
		t.Fatal(err)
	}
	if s.State != StateFailed {
		t.Errorf("state = %q, want %q", s.State, StateFailed)
	}
}

package dispatch

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"
)

// trialValue is the deterministic "trial function" coordinator tests
// execute: any worker computing the same key gets the same value.
func trialValue(k Key) float64 {
	return float64(k.Unit*1000 + k.RateIdx*10 + k.TrialIdx)
}

func resultFor(k Key) TrialResult {
	return TrialResult{
		Unit: k.Unit, RateIdx: k.RateIdx, TrialIdx: k.TrialIdx,
		Rate: float64(k.RateIdx), Seed: uint64(k.TrialIdx), Value: trialValue(k),
	}
}

// runWorker drives one fake worker against the coordinator until the
// job drains: register, lease, execute, report done.
func runWorker(t *testing.T, c *Coordinator, stop <-chan struct{}) {
	t.Helper()
	reg := c.Register(RegisterRequest{Name: "test"})
	for {
		select {
		case <-stop:
			return
		default:
		}
		lease, err := c.Lease(LeaseRequest{Worker: reg.Worker})
		if err != nil {
			t.Errorf("lease: %v", err)
			return
		}
		if lease == nil {
			time.Sleep(time.Millisecond)
			continue
		}
		sh := lease.Shard
		var results []TrialResult
		for i := sh.Start; i < sh.Start+sh.Count; i++ {
			results = append(results, resultFor(Key{Unit: sh.Unit, RateIdx: i / 2, TrialIdx: i % 2}))
		}
		resp, err := c.Report(ReportRequest{
			Worker: reg.Worker, Campaign: lease.Campaign, Lease: lease.Lease,
			Results: results, Done: true,
		})
		if err != nil {
			t.Errorf("report: %v", err)
			return
		}
		_ = resp
	}
}

func TestCoordinatorRunJobDrainsGrid(t *testing.T) {
	c := New(Options{LeaseTTL: time.Minute, ShardSize: 3})
	var mu sync.Mutex
	got := map[Key]float64{}
	job := Job{
		Campaign: "c0001",
		Spec:     []byte(`{"x":1}`),
		Units:    []UnitGrid{{Rates: 3, Trials: 2}, {Rates: 2, Trials: 2}},
		Sink: func(rs []TrialResult) ([]TrialResult, error) {
			mu.Lock()
			defer mu.Unlock()
			for _, r := range rs {
				if v, dup := got[r.Key()]; dup && v != r.Value {
					return nil, fmt.Errorf("conflicting values for %+v", r.Key())
				}
				got[r.Key()] = r.Value
			}
			return rs, nil
		},
	}
	stop := make(chan struct{})
	defer close(stop)
	for i := 0; i < 2; i++ {
		go runWorker(t, c, stop)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := c.RunJob(ctx, job); err != nil {
		t.Fatalf("RunJob: %v", err)
	}
	if len(got) != 3*2+2*2 {
		t.Fatalf("sank %d trials, want %d", len(got), 10)
	}
	for k, v := range got {
		if v != trialValue(k) {
			t.Errorf("key %+v = %v, want %v", k, v, trialValue(k))
		}
	}
	if s := c.Stats(); s.Jobs != 0 {
		t.Errorf("jobs after RunJob = %d, want 0", s.Jobs)
	}
}

func TestUnknownWorker(t *testing.T) {
	c := New(Options{})
	if _, err := c.Lease(LeaseRequest{Worker: "w9999"}); !errors.Is(err, ErrUnknownWorker) {
		t.Errorf("lease err = %v, want ErrUnknownWorker", err)
	}
	if _, err := c.Report(ReportRequest{Worker: "w9999"}); !errors.Is(err, ErrUnknownWorker) {
		t.Errorf("report err = %v, want ErrUnknownWorker", err)
	}
}

func TestReportUnknownCampaignAnswersLost(t *testing.T) {
	c := New(Options{})
	reg := c.Register(RegisterRequest{})
	resp, err := c.Report(ReportRequest{Worker: reg.Worker, Campaign: "gone", Lease: "l1"})
	if err != nil || !resp.Lost {
		t.Errorf("report = %+v, %v; want lost", resp, err)
	}
}

func TestLeaseNoJobs(t *testing.T) {
	c := New(Options{})
	reg := c.Register(RegisterRequest{})
	lease, err := c.Lease(LeaseRequest{Worker: reg.Worker})
	if err != nil || lease != nil {
		t.Errorf("lease = %+v, %v; want no work", lease, err)
	}
}

func TestSinkErrorFailsJob(t *testing.T) {
	c := New(Options{LeaseTTL: time.Minute})
	boom := errors.New("disk full")
	errc := make(chan error, 1)
	go func() {
		errc <- c.RunJob(context.Background(), Job{
			Campaign: "c1",
			Units:    []UnitGrid{{Rates: 1, Trials: 1}},
			Sink:     func([]TrialResult) ([]TrialResult, error) { return nil, boom },
		})
	}()
	reg := c.Register(RegisterRequest{})
	var lease *LeaseResponse
	for lease == nil {
		var err error
		if lease, err = c.Lease(LeaseRequest{Worker: reg.Worker}); err != nil {
			t.Fatal(err)
		}
	}
	resp, err := c.Report(ReportRequest{
		Worker: reg.Worker, Campaign: "c1", Lease: lease.Lease,
		Results: []TrialResult{resultFor(Key{})},
	})
	if err != nil || !resp.Lost {
		t.Errorf("report during sink failure = %+v, %v; want lost", resp, err)
	}
	select {
	case err := <-errc:
		if !errors.Is(err, boom) {
			t.Errorf("RunJob err = %v, want %v", err, boom)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("RunJob never failed")
	}
}

func TestVerifyRejectsAndRequeues(t *testing.T) {
	c := New(Options{LeaseTTL: time.Minute, ShardSize: 2})
	var mu sync.Mutex
	sunk := 0
	done := make(chan error, 1)
	go func() {
		done <- c.RunJob(context.Background(), Job{
			Campaign: "c1",
			Units:    []UnitGrid{{Rates: 1, Trials: 2}},
			Verify:   func(r TrialResult) bool { return r.Seed == uint64(r.TrialIdx) },
			Sink: func(rs []TrialResult) ([]TrialResult, error) {
				mu.Lock()
				sunk += len(rs)
				mu.Unlock()
				return rs, nil
			},
		})
	}()
	reg := c.Register(RegisterRequest{})
	var lease *LeaseResponse
	for lease == nil {
		lease, _ = c.Lease(LeaseRequest{Worker: reg.Worker})
	}
	// One good record, one with a wrong seed and one out of the grid.
	bad := resultFor(Key{TrialIdx: 1})
	bad.Seed = 999
	outside := resultFor(Key{Unit: 3})
	if resp, err := c.Report(ReportRequest{
		Worker: reg.Worker, Campaign: "c1", Lease: lease.Lease,
		Results: []TrialResult{resultFor(Key{}), bad, outside}, Done: true,
	}); err != nil || resp.Lost || resp.Rejected != 2 {
		t.Fatalf("report = %+v, %v; want 2 rejected, not lost", resp, err)
	}
	if s := c.Stats(); s.RejectedResults != 2 {
		t.Errorf("rejected = %d, want 2", s.RejectedResults)
	}
	// The rejected trial is pending again, alone in its shard; a correct
	// report finishes the job.
	var re *LeaseResponse
	for re == nil {
		re, _ = c.Lease(LeaseRequest{Worker: reg.Worker})
	}
	if re.Shard != (Shard{Start: 1, Count: 1}) {
		t.Fatalf("requeued shard = %+v, want [1,2)", re.Shard)
	}
	if _, err := c.Report(ReportRequest{
		Worker: reg.Worker, Campaign: "c1", Lease: re.Lease,
		Results: []TrialResult{resultFor(Key{TrialIdx: 1})}, Done: true,
	}); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("RunJob: %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("job never finished")
	}
	if sunk != 2 {
		t.Errorf("sunk = %d records, want 2", sunk)
	}
}

func TestDuplicateCampaignRejected(t *testing.T) {
	c := New(Options{})
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	errc := make(chan error, 1)
	go func() {
		errc <- c.RunJob(ctx, Job{
			Campaign: "c1",
			Units:    []UnitGrid{{Rates: 1, Trials: 1}},
			Sink:     func(rs []TrialResult) ([]TrialResult, error) { return rs, nil },
		})
	}()
	for c.Stats().Jobs == 0 {
		time.Sleep(time.Millisecond)
	}
	if err := c.RunJob(ctx, Job{Campaign: "c1", Sink: func(rs []TrialResult) ([]TrialResult, error) { return rs, nil }}); err == nil {
		t.Error("duplicate campaign accepted")
	}
	cancel()
	if err := <-errc; !errors.Is(err, context.Canceled) {
		t.Errorf("cancelled RunJob = %v", err)
	}
}

func TestRegisterPrunesLongSilentWorkers(t *testing.T) {
	c := New(Options{LeaseTTL: time.Minute})
	old := c.Register(RegisterRequest{Name: "old"})
	c.mu.Lock()
	c.workers[old.Worker].lastSeen = time.Now().Add(-21 * time.Minute) // > 10 × activeWindow
	c.mu.Unlock()
	fresh := c.Register(RegisterRequest{Name: "fresh"})
	if _, err := c.Lease(LeaseRequest{Worker: old.Worker}); !errors.Is(err, ErrUnknownWorker) {
		t.Errorf("pruned worker lease err = %v, want ErrUnknownWorker (re-register signal)", err)
	}
	ws := c.Workers()
	if len(ws) != 1 || ws[0].ID != fresh.Worker {
		t.Errorf("workers after prune = %+v, want only %s", ws, fresh.Worker)
	}
}

func TestWorkersListingAndStats(t *testing.T) {
	c := New(Options{LeaseTTL: time.Minute, WorkersExpected: 3})
	a := c.Register(RegisterRequest{Name: "a"})
	b := c.Register(RegisterRequest{Name: "b"})
	if a.Worker == b.Worker {
		t.Fatalf("both workers got id %s", a.Worker)
	}
	ws := c.Workers()
	if len(ws) != 2 || ws[0].ID != a.Worker || ws[1].ID != b.Worker {
		t.Fatalf("workers = %+v, want [%s %s] in registration order", ws, a.Worker, b.Worker)
	}
	for _, w := range ws {
		if !w.Active {
			t.Errorf("worker %s inactive right after registering", w.ID)
		}
	}
	s := c.Stats()
	if s.WorkersRegistered != 2 || s.WorkersActive != 2 || s.WorkersExpected != 3 {
		t.Errorf("stats = %+v", s)
	}

	// A half-durable grid: trials 0 and 1 of each of two rates are
	// recorded, so 4 of 8 trials start done.
	ctx, cancel := context.WithCancel(context.Background())
	errc := make(chan error, 1)
	go func() {
		errc <- c.RunJob(ctx, Job{
			Campaign: "c1",
			Units:    []UnitGrid{{Rates: 2, Trials: 4}},
			Durable:  durableLinear(8, 0, 1, 4, 5),
			Sink:     func(rs []TrialResult) ([]TrialResult, error) { return rs, nil },
		})
	}()
	for c.Stats().Jobs == 0 {
		time.Sleep(time.Millisecond)
	}
	if s := c.Stats(); s.TrialsPending != 4 || s.TrialsLeased != 0 || s.TrialsDone != 4 || s.LeasesOutstanding != 0 {
		t.Errorf("half-durable grid stats = %+v, want 4 pending, 4 done", s)
	}
	// The first lease is carved at the front and stops at the durable
	// trials of the second rate: [2,4).
	lease, err := c.Lease(LeaseRequest{Worker: a.Worker})
	if err != nil || lease == nil || lease.Shard.Start != 2 || lease.Shard.Count != 2 {
		t.Fatalf("lease = %+v, %v; want [2,4)", lease, err)
	}
	if s := c.Stats(); s.TrialsPending != 2 || s.TrialsLeased != 2 || s.TrialsDone != 4 || s.LeasesOutstanding != 1 {
		t.Errorf("stats with one lease out = %+v, want 2 pending, 2 leased, 4 done, 1 lease", s)
	}
	cancel()
	if err := <-errc; !errors.Is(err, context.Canceled) {
		t.Errorf("cancelled RunJob = %v", err)
	}
}

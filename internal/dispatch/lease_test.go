package dispatch

import (
	"fmt"
	"reflect"
	"testing"
	"time"
)

var t0 = time.Date(2026, 7, 28, 12, 0, 0, 0, time.UTC)

// keys lists the results a worker reports for the given linear indices
// of unit; the lease table reads only their keys.
func keys(unit int, trials int, linear ...int) []TrialResult {
	out := make([]TrialResult, len(linear))
	for i, l := range linear {
		out[i] = TrialResult{Unit: unit, RateIdx: l / trials, TrialIdx: l % trials}
	}
	return out
}

// durableLinear is the durable set of a one-unit grid of size indices
// in which the given linear indices are recorded.
func durableLinear(size int, linear ...int) [][]uint64 {
	set := make([]uint64, (size+63)/64)
	for _, i := range linear {
		set[i>>6] |= 1 << (i & 63)
	}
	return [][]uint64{set}
}

func tableStats(tb *Table, now time.Time) Stats {
	var s Stats
	tb.addStats(&s, now)
	return s
}

// acquire is Table.Acquire with nil for no lease.
func acquire(tb *Table, worker string, now time.Time, ttl time.Duration) *Lease {
	if le, ok := tb.Acquire(worker, now, ttl); ok {
		return &le
	}
	return nil
}

// acquireAll leases until the table has nothing left, without reporting.
func acquireAll(tb *Table, worker string, now time.Time) []Shard {
	got := []Shard{}
	for le := acquire(tb, worker, now, time.Minute); le != nil; le = acquire(tb, worker, now, time.Minute) {
		got = append(got, le.Shard)
	}
	return got
}

func TestTableCarving(t *testing.T) {
	// unit 0: 2 rates × 3 trials = 6 -> leases [0,4) [4,6); unit 1:
	// 1 rate × 4 trials -> one lease [0,4). Nothing is carved up front.
	tb := NewTable([]UnitGrid{{Rates: 2, Trials: 3}, {Rates: 1, Trials: 4}}, nil, 4)
	if s := tableStats(tb, t0); s.TrialsPending != 10 || s.TrialsLeased != 0 || s.TrialsDone != 0 || s.LeasesOutstanding != 0 {
		t.Fatalf("stats = %+v, want 10 trials pending", s)
	}
	want := []Shard{
		{Unit: 0, Start: 0, Count: 4},
		{Unit: 0, Start: 4, Count: 2},
		{Unit: 1, Start: 0, Count: 4},
	}
	if got := acquireAll(tb, "w1", t0); !reflect.DeepEqual(got, want) {
		t.Fatalf("acquired shards = %+v, want %+v", got, want)
	}
	if s := tableStats(tb, t0); s.TrialsPending != 0 || s.TrialsLeased != 10 || s.LeasesOutstanding != 3 {
		t.Fatalf("stats after carving = %+v, want 10 trials in 3 leases", s)
	}

	// A fresh carve passes over durable indices and stops at the first
	// durable one, so a lease never holds a durable index.
	tb = NewTable([]UnitGrid{{Rates: 1, Trials: 12}}, durableLinear(12, 0, 3, 4, 9, 10, 11), 8)
	want = []Shard{{Start: 1, Count: 2}, {Start: 5, Count: 4}}
	if got := acquireAll(tb, "w1", t0); !reflect.DeepEqual(got, want) {
		t.Fatalf("carves around durable indices = %+v, want %+v", got, want)
	}
}

func TestTableResumeSkipsDurable(t *testing.T) {
	// Trials 0..3 of unit 0 already durable: only [4,6) is leased.
	tb := NewTable([]UnitGrid{{Rates: 2, Trials: 3}}, durableLinear(6, 0, 1, 2, 3), 4)
	if s := tableStats(tb, t0); s.TrialsPending != 2 || s.TrialsDone != 4 {
		t.Fatalf("stats = %+v, want 2 pending, 4 done", s)
	}
	le := acquire(tb, "w1", t0, time.Minute)
	if le == nil || !reflect.DeepEqual(le.Shard, Shard{Start: 4, Count: 2}) {
		t.Fatalf("lease = %+v, want fresh shard [4,6)", le)
	}
}

// TestTableHandBackYieldsRuns: a handed-back range comes back as its
// runs of non-durable indices, each cut to the lease size, lowest range
// first and before fresh carving.
func TestTableHandBackYieldsRuns(t *testing.T) {
	tb := NewTable([]UnitGrid{{Rates: 4, Trials: 3}}, durableLinear(12, 1, 2), 6)
	a := acquire(tb, "w1", t0, time.Minute)
	b := acquire(tb, "w2", t0, time.Minute)
	if a == nil || !reflect.DeepEqual(a.Shard, Shard{Start: 0, Count: 1}) || b == nil || !reflect.DeepEqual(b.Shard, Shard{Start: 3, Count: 6}) {
		t.Fatalf("fresh leases = %+v, %+v; want [0,1) and [3,9)", a, b)
	}
	// w2 delivers 4 and 7 and claims done; the range goes back.
	if lost := tb.Report(b.ID, keys(0, 3, 4, 7), true, t0, time.Minute); lost {
		t.Fatal("done report lost")
	}
	// w1's lease [0,1) expires too, after the handback: it is lower, so it
	// is re-leased first, then [3,9) run by run, then the fresh tail.
	late := t0.Add(2 * time.Minute)
	want := []Shard{{Start: 0, Count: 1}, {Start: 3, Count: 1}, {Start: 5, Count: 2}, {Start: 8, Count: 1}, {Start: 9, Count: 3}}
	if got := acquireAll(tb, "w3", late); !reflect.DeepEqual(got, want) {
		t.Fatalf("re-leases = %+v, want %+v", got, want)
	}

	// A run longer than the lease size is cut at it, and the rest of the
	// range stays in front of fresh carving: a fast worker's [2,6) comes
	// back empty and a floor-sized worker re-leases it in two.
	tb = NewTable([]UnitGrid{{Rates: 1, Trials: 12}}, durableLinear(12, 6), 2)
	finish(t, tb, acquire(tb, "fast", t0, time.Minute), 12, t0)
	c := acquire(tb, "fast", t0, time.Minute)
	if c == nil || !reflect.DeepEqual(c.Shard, Shard{Start: 2, Count: 4}) {
		t.Fatalf("fast worker's second lease = %+v, want [2,6)", c)
	}
	if lost := tb.Report(c.ID, nil, true, t0, time.Minute); lost {
		t.Fatal("done report lost")
	}
	want = []Shard{{Start: 2, Count: 2}, {Start: 4, Count: 2}, {Start: 7, Count: 2}, {Start: 9, Count: 2}, {Start: 11, Count: 1}}
	if got := acquireAll(tb, "slow", t0); !reflect.DeepEqual(got, want) {
		t.Fatalf("re-leases by a floor-sized worker = %+v, want %+v", got, want)
	}
}

func TestLeaseExpiryReassignmentOrdering(t *testing.T) {
	tb := NewTable([]UnitGrid{{Rates: 4, Trials: 2}}, nil, 2)
	ttl := time.Minute

	l0 := acquire(tb, "dead", t0, ttl) // [0,2)
	l1 := acquire(tb, "dead", t0, ttl) // [2,4)
	if l0 == nil || l1 == nil {
		t.Fatal("initial acquires failed")
	}
	// Worker "dead" reports part of its first lease, then goes silent.
	if lost := tb.Report(l0.ID, keys(0, 2, 0), false, t0.Add(10*time.Second), ttl); lost {
		t.Fatal("live lease reported lost")
	}

	// Before expiry another worker gets a fresh carve, not the leased
	// ranges.
	l2 := acquire(tb, "w2", t0.Add(30*time.Second), ttl)
	if l2 == nil || l2.Shard.Start != 4 {
		t.Fatalf("pre-expiry acquire = %+v, want shard [4,6)", l2)
	}

	// After both of dead's leases expire (l1 at t0+60s, the renewed l0 at
	// t0+70s) but while w2's own lease is still live (until t0+90s),
	// reassignment hands back the lowest range first — [1,2), what the
	// delivered trial left of [0,2), then [2,4) — before carving the tail.
	late := t0.Add(80 * time.Second)
	r0 := acquire(tb, "w2", late, ttl)
	if r0 == nil || !reflect.DeepEqual(r0.Shard, Shard{Start: 1, Count: 1}) {
		t.Fatalf("first reassignment = %+v, want shard [1,2)", r0)
	}
	r1 := acquire(tb, "w2", late, ttl)
	if r1 == nil || !reflect.DeepEqual(r1.Shard, Shard{Start: 2, Count: 2}) {
		t.Fatalf("second reassignment = %+v, want shard [2,4)", r1)
	}
	r2 := acquire(tb, "w2", late, ttl)
	if r2 == nil || r2.Shard.Start != 6 {
		t.Fatalf("third acquire = %+v, want tail shard [6,8)", r2)
	}
	// The stale worker's report now answers lost.
	if lost := tb.Report(l0.ID, nil, false, late, ttl); !lost {
		t.Error("expired lease report not lost")
	}
}

// finish reports every trial of a lease with done at now.
func finish(t *testing.T, tb *Table, le *Lease, trials int, now time.Time) {
	t.Helper()
	var ks []TrialResult
	for i := le.Shard.Start; i < le.Shard.Start+le.Shard.Count; i++ {
		ks = append(ks, TrialResult{Unit: le.Shard.Unit, RateIdx: i / trials, TrialIdx: i % trials})
	}
	if lost := tb.Report(le.ID, ks, true, now, time.Minute); lost {
		t.Fatalf("finishing report on %s lost", le.ID)
	}
}

func TestLeaseSizeFollowsMeasuredRate(t *testing.T) {
	const trials = 25_000
	tb := NewTable([]UnitGrid{{Rates: 4, Trials: trials}}, nil, 16)

	// First leases are the floor for every worker.
	fast := acquire(tb, "fast", t0, time.Minute)
	slow := acquire(tb, "slow", t0, time.Minute)
	if fast.Shard.Count != 16 || slow.Shard.Count != 16 {
		t.Fatalf("first leases = %d and %d trials, want 16", fast.Shard.Count, slow.Shard.Count)
	}
	// 16 trials in 100 µs is 160k trials/s: the next lease would be 16k
	// trials of a 100 ms slice, capped at one report.
	finish(t, tb, fast, trials, t0.Add(100*time.Microsecond))
	// 16 trials in 200 ms (figure-like trials) is 80 trials/s: 8 per
	// slice, so the floor holds.
	finish(t, tb, slow, trials, t0.Add(200*time.Millisecond))
	now := t0.Add(time.Second)
	if le := acquire(tb, "fast", now, time.Minute); le.Shard.Count != MaxReport {
		t.Errorf("fast worker's second lease = %d trials, want MaxReport (%d)", le.Shard.Count, MaxReport)
	}
	if le := acquire(tb, "slow", now, time.Minute); le.Shard.Count != 16 {
		t.Errorf("slow worker's second lease = %d trials, want the floor 16", le.Shard.Count)
	}
	// A worker new to the campaign starts at the floor again.
	if le := acquire(tb, "new", now, time.Minute); le.Shard.Count != 16 {
		t.Errorf("new worker's first lease = %d trials, want 16", le.Shard.Count)
	}

	// No lease runs past the pending run it was carved from: pending runs
	// [0,100) and [200,300) with durable trials between and after.
	var durable []int
	for i := 100; i < 1000; i++ {
		if i < 200 || i >= 300 {
			durable = append(durable, i)
		}
	}
	tb = NewTable([]UnitGrid{{Rates: 1, Trials: 1000}}, durableLinear(1000, durable...), 16)
	first := acquire(tb, "fast", t0, time.Minute)
	finish(t, tb, first, 1000, t0) // no measurable time: as fast as can be
	got := acquireAll(tb, "fast", t0)
	want := []Shard{{Start: 16, Count: 84}, {Start: 200, Count: 100}}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("fast worker's leases = %+v, want %+v", got, want)
	}

	// A handed-back range is cut to the asking worker's size: the fast
	// worker's 100-trial lease expires and a floor-sized worker re-leases
	// its front.
	late := t0.Add(2 * time.Minute)
	le := acquire(tb, "slow", late, time.Minute)
	if le == nil || !reflect.DeepEqual(le.Shard, Shard{Start: 16, Count: 16}) {
		t.Fatalf("re-lease by a floor-sized worker = %+v, want [16,32)", le)
	}
	if le := acquire(tb, "slow", late, time.Minute); le == nil || !reflect.DeepEqual(le.Shard, Shard{Start: 32, Count: 16}) {
		t.Fatalf("next re-lease = %+v, want [32,48)", le)
	}
}

// TestLeaseSizePerUnit: a rate measured in one unit sizes only that
// unit's leases. The grid is figure 6.6's first two units, a cheap one
// (QR, ~0.14 ms a trial) then a slow one (SVD, ~9 ms): the worker's
// first SVD lease is the floor, not the whole unit at the QR rate.
func TestLeaseSizePerUnit(t *testing.T) {
	tb := NewTable([]UnitGrid{{Rates: 1, Trials: 200}, {Rates: 7, Trials: 25}}, nil, 16)
	now := t0
	lease := func(want Shard, perTrial time.Duration) {
		t.Helper()
		le := acquire(tb, "w", now, time.Minute)
		if le == nil || le.Shard != want {
			t.Fatalf("lease %+v, want %+v", le, want)
		}
		now = now.Add(time.Duration(le.Shard.Count) * perTrial)
		finish(t, tb, le, []int{200, 25}[want.Unit], now)
	}
	lease(Shard{Unit: 0, Start: 0, Count: 16}, 140*time.Microsecond)
	lease(Shard{Unit: 0, Start: 16, Count: 184}, 140*time.Microsecond) // ~714 a slice
	lease(Shard{Unit: 1, Start: 0, Count: 16}, 9*time.Millisecond)
	lease(Shard{Unit: 1, Start: 16, Count: 16}, 9*time.Millisecond) // ~11 a slice: the floor
}

func TestHeartbeatRenewsLease(t *testing.T) {
	tb := NewTable([]UnitGrid{{Rates: 1, Trials: 2}}, nil, 2)
	ttl := time.Minute
	le := acquire(tb, "w1", t0, ttl)
	// Empty report at t0+50s pushes expiry to t0+110s.
	if lost := tb.Report(le.ID, nil, false, t0.Add(50*time.Second), ttl); lost {
		t.Fatal("heartbeat lost a live lease")
	}
	if other := acquire(tb, "w2", t0.Add(90*time.Second), ttl); other != nil {
		t.Fatalf("renewed lease was reassigned: %+v", other)
	}
	if other := acquire(tb, "w2", t0.Add(3*time.Minute), ttl); other == nil {
		t.Fatal("lease never expired after heartbeats stopped")
	}
}

func TestReportDoneIncompleteRequeues(t *testing.T) {
	tb := NewTable([]UnitGrid{{Rates: 1, Trials: 4}}, nil, 4)
	le := acquire(tb, "w1", t0, time.Minute)
	// Worker claims done but delivered only half the lease: the claim is
	// not trusted, and the range's missing half is handed back.
	if lost := tb.Report(le.ID, keys(0, 4, 0, 1), true, t0, time.Minute); lost {
		t.Fatal("done report lost")
	}
	select {
	case <-tb.Done():
		t.Fatal("table done with half the grid missing")
	default:
	}
	re := acquire(tb, "w2", t0, time.Minute)
	if re == nil || !reflect.DeepEqual(re.Shard, Shard{Start: 2, Count: 2}) {
		t.Fatalf("requeued lease = %+v, want shard [2,4)", re)
	}
	if lost := tb.Report(re.ID, keys(0, 4, 2, 3), true, t0, time.Minute); lost {
		t.Fatal("completing report lost")
	}
	select {
	case <-tb.Done():
	default:
		t.Fatal("table not done after full grid delivered")
	}
}

func TestStaleLeaseReportStillCompletesShard(t *testing.T) {
	tb := NewTable([]UnitGrid{{Rates: 1, Trials: 2}}, nil, 2)
	ttl := time.Minute
	l1 := acquire(tb, "w1", t0, ttl)
	// w1 goes silent; the range is reassigned to w2 — then w1's full
	// report arrives late, on the expired lease. The results are durable
	// either way, so they complete the range out from under w2, and both
	// workers are told to move on.
	late := t0.Add(2 * time.Minute)
	l2 := acquire(tb, "w2", late, ttl)
	if l2 == nil || l2.Shard.Start != 0 {
		t.Fatalf("reassignment = %+v, want shard [0,2)", l2)
	}
	if lost := tb.Report(l1.ID, keys(0, 2, 0, 1), false, late, ttl); !lost {
		t.Error("stale lease report not answered lost")
	}
	select {
	case <-tb.Done():
	default:
		t.Fatal("table not done after stale report covered the grid")
	}
	if lost := tb.Report(l2.ID, nil, false, late, ttl); !lost {
		t.Error("lease over a completed range not reported lost")
	}
	if s := tableStats(tb, late); s.LeasesOutstanding != 0 || s.TrialsDone != 2 {
		t.Errorf("stats = %+v, want no leases and 2 trials done", s)
	}
}

func TestOutOfGridKeysIgnored(t *testing.T) {
	tb := NewTable([]UnitGrid{{Rates: 1, Trials: 2}}, nil, 2)
	le := acquire(tb, "w1", t0, time.Minute)
	junk := []TrialResult{{Unit: 5, RateIdx: 0, TrialIdx: 0}, {Unit: 0, RateIdx: 9, TrialIdx: 0}, {Unit: -1}, {Unit: 0, RateIdx: 0, TrialIdx: 7}}
	if lost := tb.Report(le.ID, junk, false, t0, time.Minute); lost {
		t.Fatal("junk keys lost a live lease")
	}
	if s := tableStats(tb, t0); s.TrialsPending != 0 || s.TrialsLeased != 2 || s.TrialsDone != 0 || s.LeasesOutstanding != 1 {
		t.Fatalf("stats after junk keys = %+v, want the lease still outstanding", s)
	}
	select {
	case <-tb.Done():
		t.Fatal("junk keys completed the grid")
	default:
	}
}

func TestEmptyGridStartsDone(t *testing.T) {
	tb := NewTable(nil, nil, 4)
	select {
	case <-tb.Done():
	default:
		t.Fatal("empty grid not done")
	}
	tbHave := NewTable([]UnitGrid{{Rates: 2, Trials: 2}}, durableLinear(4, 0, 1, 2, 3), 3)
	select {
	case <-tbHave.Done():
	default:
		t.Fatal("fully durable grid not done")
	}
	if le := acquire(tbHave, "w1", t0, time.Minute); le != nil {
		t.Fatalf("fully durable grid leased %+v", le)
	}
}

// TestLeaseID: lease ids keep the l%06d form they had when formatted
// with fmt.
func TestLeaseID(t *testing.T) {
	for _, n := range []int{0, 1, 9, 10, 99, 999, 9999, 99999, 100000, 999999, 1000000, 12345678901} {
		if got, want := leaseID(n), fmt.Sprintf("l%06d", n); got != want {
			t.Errorf("leaseID(%d) = %q, want %q", n, got, want)
		}
	}
}

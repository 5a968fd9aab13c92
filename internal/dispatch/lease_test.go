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

// acquireAll leases until the table has nothing left, without reporting.
func acquireAll(tb *Table, worker string, now time.Time) []Shard {
	got := []Shard{}
	for le := tb.Acquire(worker, now, time.Minute); le != nil; le = tb.Acquire(worker, now, time.Minute) {
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
	// durable one, so it never carries a Skip list.
	tb = NewTable([]UnitGrid{{Rates: 1, Trials: 12}}, durableLinear(12, 0, 3, 4, 9, 10, 11), 8)
	want = []Shard{{Start: 1, Count: 2}, {Start: 5, Count: 4}}
	if got := acquireAll(tb, "w1", t0); !reflect.DeepEqual(got, want) {
		t.Fatalf("carves around durable indices = %+v, want %+v", got, want)
	}
}

func TestTableResumeSkipsDurable(t *testing.T) {
	// Trials 0..3 of unit 0 already durable: only [4,6) is leased, with
	// no skip.
	tb := NewTable([]UnitGrid{{Rates: 2, Trials: 3}}, durableLinear(6, 0, 1, 2, 3), 4)
	if s := tableStats(tb, t0); s.TrialsPending != 2 || s.TrialsDone != 4 {
		t.Fatalf("stats = %+v, want 2 pending, 4 done", s)
	}
	le := tb.Acquire("w1", t0, time.Minute)
	if le == nil || le.Shard.Start != 4 || le.Shard.Count != 2 || le.Shard.Skip != nil {
		t.Fatalf("lease = %+v, want fresh shard [4,6)", le)
	}
}

// TestTablePartialHaveYieldsSkip: Skip appears only on handed-back
// ranges, listing exactly the durable indices inside them, and
// handed-back ranges are re-leased lowest first, before fresh carving.
func TestTablePartialHaveYieldsSkip(t *testing.T) {
	tb := NewTable([]UnitGrid{{Rates: 4, Trials: 3}}, durableLinear(12, 1, 2), 6)
	a := tb.Acquire("w1", t0, time.Minute)
	b := tb.Acquire("w2", t0, time.Minute)
	if a == nil || !reflect.DeepEqual(a.Shard, Shard{Start: 0, Count: 1}) || b == nil || !reflect.DeepEqual(b.Shard, Shard{Start: 3, Count: 6}) {
		t.Fatalf("fresh leases = %+v, %+v; want [0,1) and [3,9), no skip", a, b)
	}
	// w2 delivers 4 and 7 and claims done; the range goes back.
	if lost := tb.Report(b.ID, keys(0, 3, 4, 7), true, t0, time.Minute); lost {
		t.Fatal("done report lost")
	}
	// w1's lease [0,1) expires too, after the handback: it is lower, so it
	// is re-leased first.
	late := t0.Add(2 * time.Minute)
	r0 := tb.Acquire("w3", late, time.Minute)
	if r0 == nil || r0.Shard.Start != 0 || r0.Shard.Count != 1 || r0.Shard.Skip != nil {
		t.Fatalf("first re-lease = %+v, want [0,1)", r0)
	}
	r1 := tb.Acquire("w3", late, time.Minute)
	if r1 == nil || r1.Shard.Start != 3 || r1.Shard.Count != 6 || !reflect.DeepEqual(r1.Shard.Skip, []int{4, 7}) {
		t.Fatalf("second re-lease = %+v, want [3,9) skip [4 7]", r1)
	}
	r2 := tb.Acquire("w3", late, time.Minute)
	if r2 == nil || r2.Shard.Start != 9 || r2.Shard.Skip != nil {
		t.Fatalf("third lease = %+v, want the fresh tail [9,12)", r2)
	}
}

func TestLeaseExpiryReassignmentOrdering(t *testing.T) {
	tb := NewTable([]UnitGrid{{Rates: 4, Trials: 2}}, nil, 2)
	ttl := time.Minute

	l0 := tb.Acquire("dead", t0, ttl) // [0,2)
	l1 := tb.Acquire("dead", t0, ttl) // [2,4)
	if l0 == nil || l1 == nil {
		t.Fatal("initial acquires failed")
	}
	// Worker "dead" reports part of its first lease, then goes silent.
	if lost := tb.Report(l0.ID, keys(0, 2, 0), false, t0.Add(10*time.Second), ttl); lost {
		t.Fatal("live lease reported lost")
	}

	// Before expiry another worker gets a fresh carve, not the leased
	// ranges.
	l2 := tb.Acquire("w2", t0.Add(30*time.Second), ttl)
	if l2 == nil || l2.Shard.Start != 4 {
		t.Fatalf("pre-expiry acquire = %+v, want shard [4,6)", l2)
	}

	// After both of dead's leases expire (l1 at t0+60s, the renewed l0 at
	// t0+70s) but while w2's own lease is still live (until t0+90s),
	// reassignment hands back the lowest range first — [0,2) with the
	// delivered trial in Skip, then [2,4) — before carving the tail.
	late := t0.Add(80 * time.Second)
	r0 := tb.Acquire("w2", late, ttl)
	if r0 == nil || r0.Shard.Start != 0 || !reflect.DeepEqual(r0.Shard.Skip, []int{0}) {
		t.Fatalf("first reassignment = %+v, want shard [0,2) skip [0]", r0)
	}
	r1 := tb.Acquire("w2", late, ttl)
	if r1 == nil || r1.Shard.Start != 2 || r1.Shard.Skip != nil {
		t.Fatalf("second reassignment = %+v, want shard [2,4) no skip", r1)
	}
	r2 := tb.Acquire("w2", late, ttl)
	if r2 == nil || r2.Shard.Start != 6 {
		t.Fatalf("third acquire = %+v, want tail shard [6,8)", r2)
	}
	// The stale worker's report now answers lost.
	if lost := tb.Report(l0.ID, nil, false, late, ttl); !lost {
		t.Error("expired lease report not lost")
	}
}

// finish reports every non-skipped trial of a lease with done at now.
func finish(t *testing.T, tb *Table, le *Lease, trials int, now time.Time) {
	t.Helper()
	skip := map[int]bool{}
	for _, i := range le.Shard.Skip {
		skip[i] = true
	}
	var ks []TrialResult
	for i := le.Shard.Start; i < le.Shard.Start+le.Shard.Count; i++ {
		if !skip[i] {
			ks = append(ks, TrialResult{Unit: le.Shard.Unit, RateIdx: i / trials, TrialIdx: i % trials})
		}
	}
	if lost := tb.Report(le.ID, ks, true, now, time.Minute); lost {
		t.Fatalf("finishing report on %s lost", le.ID)
	}
}

func TestLeaseSizeFollowsMeasuredRate(t *testing.T) {
	const trials = 25_000
	tb := NewTable([]UnitGrid{{Rates: 4, Trials: trials}}, nil, 16)

	// First leases are the floor for every worker.
	fast := tb.Acquire("fast", t0, time.Minute)
	slow := tb.Acquire("slow", t0, time.Minute)
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
	if le := tb.Acquire("fast", now, time.Minute); le.Shard.Count != MaxReport {
		t.Errorf("fast worker's second lease = %d trials, want MaxReport (%d)", le.Shard.Count, MaxReport)
	}
	if le := tb.Acquire("slow", now, time.Minute); le.Shard.Count != 16 {
		t.Errorf("slow worker's second lease = %d trials, want the floor 16", le.Shard.Count)
	}
	// A worker new to the campaign starts at the floor again.
	if le := tb.Acquire("new", now, time.Minute); le.Shard.Count != 16 {
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
	first := tb.Acquire("fast", t0, time.Minute)
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
	le := tb.Acquire("slow", late, time.Minute)
	if le == nil || !reflect.DeepEqual(le.Shard, Shard{Start: 16, Count: 16}) {
		t.Fatalf("re-lease by a floor-sized worker = %+v, want [16,32)", le)
	}
	if le := tb.Acquire("slow", late, time.Minute); le == nil || !reflect.DeepEqual(le.Shard, Shard{Start: 32, Count: 16}) {
		t.Fatalf("next re-lease = %+v, want [32,48)", le)
	}
}

func TestHeartbeatRenewsLease(t *testing.T) {
	tb := NewTable([]UnitGrid{{Rates: 1, Trials: 2}}, nil, 2)
	ttl := time.Minute
	le := tb.Acquire("w1", t0, ttl)
	// Empty report at t0+50s pushes expiry to t0+110s.
	if lost := tb.Report(le.ID, nil, false, t0.Add(50*time.Second), ttl); lost {
		t.Fatal("heartbeat lost a live lease")
	}
	if other := tb.Acquire("w2", t0.Add(90*time.Second), ttl); other != nil {
		t.Fatalf("renewed lease was reassigned: %+v", other)
	}
	if other := tb.Acquire("w2", t0.Add(3*time.Minute), ttl); other == nil {
		t.Fatal("lease never expired after heartbeats stopped")
	}
}

func TestReportDoneIncompleteRequeues(t *testing.T) {
	tb := NewTable([]UnitGrid{{Rates: 1, Trials: 4}}, nil, 4)
	le := tb.Acquire("w1", t0, time.Minute)
	// Worker claims done but delivered only half the lease: the claim is
	// not trusted, the range is handed back with the durable half in Skip.
	if lost := tb.Report(le.ID, keys(0, 4, 0, 1), true, t0, time.Minute); lost {
		t.Fatal("done report lost")
	}
	select {
	case <-tb.Done():
		t.Fatal("table done with half the grid missing")
	default:
	}
	re := tb.Acquire("w2", t0, time.Minute)
	if re == nil || !reflect.DeepEqual(re.Shard.Skip, []int{0, 1}) {
		t.Fatalf("requeued lease = %+v, want skip [0 1]", re)
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
	l1 := tb.Acquire("w1", t0, ttl)
	// w1 goes silent; the range is reassigned to w2 — then w1's full
	// report arrives late, on the expired lease. The results are durable
	// either way, so they complete the range out from under w2, and both
	// workers are told to move on.
	late := t0.Add(2 * time.Minute)
	l2 := tb.Acquire("w2", late, ttl)
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
	le := tb.Acquire("w1", t0, time.Minute)
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
	if le := tbHave.Acquire("w1", t0, time.Minute); le != nil {
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

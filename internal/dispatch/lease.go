package dispatch

import (
	"cmp"
	"fmt"
	"math"
	"math/bits"
	"slices"
	"strconv"
	"sync"
	"time"
)

// MaxReport caps the results one report carries, and so the size of any
// lease: 4,096 results is ~400 KB of JSON, far inside the coordinator's
// 8 MiB request-body cap. Workers flush once more than this many are
// pending.
const MaxReport = 4096

// leaseSlice is the wall time a lease targets once the asking worker has
// shown its rate (never more than a third of the lease TTL). It is long
// enough that lease and report round trips amortize over thousands of
// short trials, and short enough that one worker holding the last lease
// of a campaign of slow trials leaves the rest of the fleet idle for at
// most that long.
const leaseSlice = 100 * time.Millisecond

// span is a contiguous range [start, start+count) of one unit's
// linearized grid.
type span struct{ unit, start, count int }

func (s span) contains(unit, i int) bool {
	return unit == s.unit && i >= s.start && i < s.start+s.count
}

// leaseEntry is one outstanding lease.
type leaseEntry struct {
	span
	id, worker string
	issued     time.Time
	expiry     time.Time
	missing    int // indices in the span not yet durable
	delivered  int // in-grid trial keys reported on this lease
}

// Lease is one issued shard lease.
type Lease struct {
	ID    string
	Shard Shard
}

// Table is the lease table of one campaign. Work is carved lazily, when
// a lease is granted: every index of the grid is durable, covered by an
// outstanding lease, in a range handed back by an expired or incomplete
// lease, or at or past its unit's carve cursor. It is rebuilt from the
// durable store's bitsets on every coordinator boot, which is what lets
// leases survive coordinator restarts without their own persistence.
type Table struct {
	mu    sync.Mutex
	units []UnitGrid
	floor int // first lease of each worker, and the least of any lease
	// durable is one bitset per unit over its linearized indices: bit i
	// of word i>>6, with (size+63)/64 words and no bit past the size.
	durable [][]uint64
	// cursor[u] is the first index of unit u never carved; carving runs
	// unit by unit, and unit is the first whose cursor is not at its end.
	cursor []int
	unit   int
	// returned holds ranges handed back by expired or incomplete leases,
	// sorted front of grid first; they are re-leased before new carving.
	returned []span
	leases   map[string]*leaseEntry
	// rates is each worker's trials per second over its last finished
	// lease in this campaign.
	rates     map[string]float64
	nextLease int
	total     int // grid size
	nDurable  int
	nLeased   int // non-durable indices under outstanding leases
	done      chan struct{}
	// events, if set, receives lease lifecycle trace events labeled with
	// campaign. Purely diagnostic: the table's behavior is identical with
	// or without a sink.
	events   EventSink
	campaign string
}

// SetEvents attaches a trace-event sink; events are labeled with the
// given campaign id. Call before the table is shared.
func (t *Table) SetEvents(sink EventSink, campaign string) {
	t.events = sink
	t.campaign = campaign
}

// leaseID is fmt.Sprintf("l%06d", n) for n >= 0, in one allocation.
func leaseID(n int) string {
	var buf [24]byte
	b := append(buf[:0], 'l')
	for w := 100000; w > 1 && n < w; w /= 10 {
		b = append(b, '0')
	}
	return string(strconv.AppendInt(b, int64(n), 10))
}

// emit forwards one trace event to the sink, if any.
func (t *Table) emit(kind, detail string) {
	if t.events != nil {
		t.events.Emit(kind, t.campaign, detail)
	}
}

// NewTable builds the lease table of a grid. durable[u], if non-nil, is
// unit u's set of trials already durable, in the layout of the table's
// own, so a resumed campaign only dispatches the remainder; the table
// adopts it. floor is the size of each worker's first lease and the
// least of every later one (0 = 16, at most MaxReport).
func NewTable(units []UnitGrid, durable [][]uint64, floor int) *Table {
	if floor <= 0 {
		floor = 16
	}
	t := &Table{
		units:   units,
		floor:   min(floor, MaxReport),
		durable: make([][]uint64, len(units)),
		cursor:  make([]int, len(units)),
		leases:  make(map[string]*leaseEntry),
		rates:   make(map[string]float64),
		done:    make(chan struct{}),
	}
	for u, g := range units {
		size := g.size()
		t.total += size
		if u < len(durable) && durable[u] != nil {
			t.durable[u] = durable[u]
		} else {
			t.durable[u] = make([]uint64, (size+63)/64)
		}
		for _, w := range t.durable[u] {
			t.nDurable += bits.OnesCount64(w)
		}
	}
	if t.nDurable == t.total {
		close(t.done)
	}
	return t
}

// Done is closed once every trial in the grid is durable.
func (t *Table) Done() <-chan struct{} { return t.done }

// Acquire leases work to worker until now+ttl: the lowest handed-back
// range first (so reassignment is deterministic and front-of-grid
// first), else a fresh run of non-durable indices carved at the cursor,
// which ends at the first durable index. The lease holds up to
// leaseSizeLocked trials. It returns nil when nothing is left to lease.
func (t *Table) Acquire(worker string, now time.Time, ttl time.Duration) *Lease {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.expireLocked(now)
	n := t.leaseSizeLocked(worker, ttl)
	s, skip, ok := t.takeReturnedLocked(n)
	if !ok {
		if s, ok = t.carveLocked(n); !ok {
			return nil
		}
	}
	t.nextLease++
	e := &leaseEntry{
		span: s, id: leaseID(t.nextLease), worker: worker,
		issued: now, expiry: now.Add(ttl), missing: s.count - len(skip),
	}
	t.leases[e.id] = e
	t.nLeased += e.missing
	if t.events != nil { // every lease passes here: format only for a sink
		var buf [128]byte
		b := append(append(append(buf[:0], e.id...), " worker="...), worker...)
		b = strconv.AppendInt(append(b, " unit="...), int64(s.unit), 10)
		b = strconv.AppendInt(append(b, " start="...), int64(s.start), 10)
		b = strconv.AppendInt(append(b, " count="...), int64(s.count), 10)
		t.emit("lease.acquired", string(b))
	}
	return &Lease{ID: e.id, Shard: Shard{Unit: s.unit, Start: s.start, Count: s.count, Skip: skip}}
}

// leaseSizeLocked is the number of trials to grant worker: the floor
// until it has finished a lease in this campaign, then its measured rate
// times the lease slice, clamped to [floor, MaxReport].
func (t *Table) leaseSizeLocked(worker string, ttl time.Duration) int {
	rate, ok := t.rates[worker]
	if !ok {
		return t.floor
	}
	want := rate * min(leaseSlice, ttl/3).Seconds()
	return int(max(float64(t.floor), min(want, MaxReport)))
}

// takeReturnedLocked re-leases up to n indices from the front of the
// lowest handed-back range, with skip listing the durable indices inside
// it. Ranges that have become wholly durable are dropped.
func (t *Table) takeReturnedLocked(n int) (span, []int, bool) {
	for len(t.returned) > 0 {
		s := t.returned[0]
		if s.count > n {
			t.returned[0] = span{s.unit, s.start + n, s.count - n}
			s.count = n
		} else {
			t.returned = t.returned[1:]
		}
		if skip := t.skipLocked(s); len(skip) < s.count {
			return s, skip, true
		}
	}
	return span{}, nil, false
}

// carveLocked cuts a fresh lease of up to n indices at the carve cursor:
// it passes over durable indices, then takes non-durable ones up to the
// next durable index, so a fresh lease never needs a Skip list.
func (t *Table) carveLocked(n int) (span, bool) {
	for ; t.unit < len(t.units); t.unit++ {
		u, size := t.unit, t.units[t.unit].size()
		start := t.find(u, t.cursor[u], size, false)
		if start == size {
			t.cursor[u] = size
			continue
		}
		end := t.find(u, start, min(start+n, size), true)
		t.cursor[u] = end
		return span{u, start, end - start}, true
	}
	return span{}, false
}

// find returns the first index in [from, to) of unit u whose durable bit
// equals want, or to when there is none. It scans a word at a time.
func (t *Table) find(u, from, to int, want bool) int {
	words := t.durable[u]
	for i := from; i < to; i = (i | 63) + 1 {
		w := words[i>>6]
		if !want {
			w = ^w
		}
		if w >>= i & 63; w != 0 {
			return min(i+bits.TrailingZeros64(w), to)
		}
	}
	return to
}

func (t *Table) isDurable(u, i int) bool { return t.durable[u][i>>6]&(1<<(i&63)) != 0 }

// skipLocked lists the durable indices inside s, ascending, so a
// re-leased range re-executes only what earlier leases did not deliver.
func (t *Table) skipLocked(s span) []int {
	var skip []int
	for i := t.find(s.unit, s.start, s.start+s.count, true); i < s.start+s.count; i = t.find(s.unit, i+1, s.start+s.count, true) {
		skip = append(skip, i)
	}
	return skip
}

// Report folds the keys of a batch of durable results into the table and
// advances the lease: a report that leaves trials missing renews the
// expiry (an empty one is a pure heartbeat); a report that completes the
// lease, or carries done, ends it and records the worker's rate over the
// lease.
// A done lease with trials still missing — dropped by verification, or
// skipped — hands its range back: the worker's claim is checked against
// the durable record, never trusted. The returned lost tells the
// reporting worker to abandon the shard: its lease has expired, been
// reassigned, or its range is already complete. The results must
// already be durable (sunk to the store) when Report is called;
// out-of-grid keys are ignored.
func (t *Table) Report(leaseID string, results []TrialResult, done bool, now time.Time, ttl time.Duration) (lost bool) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.expireLocked(now)
	e, ok := t.leases[leaseID]
	delivered := t.markDurableLocked(results, e)
	if !ok {
		return true
	}
	e.delivered += delivered
	if e.missing > 0 && !done {
		e.expiry = now.Add(ttl)
		return false
	}
	rate := math.Inf(1)
	if d := now.Sub(e.issued); d > 0 {
		rate = float64(e.delivered) / d.Seconds()
	}
	t.rates[e.worker] = rate
	if e.missing > 0 {
		t.handBackLocked(e)
		t.emit("shard.requeued", fmt.Sprintf("%s unit=%d start=%d missing=%d", e.id, e.unit, e.start, e.missing))
	}
	return false
}

// markDurableLocked sets the durable bits of in-grid keys and returns how
// many keys were in the grid. Reports are the only entry point —
// including reports on stale (expired/reassigned) leases, whose results
// still count: the store dedups and the values are deterministic, so
// durable is durable no matter which lease delivered it. A lease whose
// last missing index becomes durable is complete and leaves the table.
// owner, if not nil, is the reporting lease, which holds nearly every
// key it reports.
func (t *Table) markDurableLocked(results []TrialResult, owner *leaseEntry) int {
	in, fresh := 0, 0
	for i := range results {
		k := results[i].Key()
		if k.Unit < 0 || k.Unit >= len(t.units) {
			continue
		}
		g := t.units[k.Unit]
		if k.RateIdx < 0 || k.RateIdx >= g.Rates || k.TrialIdx < 0 || k.TrialIdx >= g.Trials {
			continue
		}
		in++
		i := k.RateIdx*g.Trials + k.TrialIdx
		if t.isDurable(k.Unit, i) {
			continue
		}
		t.durable[k.Unit][i>>6] |= 1 << (i & 63)
		t.nDurable++
		fresh++
		e := owner
		if e == nil || !e.contains(k.Unit, i) {
			e = t.holderLocked(k.Unit, i)
		}
		if e != nil {
			e.missing--
			t.nLeased--
			if e.missing == 0 {
				delete(t.leases, e.id)
			}
		}
	}
	if fresh > 0 && t.nDurable == t.total {
		close(t.done)
	}
	return in
}

// holderLocked returns the outstanding lease whose range holds index i
// of unit u, or nil. Leases are few, one or two per worker.
func (t *Table) holderLocked(u, i int) *leaseEntry {
	for _, e := range t.leases {
		if e.contains(u, i) {
			return e
		}
	}
	return nil
}

// handBackLocked ends a lease whose range still has missing indices and
// queues the range for re-leasing, keeping returned sorted front of grid
// first.
func (t *Table) handBackLocked(e *leaseEntry) {
	delete(t.leases, e.id)
	t.nLeased -= e.missing
	i, _ := slices.BinarySearchFunc(t.returned, e.span, func(a, b span) int {
		return cmp.Or(cmp.Compare(a.unit, b.unit), cmp.Compare(a.start, b.start))
	})
	t.returned = slices.Insert(t.returned, i, e.span)
}

// expireLocked reclaims leases that ran out of heartbeat: the worker
// died or wedged, so the lease's range is handed back for reassignment.
func (t *Table) expireLocked(now time.Time) {
	for _, e := range t.leases {
		if e.expiry.Before(now) {
			t.handBackLocked(e)
			t.emit("lease.expired", fmt.Sprintf("%s worker=%s unit=%d start=%d", e.id, e.worker, e.unit, e.start))
		}
	}
}

// addStats adds the table's trials by state, its outstanding leases and
// their oldest age to s, after reclaiming leases expired at now. Expired
// leases are reclaimed first, so a wedged worker shows up as pending
// trials, not as an ever-growing lease age.
func (t *Table) addStats(s *Stats, now time.Time) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.expireLocked(now)
	s.TrialsPending += t.total - t.nDurable - t.nLeased
	s.TrialsLeased += t.nLeased
	s.TrialsDone += t.nDurable
	s.LeasesOutstanding += len(t.leases)
	for _, e := range t.leases {
		s.OldestLeaseAgeSeconds = max(s.OldestLeaseAgeSeconds, now.Sub(e.issued).Seconds())
	}
}

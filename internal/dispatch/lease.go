package dispatch

import (
	"fmt"
	"sync"
	"time"
)

type shardState int

const (
	shardPending shardState = iota
	shardLeased
	shardDone
)

// shardEntry is one shard's live bookkeeping. remaining holds the linear
// indices not yet durable; a shard is done exactly when remaining
// empties, regardless of which lease (or how many, across expiries)
// delivered the trials.
type shardEntry struct {
	unit, start, count int
	state              shardState
	lease              string
	worker             string
	issued             time.Time // when the current lease was acquired
	expiry             time.Time
	remaining          map[int]struct{}
}

// Lease is one issued shard lease.
type Lease struct {
	ID    string
	Shard Shard
}

// Table is the lease table of one campaign: the grid carved into shards,
// each pending, leased (with expiry), or done. It is rebuilt from the
// durable store on every coordinator boot — `have` marks trials already
// recorded — which is what lets leases survive coordinator restarts
// without their own persistence.
type Table struct {
	mu        sync.Mutex
	units     []UnitGrid
	shardSize int
	// unitBase[i] is the index of unit i's first shard in shards, so a
	// trial key maps to its shard in O(1).
	unitBase  []int
	shards    []*shardEntry
	leases    map[string]*shardEntry
	nextLease int
	doneCount int
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

// emit forwards one trace event to the sink, if any.
func (t *Table) emit(kind, detail string) {
	if t.events != nil {
		t.events.Emit(kind, t.campaign, detail)
	}
}

// NewTable carves the grid into shards of shardSize trials, marking
// trials for which have returns true as already durable. Shards whose
// every trial is durable start done, so a resumed campaign only
// dispatches the remainder.
func NewTable(units []UnitGrid, have func(Key) bool, shardSize int) *Table {
	if shardSize <= 0 {
		shardSize = 16
	}
	t := &Table{
		units:     units,
		shardSize: shardSize,
		leases:    make(map[string]*shardEntry),
		done:      make(chan struct{}),
	}
	for u, g := range units {
		t.unitBase = append(t.unitBase, len(t.shards))
		trials, size := g.Trials, g.size()
		for start := 0; start < size; start += shardSize {
			count := min(shardSize, size-start)
			e := &shardEntry{unit: u, start: start, count: count, remaining: make(map[int]struct{}, count)}
			for i := start; i < start+count; i++ {
				if have == nil || !have(Key{Unit: u, RateIdx: i / trials, TrialIdx: i % trials}) {
					e.remaining[i] = struct{}{}
				}
			}
			if len(e.remaining) == 0 {
				e.state = shardDone
				t.doneCount++
			}
			t.shards = append(t.shards, e)
		}
	}
	if t.doneCount == len(t.shards) {
		close(t.done)
	}
	return t
}

// Done is closed once every trial in the grid is durable.
func (t *Table) Done() <-chan struct{} { return t.done }

// Acquire leases the first pending shard (lowest shard index — expired
// shards re-enter at their original position, so reassignment is
// deterministic and front-of-grid first) to worker until now+ttl. It
// returns nil when nothing is pending.
func (t *Table) Acquire(worker string, now time.Time, ttl time.Duration) *Lease {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.expireLocked(now)
	for _, e := range t.shards {
		if e.state != shardPending {
			continue
		}
		t.nextLease++
		id := fmt.Sprintf("l%06d", t.nextLease)
		e.state = shardLeased
		e.lease, e.worker, e.expiry = id, worker, now.Add(ttl)
		e.issued = now
		t.leases[id] = e
		t.emit("lease.acquired", fmt.Sprintf("%s worker=%s unit=%d start=%d count=%d", id, worker, e.unit, e.start, e.count))
		return &Lease{ID: id, Shard: Shard{Unit: e.unit, Start: e.start, Count: e.count, Skip: e.skipLocked()}}
	}
	return nil
}

// skipLocked lists the already-durable indices inside the shard's range
// (ascending by construction), so a reassigned shard re-executes only
// what its previous lease(s) did not deliver.
func (e *shardEntry) skipLocked() []int {
	var skip []int
	for i := e.start; i < e.start+e.count; i++ {
		if _, missing := e.remaining[i]; !missing {
			skip = append(skip, i)
		}
	}
	return skip
}

// Report folds a batch of durable trial keys into the table and advances
// the lease: an empty batch is a heartbeat (renews the expiry), done
// releases the lease (back to pending if trials are still missing — the
// worker's claim is checked against the durable record, never trusted).
// The returned lost tells the reporting worker to abandon the shard: its
// lease has expired, been reassigned, or the shard is already complete.
// Keys must already be durable (sunk to the store) when Report is
// called; out-of-grid keys are ignored.
func (t *Table) Report(leaseID string, keys []Key, done bool, now time.Time, ttl time.Duration) (lost bool) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.expireLocked(now)
	e, ok := t.leases[leaseID]
	t.markDurableLocked(keys)
	if !ok {
		return true
	}
	if e.state == shardDone {
		return false // this very report finished the shard — nothing was lost
	}
	if done {
		// The worker claims the shard is finished but trials are still
		// missing (dropped by verification, or skipped): re-expose it.
		delete(t.leases, leaseID)
		e.lease, e.worker = "", ""
		e.state = shardPending
		t.emit("shard.requeued", fmt.Sprintf("%s unit=%d start=%d missing=%d", leaseID, e.unit, e.start, len(e.remaining)))
		return false
	}
	e.expiry = now.Add(ttl)
	return false
}

// markDurableLocked folds durable trial keys into their shards' residual
// sets. Reports are the only entry point — including reports on stale
// (expired/reassigned) leases, whose results are still merged: the store
// dedups and the values are deterministic, so durable is durable no
// matter which lease delivered it.
func (t *Table) markDurableLocked(keys []Key) {
	for _, k := range keys {
		if k.Unit < 0 || k.Unit >= len(t.units) {
			continue
		}
		g := t.units[k.Unit]
		if k.RateIdx < 0 || k.RateIdx >= g.Rates || k.TrialIdx < 0 || k.TrialIdx >= g.Trials {
			continue
		}
		linear := k.RateIdx*g.Trials + k.TrialIdx
		e := t.shards[t.unitBase[k.Unit]+linear/t.shardSize]
		delete(e.remaining, linear)
		if e.state != shardDone && len(e.remaining) == 0 {
			if e.lease != "" {
				delete(t.leases, e.lease)
				e.lease, e.worker = "", ""
			}
			e.state = shardDone
			t.doneCount++
			if t.doneCount == len(t.shards) {
				close(t.done)
			}
		}
	}
}

// expireLocked reclaims shards whose lease ran out of heartbeat: the
// worker died or wedged, so the shard returns to the pending pool for
// reassignment.
func (t *Table) expireLocked(now time.Time) {
	for id, e := range t.leases {
		if e.expiry.Before(now) {
			delete(t.leases, id)
			e.state = shardPending
			worker := e.worker
			e.lease, e.worker = "", ""
			t.emit("lease.expired", fmt.Sprintf("%s worker=%s unit=%d start=%d", id, worker, e.unit, e.start))
		}
	}
}

// OldestLeaseAge reports how long the longest-outstanding lease has been
// held as of now (0 when no leases are outstanding). Expired leases are
// reclaimed first, so a wedged worker shows up as requeued shards, not as
// an ever-growing age.
func (t *Table) OldestLeaseAge(now time.Time) time.Duration {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.expireLocked(now)
	var oldest time.Duration
	for _, e := range t.leases {
		if age := now.Sub(e.issued); age > oldest {
			oldest = age
		}
	}
	return oldest
}

// Counts reports the table's shard states after reclaiming expired
// leases at now.
func (t *Table) Counts(now time.Time) (pending, leased, done int) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.expireLocked(now)
	for _, e := range t.shards {
		switch e.state {
		case shardPending:
			pending++
		case shardLeased:
			leased++
		case shardDone:
			done++
		}
	}
	return pending, leased, done
}

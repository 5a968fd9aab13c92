package dispatch

import (
	"context"
	"runtime"
	"runtime/debug"
	"sync/atomic"
	"testing"
	"time"
)

// countSource grants n leases, numbered from 1, and checks Consume's
// contract as it goes: a slot is never acquired or run while it is
// being delivered, at most one delivery is outstanding, and every lease
// is delivered once, in order. With overlap set, lease k's delivery
// waits until lease k+1 has started running (or the grid has ended).
type countSource struct {
	t       *testing.T
	n       int
	overlap bool
	next    int            // leases granted; only the loop touches it
	lease   [2]int         // lease in each slot
	busy    [2]atomic.Bool // slot being delivered
	active  atomic.Int32   // deliveries running
	last    atomic.Int64   // last lease delivered
	running [2]chan int    // lease k's Run start, for lease k-1's delivery
}

func newCountSource(t *testing.T, n int, overlap bool) *countSource {
	return &countSource{t: t, n: n, overlap: overlap, running: [2]chan int{make(chan int, 1), make(chan int, 1)}}
}

func (c *countSource) Acquire(_ context.Context, s int) bool {
	if c.busy[s].Load() {
		c.t.Errorf("slot %d acquired while it is delivered", s)
	}
	if c.next == c.n {
		return false
	}
	c.next++
	c.lease[s] = c.next
	return true
}

func (c *countSource) Run(_ context.Context, s int) error {
	if c.busy[s].Load() {
		c.t.Errorf("slot %d run while it is delivered", s)
	}
	if c.overlap && c.lease[s] > 1 {
		select {
		case c.running[s^1] <- c.lease[s]:
		default: // the delivery stopped waiting: the test has failed
		}
	}
	return nil
}

func (c *countSource) Deliver(_ context.Context, s int) error {
	c.busy[s].Store(true)
	defer c.busy[s].Store(false)
	if c.active.Add(1) > 1 {
		c.t.Error("two deliveries outstanding")
	}
	defer c.active.Add(-1)
	k := c.lease[s]
	if c.overlap && k < c.n && !c.t.Failed() {
		select {
		case next := <-c.running[s]:
			if next != k+1 {
				c.t.Errorf("lease %d's delivery overlapped lease %d, want %d", k, next, k+1)
			}
		case <-time.After(5 * time.Second):
			c.t.Errorf("lease %d's delivery never overlapped lease %d's run", k, k+1)
		}
	}
	if prev := c.last.Swap(int64(k)); prev != int64(k-1) {
		c.t.Errorf("lease %d delivered after lease %d", k, prev)
	}
	return nil
}

// TestConsumeOverlapsDelivery: lease k is delivered while lease k+1
// runs, one delivery at a time, in order, on the other slot.
func TestConsumeOverlapsDelivery(t *testing.T) {
	src := newCountSource(t, 50, true)
	if err := Consume(context.Background(), src); err != nil {
		t.Fatalf("Consume = %v, want nil once every lease is delivered", err)
	}
	if got := src.last.Load(); got != 50 {
		t.Errorf("last lease delivered %d, want 50", got)
	}
}

// TestConsumeAllocs: a lease costs Consume no allocation; its goroutine
// and channels are made once per call. On one processor an exited
// goroutine is always reused, so the count is exact.
func TestConsumeAllocs(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	mallocs := func(leases int) uint64 {
		src := newCountSource(t, leases, false)
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		err := Consume(context.Background(), src)
		runtime.ReadMemStats(&after)
		if err != nil {
			t.Fatal(err)
		}
		return after.Mallocs - before.Mallocs
	}
	mallocs(10)
	if few, many := mallocs(10), mallocs(1000); few != many {
		t.Errorf("Consume of 10 leases: %d allocations, of 1,000: %d; want no allocation per lease", few, many)
	}
}

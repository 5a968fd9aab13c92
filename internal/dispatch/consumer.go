package dispatch

import "context"

// A Source is the lease stream a Consume loop drives: an in-process
// campaign's lease table and store, or a fleet worker's coordinator. It
// holds two slots, 0 and 1, each with room for one lease and the results
// that lease collects. Consume calls Acquire and Run on its own goroutine
// and Deliver on its delivery goroutine, never for the same slot at once:
// while slot s is delivered, the other slot is acquired and run.
type Source interface {
	// Acquire leases the next shard into slot s. It reports false when
	// there is nothing to lease (a remote source waits for work instead,
	// until ctx ends).
	Acquire(ctx context.Context, s int) bool
	// Run runs slot s's lease, collecting its results in the slot. On
	// return no trial of the lease adds to the slot any more. An error
	// ends the loop once the slot is delivered.
	Run(ctx context.Context, s int) error
	// Deliver hands on the results slot s collected, also when Run was
	// cut short. An error ends the loop.
	Deliver(ctx context.Context, s int) error
}

// Consume runs src's leases until it has none left, ctx ends, or a run
// or a delivery fails. Lease k is delivered while lease k+1 is acquired
// and run, with at most one delivery outstanding: before it hands lease
// k+1 on, Consume waits for lease k's delivery. A lease whose delivery
// fails ends the loop, and the one running then is not delivered, so a
// failure loses at most two leases. When ctx ends, the running lease
// stops early and, like the one being delivered, is still delivered.
// Consume returns once its delivery goroutine has exited: the first
// delivery error, else Run's error, else ctx.Err(). The goroutine and
// its channels are made once per call, so a lease allocates nothing
// here.
func Consume(ctx context.Context, src Source) error {
	handoff, delivered := make(chan int), make(chan error)
	go func() {
		defer close(delivered)
		for s := range handoff {
			delivered <- src.Deliver(ctx, s)
		}
	}()
	var err error
	s, busy := 0, false
	for err == nil && ctx.Err() == nil {
		if !src.Acquire(ctx, s) {
			if !busy {
				break
			}
			// The delivery outstanding may hand trials back to lease.
			busy, err = false, <-delivered
			continue
		}
		runErr := src.Run(ctx, s)
		if busy {
			if err = <-delivered; err != nil {
				break
			}
		}
		handoff <- s
		busy, err, s = true, runErr, s^1
	}
	close(handoff)
	for derr := range delivered {
		if derr != nil {
			err = derr
		}
	}
	if err == nil {
		err = ctx.Err()
	}
	return err
}

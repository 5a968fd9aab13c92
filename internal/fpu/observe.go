package fpu

// Observer is an optional, passive tap on a Unit's fault-injection path.
//
// The contract is strict because every per-seed result in the repository is
// pinned bit-for-bit: an Observer is invoked only AFTER the unit has
// committed a corrupted result, consumes no randomness, must not touch the
// value, and must not panic. Attaching or detaching an observer therefore
// cannot change any arithmetic outcome, FLOP count, or fault schedule —
// only record what happened. The observability layer (internal/obs)
// provides the standard implementation; the indirection through this
// interface keeps fpu dependency-free.
//
// Observers are called on the goroutine running the Unit. Units are not
// safe for concurrent use, so neither is the attached observer required
// to be.
type Observer interface {
	// FaultInjected reports one corrupted FPU result. op is the operation
	// class, flop the 1-based ordinal of the operation within the unit's
	// FLOP stream (identical between scalar and batched kernels), and
	// flipped the XOR of the raw and corrupted IEEE-754 bit patterns —
	// i.e. a mask of the flipped bits.
	FaultInjected(op Op, flop uint64, flipped uint64)

	// CompareFault reports one inverted comparison (Less). Compare faults
	// corrupt condition flags, not value bits, so there is no flip mask.
	CompareFault(flop uint64)

	// MemoryFaults reports one memory-resident strike pass over a stored
	// vector of the given length, and how many words it corrupted. Called
	// only for models implementing MemoryFaulter.
	MemoryFaults(words int, faults uint64)

	// IterationMark reports one solver iteration boundary (solvers expose
	// persistent state to memory-fault models once per iteration, which
	// doubles as an iteration heartbeat for fault-placement bucketing).
	IterationMark()
}

// SetObserver attaches (or, with nil, detaches) a fault observer after
// construction. The observer is purely passive — see Observer — so this is
// safe at any point between kernel calls.
func (u *Unit) SetObserver(o Observer) {
	if u != nil {
		u.obs = o
	}
}

// Observer returns the attached fault observer, or nil.
func (u *Unit) Observer() Observer {
	if u == nil {
		return nil
	}
	return u.obs
}

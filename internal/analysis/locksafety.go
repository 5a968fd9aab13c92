package analysis

import (
	"go/token"
)

// LockSafety hunts the PR-9 deadlock class: doing something that can
// block — forever — while holding a mutex. The single-function analyzers
// could never see it, because the blocking operation hides behind one or
// more call frames (tune.Manager.Resume held m.mu and called emit, and
// emit re-locked m.mu two frames down).
//
// For every call made while a sync.Mutex/RWMutex is held, the analyzer
// BFS-walks the call-graph facts (interface calls expanded to every
// loaded implementation by name+signature) and reports when a transitive
// callee:
//
//   - (re)acquires the same lock — identified by owner type and field
//     path, so any instance of the type triggers it (a self-deadlock is
//     instance-blind anyway);
//   - or performs a channel send not guarded by a select-with-default —
//     a rendezvous that can park the goroutine indefinitely while every
//     other user of the lock piles up behind it. Direct sends under a
//     held lock are reported too.
//
// Cross-instance locking of the same type (rare, deliberate) and sends
// on buffered channels that provably never fill are exempted with
// //lint:locksafety-exempt <reason>.
var LockSafety = &Analyzer{
	Name:      "locksafety",
	Directive: "locksafety-exempt",
	Doc:       "no call that can reacquire the held mutex or block on a channel send",
	Run:       runLockSafety,
}

func runLockSafety(pass *Pass) {
	if pass.Facts == nil {
		return
	}
	for _, fn := range pass.Facts.PkgFuncs(pass.pkg) {
		// Direct sends with a lock held.
		for _, s := range fn.SendsHeld {
			pass.Report(s.pos, "channel send while holding %s can block with the lock held (hand the value off outside the critical section, or //lint:locksafety-exempt <reason>)",
				lockShort(s.held[len(s.held)-1].id))
		}
		for _, c := range fn.Calls {
			if c.async || len(c.held) == 0 {
				continue
			}
			checkHeldCall(pass, fn, c)
		}
	}
}

// checkHeldCall reports if the call site c (made with locks held) can
// reach a reacquisition of a held lock or a blocking send.
func checkHeldCall(pass *Pass, fn *FuncFacts, c callSite) {
	held := make(map[string]token.Pos, len(c.held))
	for _, h := range c.held {
		held[h.id] = h.pos
	}
	var deadPos token.Pos
	var deadLock string
	hit := pass.Facts.Reach(c, func(callee *FuncFacts) bool {
		for id := range callee.Acquires {
			if _, ok := held[id]; ok {
				deadLock, deadPos = id, callee.Acquires[id]
				return true
			}
		}
		return false
	})
	if hit != nil {
		pass.Report(c.pos, "call to %s while holding %s deadlocks: %s reacquires it at %s (via %s) — release the lock first, or //lint:locksafety-exempt <reason>",
			hit.pathRoot().Name, lockShort(deadLock), hit.fn.Name,
			pass.Fset.Position(deadPos), hit.path())
		return
	}
	// No reacquire; can the callee park on a channel send?
	hit = pass.Facts.Reach(c, func(callee *FuncFacts) bool {
		return callee.BlockingSend != 0
	})
	if hit != nil {
		pass.Report(c.pos, "call to %s while holding %s can block on a channel send in %s at %s (via %s) — move the send outside the critical section, or //lint:locksafety-exempt <reason>",
			hit.pathRoot().Name, lockShort(c.held[len(c.held)-1].id), hit.fn.Name,
			pass.Fset.Position(hit.fn.BlockingSend), hit.path())
	}
}

// pathRoot returns the first frame of the reach chain (the direct
// callee at the reported call site).
func (r *reachStep) pathRoot() *FuncFacts {
	s := r
	for s.via != nil {
		s = s.via
	}
	return s.fn
}

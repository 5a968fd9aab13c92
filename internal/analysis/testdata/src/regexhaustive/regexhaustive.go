// Package regexhaustive is the registry-exhaustiveness fixture. Phase is
// an auto-registered named-type family; the job states are an untyped
// string group registered by //lint:enum markers across two const
// blocks (the merge the tune package needs). Any switch, map literal, or
// slice literal that mentions a member must mention them all — a default
// arm does not excuse, because the default is where an unplumbed new
// member hides.
package regexhaustive

// Phase is a named-type constant family: registered automatically.
type Phase string

const (
	PhaseInit Phase = "init"
	PhaseRun  Phase = "run"
	PhaseDone Phase = "done"
)

// Describe has a default arm and still misses PhaseDone: the next phase
// added would silently take the "unknown" path.
func Describe(p Phase) string {
	switch p { // want "misses regexhaustive.PhaseDone"
	case PhaseInit:
		return "starting"
	case PhaseRun:
		return "working"
	default:
		return "unknown"
	}
}

// Complete covers the family: clean.
func Complete(p Phase) string {
	switch p {
	case PhaseInit:
		return "starting"
	case PhaseRun:
		return "working"
	case PhaseDone:
		return "finished"
	}
	return "unknown"
}

// ordered misses PhaseRun.
var ordered = []Phase{PhaseInit, PhaseDone} // want "misses regexhaustive.PhaseRun"

// labels covers every member: clean.
var labels = map[Phase]string{
	PhaseInit: "I",
	PhaseRun:  "R",
	PhaseDone: "D",
}

// The job states are untyped strings — invisible to the automatic
// named-type registration — so the blocks declare their domain.
//
//lint:enum job-state lifecycle states of a fixture job
const (
	StateQueued  = "queued"
	StateRunning = "running"
	StateDone    = "done"
)

// StateCancelled arrived later, in spirit in another file: the shared
// group word merges it into the same domain.
//
//lint:enum job-state cancellation joined the lifecycle after the fact
const StateCancelled = "cancelled"

// Active misses the late-added member.
func Active(state string) bool {
	switch state { // want "misses regexhaustive.StateCancelled"
	case StateQueued, StateRunning:
		return true
	case StateDone:
		return false
	}
	return false
}

// Terminal is deliberately partial and says why.
func Terminal(state string) bool {
	//lint:regexhaustive-exempt predicate deliberately names only the terminal states; additions default to non-terminal on purpose
	switch state {
	case StateDone, StateCancelled:
		return true
	}
	return false
}

// counts covers the whole merged group: clean.
var counts = map[string]int{
	StateQueued:    0,
	StateRunning:   0,
	StateDone:      0,
	StateCancelled: 0,
}

// Aliases of registered members count as the members themselves: a
// switch over alias names is checked against the whole group.
const (
	AliasQueued = StateQueued
	AliasDone   = StateDone
)

func AliasActive(state string) bool {
	switch state { // want "misses regexhaustive.StateCancelled, regexhaustive.StateRunning"
	case AliasQueued:
		return true
	case AliasDone:
		return false
	}
	return false
}

// Unrelated constants never register: no group, no finding.
const other = "other"

func Unrelated(s string) bool {
	switch s {
	case other:
		return true
	}
	return false
}

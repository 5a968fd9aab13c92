// Package locksafety is the lock-safety fixture. The first half
// reproduces the PR-9 deadlock shape byte-for-byte in miniature:
// a manager whose state-mutating method holds m.mu and emits an
// observability event, where the emit path reacquires m.mu — directly,
// and through an interface sink. The second half is the shape of the
// fix (a separate event mutex) plus the other negatives the analyzer
// must stay quiet on.
package locksafety

import "sync"

// Sink is the observability fan-out interface (the fixture's EventSink).
type Sink interface {
	Emit(kind string)
}

// Manager mirrors tune.Manager before the PR-9 fix: one mutex guards
// both the state machine and the event path.
type Manager struct {
	mu     sync.Mutex
	events Sink
	state  string
	ch     chan string
}

// Resume is the deadlock: state change under m.mu, then an emit whose
// callee re-locks m.mu one frame down.
func (m *Manager) Resume() {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.state = "running"
	m.emit("resumed") // want "deadlocks"
}

// Restart is the deadlock at its real site: an early-return path unlocks
// m.mu, but the fall-through path still holds it when it emits.
func (m *Manager) Restart(closed bool) {
	m.mu.Lock()
	if closed {
		m.mu.Unlock()
		return
	}
	m.state = "running"
	m.emit("resumed") // want "deadlocks"
	m.mu.Unlock()
}

func (m *Manager) emit(kind string) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.state = kind
}

// Fail deadlocks through dynamic dispatch: the loaded Sink
// implementation calls back into a method that re-locks Manager.mu.
func (m *Manager) Fail() {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.events.Emit("failed") // want "deadlocks"
}

// ChattySink is the loaded Sink implementation the interface expansion
// must find: Emit → Note → Manager.mu.
type ChattySink struct {
	m *Manager
}

func (s *ChattySink) Emit(kind string) {
	s.m.Note(kind)
}

func (m *Manager) Note(kind string) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.state = kind
}

// Publish sends on an unbuffered channel with the lock held: every
// other user of m.mu now waits for a receiver that may never come.
func (m *Manager) Publish(v string) {
	m.mu.Lock()
	m.ch <- v // want "channel send while holding"
	m.mu.Unlock()
}

// Broadcast blocks transitively: the send hides one frame down.
func (m *Manager) Broadcast() {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.push("x") // want "can block on a channel send"
}

func (m *Manager) push(v string) {
	m.ch <- v
}

// Fixed is the PR-9 fix shape: events get their own mutex, so emitting
// under evmu while the caller holds... nothing. No finding.
type Fixed struct {
	mu     sync.Mutex
	evmu   sync.Mutex
	events Sink
	state  string
}

func (f *Fixed) Resume() {
	f.mu.Lock()
	f.state = "running"
	f.mu.Unlock()
	f.emit("resumed") // lock released first: clean
}

func (f *Fixed) emit(kind string) {
	f.evmu.Lock()
	defer f.evmu.Unlock()
	f.state = kind
}

// TryNotify sends under the lock, but inside a select with a default:
// it cannot park, so it stays clean.
func (m *Manager) TryNotify(v string) {
	m.mu.Lock()
	defer m.mu.Unlock()
	select {
	case m.ch <- v:
	default:
	}
}

// Drain deliberately hands off under the lock: the channel is buffered
// by construction and drained by a dedicated goroutine, so the written
// exemption keeps the run green.
func (m *Manager) Drain(v string) {
	m.mu.Lock()
	defer m.mu.Unlock()
	//lint:locksafety-exempt the channel is sized to the worker count at construction and always drained
	m.ch <- v
}

package main

import (
	"fmt"
	"io"
	"sort"
	"sync/atomic"
	"time"

	"robustify/internal/fpu"
)

// tracer records spans around the benchmark's calls into each layer:
// name, start, end and the enclosing span. The benchmark drives the
// system from one goroutine, so spans nest as a stack. A nil *tracer is
// an untraced rep: every method is a no-op, and systems switch their
// instrumentation on only when they are handed a non-nil one.
type tracer struct {
	t0    time.Time
	spans []span
	open  []int // indices of the currently open spans, innermost last
}

type span struct {
	name       string
	parent     int // index into spans, -1 for a root
	start, end time.Duration
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// begin opens a span and returns the function that closes it.
func (t *tracer) begin(name string) func() {
	if t == nil {
		return func() {}
	}
	parent := -1
	if n := len(t.open); n > 0 {
		parent = t.open[n-1]
	}
	i := len(t.spans)
	t.spans = append(t.spans, span{name: name, parent: parent, start: time.Since(t.t0)})
	t.open = append(t.open, i)
	return func() {
		t.spans[i].end = time.Since(t.t0)
		t.open = t.open[:len(t.open)-1]
	}
}

// spanTotals accumulates spans by name across reps.
type spanTotals map[string]*spanTotal

type spanTotal struct {
	count       int
	total, self time.Duration
}

// add folds one rep's spans in. A span's self time is its duration minus
// the part its child spans cover.
func (st spanTotals) add(t *tracer) {
	if t == nil {
		return
	}
	child := make([]time.Duration, len(t.spans))
	for _, s := range t.spans {
		if s.parent >= 0 {
			child[s.parent] += s.end - s.start
		}
	}
	for i, s := range t.spans {
		tot := st[s.name]
		if tot == nil {
			tot = &spanTotal{}
			st[s.name] = tot
		}
		tot.count++
		tot.total += s.end - s.start
		tot.self += s.end - s.start - child[i]
	}
}

// write prints the spans as a table, largest self time first.
func (st spanTotals) write(w io.Writer) {
	names := make([]string, 0, len(st))
	for n := range st {
		names = append(names, n)
	}
	sort.Slice(names, func(i, j int) bool {
		if st[names[i]].self != st[names[j]].self {
			return st[names[i]].self > st[names[j]].self
		}
		return names[i] < names[j]
	})
	fmt.Fprintf(w, "  %-32s %6s %12s %12s\n", "span", "count", "total", "self")
	for _, n := range names {
		s := st[n]
		fmt.Fprintf(w, "  %-32s %6d %12s %12s\n", n, s.count,
			s.total.Round(time.Microsecond), s.self.Round(time.Microsecond))
	}
}

// iterationCounter builds the fault-observer factory a traced rep
// installs: it counts solver iteration marks and forwards every callback
// to the factory the system would install anyway (nil for none). It is
// as passive as the observers it wraps.
func iterationCounter(inner func(rate float64, seed uint64) fpu.Observer, n *atomic.Int64) func(rate float64, seed uint64) fpu.Observer {
	return func(rate float64, seed uint64) fpu.Observer {
		var o fpu.Observer
		if inner != nil {
			o = inner(rate, seed)
		}
		return &countingObserver{inner: o, iters: n}
	}
}

type countingObserver struct {
	inner fpu.Observer
	iters *atomic.Int64
}

func (c *countingObserver) FaultInjected(op fpu.Op, flop, flipped uint64) {
	if c.inner != nil {
		c.inner.FaultInjected(op, flop, flipped)
	}
}

func (c *countingObserver) CompareFault(flop uint64) {
	if c.inner != nil {
		c.inner.CompareFault(flop)
	}
}

func (c *countingObserver) MemoryFaults(words int, faults uint64) {
	if c.inner != nil {
		c.inner.MemoryFaults(words, faults)
	}
}

func (c *countingObserver) IterationMark() {
	c.iters.Add(1)
	if c.inner != nil {
		c.inner.IterationMark()
	}
}

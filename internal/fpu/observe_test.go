package fpu

import (
	"testing"
)

// obsEvent is one recorded Observer callback, in stream order.
type obsEvent struct {
	kind    string // "fault", "compare", "memory", "iter"
	op      Op
	flop    uint64
	flipped uint64
}

// streamObserver records every callback verbatim.
type streamObserver struct {
	events []obsEvent
}

func (s *streamObserver) FaultInjected(op Op, flop uint64, flipped uint64) {
	s.events = append(s.events, obsEvent{kind: "fault", op: op, flop: flop, flipped: flipped})
}

func (s *streamObserver) CompareFault(flop uint64) {
	s.events = append(s.events, obsEvent{kind: "compare", flop: flop})
}

func (s *streamObserver) MemoryFaults(words int, faults uint64) {
	s.events = append(s.events, obsEvent{kind: "memory", flop: uint64(words), flipped: faults})
}

func (s *streamObserver) IterationMark() {
	s.events = append(s.events, obsEvent{kind: "iter"})
}

// TestObserverStreamScalarMatchesBatched pins the flop-exact observer
// contract: an observer attached to a unit sees the identical event
// stream — same ops, same 1-based flop ordinals, same flip masks —
// whether the computation runs through scalar methods or batched
// kernels. This is what makes fault-placement telemetry comparable
// across the in-process and kernel-accelerated paths.
func TestObserverStreamScalarMatchesBatched(t *testing.T) {
	const n = 512
	a, b := make([]float64, n), make([]float64, n)
	for i := range a {
		a[i] = float64(i%17) + 0.25
		b[i] = float64(i%13) - 5.5
	}
	for _, rate := range []float64{0.003, 0.02} {
		for seed := uint64(1); seed <= 5; seed++ {
			scalarObs, batchObs := &streamObserver{}, &streamObserver{}
			us, ub := New(WithFaultRate(rate, seed)), New(WithFaultRate(rate, seed))
			us.SetObserver(scalarObs)
			ub.SetObserver(batchObs)

			// Pair kernel (mul+add per element) and solo kernel (add per
			// element), back to back so flop ordinals accumulate across
			// kernel boundaries exactly as across scalar calls.
			sv := scalarDot(us, a, b)
			bv := ub.Dot(a, b)
			if sv != bv {
				t.Fatalf("rate %g seed %d: Dot diverged: scalar %x batched %x",
					rate, seed, sv, bv)
			}
			sv = scalarSum(us, a)
			bv = ub.Sum(a)
			if sv != bv {
				t.Fatalf("rate %g seed %d: Sum diverged", rate, seed)
			}

			if len(scalarObs.events) == 0 {
				t.Fatalf("rate %g seed %d: no faults observed; raise rate or n", rate, seed)
			}
			if len(scalarObs.events) != len(batchObs.events) {
				t.Fatalf("rate %g seed %d: scalar saw %d events, batched %d",
					rate, seed, len(scalarObs.events), len(batchObs.events))
			}
			for i := range scalarObs.events {
				if scalarObs.events[i] != batchObs.events[i] {
					t.Errorf("rate %g seed %d: event %d: scalar %+v batched %+v",
						rate, seed, i, scalarObs.events[i], batchObs.events[i])
				}
			}
		}
	}
}

// TestObserverIsPassive pins the other half of the contract: attaching
// an observer changes nothing — values, FLOP counts, fault counts, and
// the fault schedule are bit-identical with and without one.
func TestObserverIsPassive(t *testing.T) {
	const n = 256
	a, b := make([]float64, n), make([]float64, n)
	for i := range a {
		a[i] = 1.0 / float64(i+1)
		b[i] = float64(i) * 0.75
	}
	for seed := uint64(1); seed <= 8; seed++ {
		plain := New(WithFaultRate(0.01, seed))
		tapped := New(WithFaultRate(0.01, seed))
		tapped.SetObserver(&streamObserver{})
		pv := plain.Dot(a, b)
		tv := tapped.Dot(a, b)
		if pv != tv {
			t.Errorf("seed %d: observer changed the result: %x vs %x", seed, pv, tv)
		}
		if plain.FLOPs() != tapped.FLOPs() || plain.Faults() != tapped.Faults() {
			t.Errorf("seed %d: observer changed accounting: flops %d/%d faults %d/%d",
				seed, plain.FLOPs(), tapped.FLOPs(), plain.Faults(), tapped.Faults())
		}
	}
}

// TestObserverSetDetach: SetObserver(nil) detaches cleanly and a nil
// unit tolerates both accessors.
func TestObserverSetDetach(t *testing.T) {
	o := &streamObserver{}
	u := New(WithFaultRate(0.5, 3))
	u.SetObserver(o)
	if u.Observer() != o {
		t.Fatal("Observer() did not return the attached observer")
	}
	u.SetObserver(nil)
	if u.Observer() != nil {
		t.Fatal("SetObserver(nil) did not detach")
	}
	for i := 0; i < 100; i++ {
		u.Add(1, 2)
	}
	if len(o.events) != 0 {
		t.Errorf("detached observer still received %d events", len(o.events))
	}
	var nilUnit *Unit
	nilUnit.SetObserver(o)
	if nilUnit.Observer() != nil {
		t.Error("nil unit returned an observer")
	}
}

package fpu

import (
	"math"
	"testing"
)

func TestLFSRZeroSeedRemapped(t *testing.T) {
	l := NewLFSR(0)
	if l.Next() == 0 {
		t.Error("zero seed must be remapped to a nonzero state")
	}
}

func TestLFSRNeverZero(t *testing.T) {
	l := NewLFSR(12345)
	for i := 0; i < 100000; i++ {
		if l.Next() == 0 {
			t.Fatalf("LFSR reached the all-zero fixed point at step %d", i)
		}
	}
}

func TestLFSRDeterministic(t *testing.T) {
	a, b := NewLFSR(99), NewLFSR(99)
	for i := 0; i < 1000; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatalf("same seed diverged at step %d", i)
		}
	}
}

func TestLFSRFloat64Range(t *testing.T) {
	l := NewLFSR(7)
	var sum float64
	const n = 100000
	for i := 0; i < n; i++ {
		f := l.Float64()
		if f < 0 || f >= 1 {
			t.Fatalf("Float64 out of range: %v", f)
		}
		sum += f
	}
	if mean := sum / n; math.Abs(mean-0.5) > 0.01 {
		t.Errorf("Float64 mean = %v, want ~0.5", mean)
	}
}

func TestUniformGapMean(t *testing.T) {
	l := NewLFSR(31)
	const mean = 50.0
	var sum float64
	const n = 200000
	for i := 0; i < n; i++ {
		g := l.UniformGap(mean)
		if g < 1 || g > uint64(2*mean)-1 {
			t.Fatalf("gap %d outside {1..%d}", g, uint64(2*mean)-1)
		}
		sum += float64(g)
	}
	if got := sum / n; math.Abs(got-mean) > 0.03*mean {
		t.Errorf("mean gap = %v, want ~%v", got, mean)
	}
}

func TestUniformGapSmallMean(t *testing.T) {
	l := NewLFSR(1)
	if g := l.UniformGap(0.5); g != 1 {
		t.Errorf("UniformGap(0.5) = %d, want 1", g)
	}
	if g := l.UniformGap(1); g != 1 {
		t.Errorf("UniformGap(1) = %d, want 1", g)
	}
}

package fpu

import (
	"math"
	"strings"
	"testing"
	"testing/quick"
)

func TestNilUnitIsExact(t *testing.T) {
	var u *Unit
	if got := u.Add(1.5, 2.25); got != 3.75 {
		t.Errorf("nil.Add = %v, want 3.75", got)
	}
	if got := u.Mul(3, 4); got != 12 {
		t.Errorf("nil.Mul = %v, want 12", got)
	}
	if got := u.Div(1, 8); got != 0.125 {
		t.Errorf("nil.Div = %v, want 0.125", got)
	}
	if got := u.Sqrt(9); got != 3 {
		t.Errorf("nil.Sqrt = %v, want 3", got)
	}
	if u.FLOPs() != 0 || u.Faults() != 0 || u.Energy() != 0 {
		t.Error("nil unit must not account anything")
	}
	if !u.Reliable() {
		t.Error("nil unit must report reliable")
	}
}

func TestReliableUnitMatchesNative(t *testing.T) {
	u := New()
	f := func(a, b float64) bool {
		if math.IsNaN(a) || math.IsNaN(b) {
			return true
		}
		return u.Add(a, b) == a+b &&
			u.Sub(a, b) == a-b &&
			u.Mul(a, b) == a*b &&
			u.Div(a, b) == a/b &&
			u.Less(a, b) == (a < b)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestUnitAccounting(t *testing.T) {
	u := New()
	u.Add(1, 2)
	u.Mul(3, 4)
	u.Mul(5, 6)
	u.Sub(1, 1)
	u.Div(1, 2)
	u.Sqrt(2)
	u.Less(1, 2)
	if got, want := u.FLOPs(), uint64(7); got != want {
		t.Errorf("FLOPs = %d, want %d", got, want)
	}
	if got, want := u.OpCount(OpMul), uint64(2); got != want {
		t.Errorf("OpCount(mul) = %d, want %d", got, want)
	}
	if got, want := u.OpCount(OpCmp), uint64(1); got != want {
		t.Errorf("OpCount(cmp) = %d, want %d", got, want)
	}
	if got, want := u.Energy(), 7.0; got != want {
		t.Errorf("Energy = %v, want %v", got, want)
	}
}

func TestOpEnergy(t *testing.T) {
	u := New(WithOpEnergy(0.25))
	for i := 0; i < 8; i++ {
		u.Add(1, 1)
	}
	if got, want := u.Energy(), 2.0; math.Abs(got-want) > 1e-12 {
		t.Errorf("Energy = %v, want %v", got, want)
	}
}

func TestFaultRateObserved(t *testing.T) {
	const (
		rate = 0.05
		n    = 200000
	)
	u := New(WithFaultRate(rate, 7))
	for i := 0; i < n; i++ {
		u.Add(1, float64(i))
	}
	got := float64(u.Faults()) / float64(n)
	if math.Abs(got-rate) > 0.15*rate {
		t.Errorf("observed fault rate %v, want %v +- 15%%", got, rate)
	}
}

func TestZeroRateNeverFaults(t *testing.T) {
	u := New(WithFaultRate(0, 1))
	if !u.Reliable() {
		t.Fatal("rate-0 unit should be reliable")
	}
	for i := 0; i < 1000; i++ {
		if got := u.Add(float64(i), 1); got != float64(i)+1 {
			t.Fatalf("Add(%d, 1) = %v", i, got)
		}
	}
	if u.Faults() != 0 {
		t.Errorf("Faults = %d, want 0", u.Faults())
	}
}

func TestFaultFlipsExactlyOneBit(t *testing.T) {
	in := NewInjector(1, 3) // fault on every op
	for i := 0; i < 1000; i++ {
		v := 1.0 + float64(i)
		out, faulted := in.Apply(v)
		if !faulted {
			t.Fatalf("rate-1 injector did not fault on op %d", i)
		}
		diff := math.Float64bits(v) ^ math.Float64bits(out)
		if popcount(diff) != 1 {
			t.Fatalf("fault flipped %d bits (in=%x out=%x)", popcount(diff),
				math.Float64bits(v), math.Float64bits(out))
		}
	}
}

func popcount(x uint64) int {
	n := 0
	for ; x != 0; x &= x - 1 {
		n++
	}
	return n
}

func TestInjectorDeterministic(t *testing.T) {
	run := func() []float64 {
		u := New(WithFaultRate(0.2, 42))
		out := make([]float64, 0, 100)
		for i := 0; i < 100; i++ {
			out = append(out, u.Mul(1.5, float64(i)))
		}
		return out
	}
	a, b := run(), run()
	for i := range a {
		if a[i] != b[i] && !(math.IsNaN(a[i]) && math.IsNaN(b[i])) {
			t.Fatalf("same seed diverged at op %d: %v vs %v", i, a[i], b[i])
		}
	}
}

func TestInjectorSeedsDiffer(t *testing.T) {
	a := NewInjector(0.5, 1)
	b := NewInjector(0.5, 2)
	same := true
	for i := 0; i < 64 && same; i++ {
		va, _ := a.Apply(1)
		vb, _ := b.Apply(1)
		same = va == vb
	}
	if same {
		t.Error("different seeds produced identical fault streams")
	}
}

func TestBitDistributionNormalized(t *testing.T) {
	for _, d := range []*BitDistribution{
		MeasuredDistribution(), EmulatedDistribution(),
		UniformDistribution(), LowOrderDistribution(),
	} {
		var total float64
		for bit := 0; bit < WordBits; bit++ {
			p := d.Prob(bit)
			if p < 0 {
				t.Errorf("%s: negative probability at bit %d", d.Name(), bit)
			}
			total += p
		}
		if math.Abs(total-1) > 1e-9 {
			t.Errorf("%s: probabilities sum to %v, want 1", d.Name(), total)
		}
	}
}

func TestBitDistributionSampleMatchesPMF(t *testing.T) {
	d := EmulatedDistribution()
	rng := NewLFSR(11)
	counts := make([]int, WordBits)
	const n = 400000
	for i := 0; i < n; i++ {
		counts[d.Sample(rng.Float64())]++
	}
	for bit := 0; bit < WordBits; bit++ {
		want := d.Prob(bit)
		got := float64(counts[bit]) / n
		if want == 0 {
			if got != 0 {
				t.Errorf("bit %d: sampled with zero probability", bit)
			}
			continue
		}
		if math.Abs(got-want) > 0.25*want+1e-4 {
			t.Errorf("bit %d: sampled freq %v, want %v", bit, got, want)
		}
	}
}

func TestMeasuredDistributionIsBimodal(t *testing.T) {
	d := MeasuredDistribution()
	var high, mid, low float64
	for bit := 0; bit < WordBits; bit++ {
		p := d.Prob(bit)
		switch {
		case bit >= 44:
			high += p
		case bit < 12:
			low += p
		default:
			mid += p
		}
	}
	if high < 0.4 {
		t.Errorf("high-significance mass = %v, want dominant (>0.4)", high)
	}
	if low < 0.15 {
		t.Errorf("low-order mass = %v, want secondary cluster (>0.15)", low)
	}
	if mid > 0.2 {
		t.Errorf("mid-mantissa mass = %v, want a valley (<0.2)", mid)
	}
}

func TestNewBitDistributionDegenerate(t *testing.T) {
	// All-zero weights must panic loudly: a silent uniform fallback would
	// let an "exponent-only" distribution built from mistyped weights run a
	// whole stratified study with uniform flips and no signal.
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("NewBitDistribution with all-zero weights did not panic")
		}
		if msg, ok := r.(string); !ok || !strings.Contains(msg, "positive weight") {
			t.Errorf("panic = %v, want a positive-weight message", r)
		}
	}()
	var zero [WordBits]float64
	NewBitDistribution("z", zero)
}

func TestHinge(t *testing.T) {
	u := New()
	if got := u.Hinge(2.5); got != 2.5 {
		t.Errorf("Hinge(2.5) = %v", got)
	}
	if got := u.Hinge(-1); got != 0 {
		t.Errorf("Hinge(-1) = %v", got)
	}
	if got := u.Hinge(0); got != 0 {
		t.Errorf("Hinge(0) = %v", got)
	}
}

func TestMinMax(t *testing.T) {
	u := New()
	if got := u.Min(1, 2); got != 1 {
		t.Errorf("Min(1,2) = %v", got)
	}
}

func TestSinglePrecisionRounding(t *testing.T) {
	u := New(WithSinglePrecision())
	got := u.Add(1, 1e-12) // vanishes in float32
	if got != 1 {
		t.Errorf("single-precision Add(1, 1e-12) = %v, want 1", got)
	}
	if got := u.Mul(3, 4); got != 12 {
		t.Errorf("single-precision Mul(3,4) = %v", got)
	}
	// Relative precision is ~6e-8: adding 1e-6 must survive.
	if got := u.Add(1, 1e-6); got == 1 {
		t.Error("single-precision Add(1, 1e-6) lost the addend")
	}
}

func TestInjectorRateClamping(t *testing.T) {
	if r := NewInjector(-0.5, 1).Rate(); r != 0 {
		t.Errorf("negative rate clamped to %v, want 0", r)
	}
	if r := NewInjector(7, 1).Rate(); r != 1 {
		t.Errorf("huge rate clamped to %v, want 1", r)
	}
}

func TestInjectorCustomDistribution(t *testing.T) {
	in := NewInjector(1, 2, WithDistribution(LowOrderDistribution()))
	if in.dist.Name() != "low-order" {
		t.Errorf("distribution = %q", in.dist.Name())
	}
	// Every fault must hit bits 0..15 only.
	for i := 0; i < 500; i++ {
		v := 1.5
		out, faulted := in.Apply(v)
		if !faulted {
			t.Fatal("rate-1 injector idle")
		}
		diff := math.Float64bits(v) ^ math.Float64bits(out)
		if diff>>16 != 0 {
			t.Fatalf("low-order injector flipped bit above 15: %x", diff)
		}
	}
	if in.Injected() != 500 {
		t.Errorf("Injected = %d", in.Injected())
	}
}

func TestLessInvertsUnderFault(t *testing.T) {
	u := New(WithFaultRate(1, 3)) // every comparison corrupted
	if u.Less(1, 2) {
		t.Error("rate-1 comparison should be inverted")
	}
	if got := u.OpCount(OpCmp); got != 1 {
		t.Errorf("cmp count = %d", got)
	}
}

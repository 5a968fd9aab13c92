package fpu

import (
	"math"
	"testing"
)

// Scalar reference loops: the pre-kernel per-operation code paths the
// batched kernels must reproduce bit for bit.

func scalarDot(u *Unit, a, b []float64) float64 {
	var s float64
	for i := range a {
		s = u.Add(s, u.Mul(a[i], b[i]))
	}
	return s
}

func scalarDotRev(u *Unit, a, b []float64) float64 {
	n := len(b)
	var s float64
	for i := range a {
		s = u.Add(s, u.Mul(a[i], b[n-1-i]))
	}
	return s
}

func scalarAxpy(u *Unit, alpha float64, x, y []float64) {
	for i := range x {
		y[i] = u.Add(y[i], u.Mul(alpha, x[i]))
	}
}

func scalarXpay(u *Unit, x []float64, alpha float64, y []float64) {
	for i := range x {
		y[i] = u.Add(x[i], u.Mul(alpha, y[i]))
	}
}

func scalarSum(u *Unit, x []float64) float64 {
	var s float64
	for i := range x {
		s = u.Add(s, x[i])
	}
	return s
}

func scalarScale(u *Unit, alpha float64, x []float64) {
	for i := range x {
		x[i] = u.Mul(alpha, x[i])
	}
}

func scalarAddVec(u *Unit, a, b, dst []float64) {
	for i := range a {
		dst[i] = u.Add(a[i], b[i])
	}
}

func scalarSubVec(u *Unit, a, b, dst []float64) {
	for i := range a {
		dst[i] = u.Sub(a[i], b[i])
	}
}

func scalarGemv(u *Unit, a []float64, rows, cols int, x, dst []float64) {
	for i := 0; i < rows; i++ {
		dst[i] = scalarDot(u, a[i*cols:(i+1)*cols], x)
	}
}

func scalarNorm2(u *Unit, x []float64) float64 {
	return u.Sqrt(scalarDot(u, x, x))
}

// kernelConfig is one cell of the equivalence sweep.
type kernelConfig struct {
	rate   float64
	single bool
}

func kernelConfigs() []kernelConfig {
	var cfgs []kernelConfig
	for _, rate := range []float64{0, 1e-3, 0.02, 0.3, 1} {
		for _, single := range []bool{false, true} {
			cfgs = append(cfgs, kernelConfig{rate: rate, single: single})
		}
	}
	return cfgs
}

func newTestUnit(c kernelConfig, seed uint64) *Unit {
	opts := []Option{WithFaultRate(c.rate, seed)}
	if c.single {
		opts = append(opts, WithSinglePrecision())
	}
	return New(opts...)
}

// testVec fills deterministic pseudo-random data including negatives.
func testVec(n int, seed uint64) []float64 {
	rng := NewLFSR(seed)
	v := make([]float64, n)
	for i := range v {
		v[i] = rng.Float64()*4 - 2
	}
	return v
}

// checkUnits fails the test when the two units' exact counters diverge.
func checkUnits(t *testing.T, scalar, batched *Unit) {
	t.Helper()
	if s, b := scalar.FLOPs(), batched.FLOPs(); s != b {
		t.Errorf("FLOPs: scalar %d, batched %d", s, b)
	}
	if s, b := scalar.Faults(), batched.Faults(); s != b {
		t.Errorf("Faults: scalar %d, batched %d", s, b)
	}
	for op := OpAdd; op <= OpCmp; op++ {
		if s, b := scalar.OpCount(op), batched.OpCount(op); s != b {
			t.Errorf("OpCount(%v): scalar %d, batched %d", op, s, b)
		}
	}
	sm, bm := scalar.Model(), batched.Model()
	if (sm == nil) != (bm == nil) {
		t.Fatalf("fault model presence mismatch")
	}
	if sm != nil && sm.Injected() != bm.Injected() {
		t.Errorf("Injected: scalar %d, batched %d", sm.Injected(), bm.Injected())
	}
}

func checkVec(t *testing.T, name string, want, got []float64) {
	t.Helper()
	for i := range want {
		if math.Float64bits(want[i]) != math.Float64bits(got[i]) {
			t.Fatalf("%s[%d]: scalar %x (%g), batched %x (%g)",
				name, i, math.Float64bits(want[i]), want[i],
				math.Float64bits(got[i]), got[i])
		}
	}
}

func checkScalar(t *testing.T, name string, want, got float64) {
	t.Helper()
	if math.Float64bits(want) != math.Float64bits(got) {
		t.Fatalf("%s: scalar %x (%g), batched %x (%g)",
			name, math.Float64bits(want), want, math.Float64bits(got), got)
	}
}

var kernelSizes = []int{0, 1, 2, 3, 5, 17, 64, 257}

// TestKernelsBitIdentical drives every batched kernel and its scalar
// reference on identically seeded units and demands bitwise-equal outputs
// and identical FLOP/fault/injection counters across fault rates, sizes,
// and both precisions.
func TestKernelsBitIdentical(t *testing.T) {
	for _, cfg := range kernelConfigs() {
		for _, n := range kernelSizes {
			seed := uint64(n)*1009 + uint64(cfg.rate*1000) + 5
			a := testVec(n, seed)
			b := testVec(n, seed+1)
			alpha := 1.37

			su := newTestUnit(cfg, seed)
			bu := newTestUnit(cfg, seed)
			checkScalar(t, "Dot", scalarDot(su, a, b), bu.Dot(a, b))
			checkScalar(t, "DotRev", scalarDotRev(su, a, b), bu.DotRev(a, b))
			checkScalar(t, "Sum", scalarSum(su, a), bu.Sum(a))
			checkScalar(t, "Norm2", scalarNorm2(su, a), bu.Norm2(a))

			ys := append([]float64(nil), b...)
			yb := append([]float64(nil), b...)
			scalarAxpy(su, alpha, a, ys)
			bu.Axpy(alpha, a, yb)
			checkVec(t, "Axpy", ys, yb)

			copy(ys, b)
			copy(yb, b)
			scalarXpay(su, a, alpha, ys)
			bu.Xpay(a, alpha, yb)
			checkVec(t, "Xpay", ys, yb)

			xs := append([]float64(nil), a...)
			xb := append([]float64(nil), a...)
			scalarScale(su, alpha, xs)
			bu.Scale(alpha, xb)
			checkVec(t, "Scale", xs, xb)

			ds := make([]float64, n)
			db := make([]float64, n)
			scalarAddVec(su, a, b, ds)
			bu.AddVec(a, b, db)
			checkVec(t, "AddVec", ds, db)
			scalarSubVec(su, a, b, ds)
			bu.SubVec(a, b, db)
			checkVec(t, "SubVec", ds, db)

			checkUnits(t, su, bu)
		}
	}
}

// TestGemvBitIdentical covers the matrix-vector kernel separately so the
// row-major layout and per-row fault hand-off are exercised.
func TestGemvBitIdentical(t *testing.T) {
	for _, cfg := range kernelConfigs() {
		for _, dims := range [][2]int{{1, 1}, {3, 5}, {16, 16}, {40, 7}} {
			rows, cols := dims[0], dims[1]
			seed := uint64(rows*100+cols) + uint64(cfg.rate*10000)
			a := testVec(rows*cols, seed)
			x := testVec(cols, seed+1)

			su := newTestUnit(cfg, seed)
			bu := newTestUnit(cfg, seed)
			ds := make([]float64, rows)
			db := make([]float64, rows)
			scalarGemv(su, a, rows, cols, x, ds)
			bu.Gemv(a, rows, cols, x, db)
			checkVec(t, "Gemv", ds, db)
			checkUnits(t, su, bu)
		}
	}
}

// TestKernelsInterleaveScalarOps checks that the fault schedule stays
// aligned when batched kernels and plain scalar FPU calls are mixed in one
// stream, the way solver control loops actually use a Unit.
func TestKernelsInterleaveScalarOps(t *testing.T) {
	for _, cfg := range kernelConfigs() {
		const n = 29
		a := testVec(n, 11)
		b := testVec(n, 12)
		su := newTestUnit(cfg, 99)
		bu := newTestUnit(cfg, 99)

		var sAcc, bAcc float64
		for round := 0; round < 20; round++ {
			sAcc = su.Add(sAcc, scalarDot(su, a, b))
			bAcc = bu.Add(bAcc, bu.Dot(a, b))
			if su.Less(sAcc, 1) != bu.Less(bAcc, 1) {
				t.Fatalf("round %d: compare diverged", round)
			}
			sAcc = su.Mul(sAcc, 0.5)
			bAcc = bu.Mul(bAcc, 0.5)
			ys := append([]float64(nil), b...)
			yb := append([]float64(nil), b...)
			scalarAxpy(su, sAcc, a, ys)
			bu.Axpy(bAcc, a, yb)
			checkVec(t, "interleaved Axpy", ys, yb)
			sAcc = su.Add(sAcc, scalarSum(su, ys))
			bAcc = bu.Add(bAcc, bu.Sum(yb))
			checkScalar(t, "interleaved acc", sAcc, bAcc)
		}
		checkUnits(t, su, bu)
	}
}

// TestKernelsNilAndReliableUnits pins the exact-arithmetic paths: a nil
// *Unit and an injector-free unit must both equal the plain Go loops.
func TestKernelsNilAndReliableUnits(t *testing.T) {
	const n = 41
	a := testVec(n, 3)
	b := testVec(n, 4)
	var nilUnit *Unit
	rel := New()

	var want float64
	for i := range a {
		want += a[i] * b[i]
	}
	checkScalar(t, "nil Dot", want, nilUnit.Dot(a, b))
	checkScalar(t, "reliable Dot", want, rel.Dot(a, b))
	if got := rel.FLOPs(); got != 2*n {
		t.Errorf("reliable Dot FLOPs = %d, want %d", got, 2*n)
	}
	if got := nilUnit.FLOPs(); got != 0 {
		t.Errorf("nil Dot FLOPs = %d, want 0", got)
	}
	if got := rel.OpCount(OpMul); got != n {
		t.Errorf("reliable Dot mul count = %d, want %d", got, n)
	}
}

// TestKernelEnergyBulkCharge pins the documented accounting contract:
// energy is charged as opEnergy×n per kernel run.
func TestKernelEnergyBulkCharge(t *testing.T) {
	u := New(WithOpEnergy(0.25))
	x := testVec(100, 8)
	u.Sum(x)
	if got, want := u.Energy(), 0.25*100; got != want {
		t.Errorf("Energy = %g, want %g", got, want)
	}
}

// --- Benchmarks: per-FLOP scalar dispatch vs batched kernels. ---

const benchN = 1024

func benchData() ([]float64, []float64) {
	return testVec(benchN, 1), testVec(benchN, 2)
}

func BenchmarkDotScalar(b *testing.B) {
	x, y := benchData()
	u := New(WithFaultRate(1e-3, 7))
	b.SetBytes(benchN * 8)
	for i := 0; i < b.N; i++ {
		scalarDot(u, x, y)
	}
}

func BenchmarkDotBatched(b *testing.B) {
	x, y := benchData()
	u := New(WithFaultRate(1e-3, 7))
	b.SetBytes(benchN * 8)
	for i := 0; i < b.N; i++ {
		u.Dot(x, y)
	}
}

func BenchmarkAxpyScalar(b *testing.B) {
	x, y := benchData()
	u := New(WithFaultRate(1e-3, 7))
	b.SetBytes(benchN * 8)
	for i := 0; i < b.N; i++ {
		scalarAxpy(u, 1.0001, x, y)
	}
}

func BenchmarkAxpyBatched(b *testing.B) {
	x, y := benchData()
	u := New(WithFaultRate(1e-3, 7))
	b.SetBytes(benchN * 8)
	for i := 0; i < b.N; i++ {
		u.Axpy(1.0001, x, y)
	}
}

func BenchmarkGemvScalar(b *testing.B) {
	const rows, cols = 64, 64
	a := testVec(rows*cols, 1)
	x := testVec(cols, 2)
	dst := make([]float64, rows)
	u := New(WithFaultRate(1e-3, 7))
	for i := 0; i < b.N; i++ {
		scalarGemv(u, a, rows, cols, x, dst)
	}
}

func BenchmarkGemvBatched(b *testing.B) {
	const rows, cols = 64, 64
	a := testVec(rows*cols, 1)
	x := testVec(cols, 2)
	dst := make([]float64, rows)
	u := New(WithFaultRate(1e-3, 7))
	for i := 0; i < b.N; i++ {
		u.Gemv(a, rows, cols, x, dst)
	}
}

package detrand

import (
	"math"
	"math/bits"
	"math/rand"
	"testing"
)

// edgeSeeds covers every branch of math/rand's seed normalization: zero
// (replaced by 89482311), the replacement value itself, signs, multiples
// of 2³¹−1 (which normalize to zero) and the int64 extremes.
var edgeSeeds = []int64{
	0, 1, -1, 2, 89482311, -89482311,
	int32max, -int32max, 2 * int32max, int32max - 1, int32max + 1,
	math.MinInt64, math.MaxInt64, math.MinInt64 + 1, math.MaxInt32, math.MinInt32,
}

// testSeeds is edgeSeeds plus ~200 seeds spread over the int64 range.
func testSeeds() []int64 {
	seeds := append([]int64(nil), edgeSeeds...)
	x := uint64(0x9e3779b97f4a7c15)
	for i := 0; i < 200; i++ {
		x = x*6364136223846793005 + 1442695040888963407
		seeds = append(seeds, int64(x)>>(i%64))
	}
	return seeds
}

// compareStreams fails unless New(seed) and math/rand agree on a long
// mixed stream: well over 2×607 draws, so the register wraps twice, through
// every *rand.Rand method the repo calls.
func compareStreams(t *testing.T, seed int64) {
	t.Helper()
	got, want := New(seed), rand.New(rand.NewSource(seed))
	for i := 0; i < 1500; i++ {
		if g, w := got.Uint64(), want.Uint64(); g != w {
			t.Fatalf("seed %d draw %d: Uint64 %d, want %d", seed, i, g, w)
		}
	}
	for n := 1; n < 40; n++ {
		if g, w := got.Intn(n), want.Intn(n); g != w {
			t.Fatalf("seed %d: Intn(%d) = %d, want %d", seed, n, g, w)
		}
		if g, w := got.Float64(), want.Float64(); g != w {
			t.Fatalf("seed %d: Float64 = %v, want %v", seed, g, w)
		}
		if g, w := got.NormFloat64(), want.NormFloat64(); g != w {
			t.Fatalf("seed %d: NormFloat64 = %v, want %v", seed, g, w)
		}
		if g, w := got.Perm(n), want.Perm(n); !equalInts(g, w) {
			t.Fatalf("seed %d: Perm(%d) = %v, want %v", seed, n, g, w)
		}
		g, w := make([]int, n), make([]int, n)
		for i := range g {
			g[i], w[i] = i, i
		}
		got.Shuffle(n, func(i, j int) { g[i], g[j] = g[j], g[i] })
		want.Shuffle(n, func(i, j int) { w[i], w[j] = w[j], w[i] })
		if !equalInts(g, w) {
			t.Fatalf("seed %d: Shuffle(%d) = %v, want %v", seed, n, g, w)
		}
	}
}

func equalInts(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func TestStreamIdentical(t *testing.T) {
	for _, seed := range testSeeds() {
		compareStreams(t, seed)
	}
}

// TestReseedIdentical reseeds mid-stream, after the register has wrapped
// and been partly rewritten, and expects math/rand's reseeded stream.
func TestReseedIdentical(t *testing.T) {
	got, want := New(7), rand.New(rand.NewSource(7))
	for _, seed := range testSeeds() {
		for i := 0; i < 700; i++ {
			got.Int63()
			want.Int63()
		}
		got.Seed(seed)
		want.Seed(seed)
		for i := 0; i < 1300; i++ {
			if g, w := got.Int63(), want.Int63(); g != w {
				t.Fatalf("after Seed(%d), draw %d: %d, want %d", seed, i, g, w)
			}
		}
	}
}

func FuzzStreamIdentical(f *testing.F) {
	for _, s := range edgeSeeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, seed int64) {
		got, want := New(seed), rand.New(rand.NewSource(seed))
		for i := 0; i < 2*rngLen+5; i++ {
			if g, w := got.Uint64(), want.Uint64(); g != w {
				t.Fatalf("seed %d draw %d: %d, want %d", seed, i, g, w)
			}
		}
	})
}

// TestShortTrialComputesFewWords pins the point of the package: a
// five-element permutation, a sort trial's whole instance, touches a
// handful of the 607 register words.
func TestShortTrialComputesFewWords(t *testing.T) {
	for _, seed := range testSeeds() {
		s := newSource(seed)
		rand.New(s).Perm(5)
		n := 0
		for _, w := range s.have {
			n += bits.OnesCount64(w)
		}
		if n > 16 {
			t.Fatalf("seed %d: Perm(5) computed %d register words, want <= 16", seed, n)
		}
	}
}

var (
	rngSink  *rand.Rand
	permSink []int
)

// TestNewAllocs pins New to math/rand's two allocations: the source and
// the Rand wrapping it.
func TestNewAllocs(t *testing.T) {
	var seed int64
	if got := testing.AllocsPerRun(100, func() { seed++; rngSink = New(seed) }); got != 2 {
		t.Fatalf("New allocates %v objects, want 2", got)
	}
}

// BenchmarkNew and BenchmarkStdNewSource time a short trial's whole use
// of its generator: seed, then draw a five-element permutation.
func BenchmarkNew(b *testing.B) {
	for i := 0; i < b.N; i++ {
		permSink = New(int64(i)).Perm(5)
	}
}

func BenchmarkStdNewSource(b *testing.B) {
	for i := 0; i < b.N; i++ {
		permSink = rand.New(rand.NewSource(int64(i))).Perm(5)
	}
}

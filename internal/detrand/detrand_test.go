package detrand

import (
	"math"
	"math/bits"
	"math/rand"
	"sync"
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

// compareStreams fails unless got, freshly seeded with seed, and math/rand
// agree on a long mixed stream: well over 2×607 draws, so the register
// wraps twice, through every *rand.Rand method the repo calls.
func compareStreams(t *testing.T, seed int64, got *rand.Rand) {
	t.Helper()
	want := rand.New(rand.NewSource(seed))
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
		compareStreams(t, seed, New(seed))
	}
}

// TestScopedReuseIdentical dirties a pooled generator past the register's
// wrap under one seed, then expects Scoped under the next seed to draw
// math/rand's fresh stream, whether the pool hands back that generator or
// a new one.
func TestScopedReuseIdentical(t *testing.T) {
	var prev *rand.Rand
	reused := 0
	for _, seed := range testSeeds() {
		Scoped(seed^0x5bd1e995, func(r *rand.Rand) {
			for i := 0; i < 2*rngLen; i++ {
				r.Int63()
			}
			prev = r
		})
		Scoped(seed, func(r *rand.Rand) {
			if r == prev {
				reused++
			}
			compareStreams(t, seed, r)
		})
	}
	if reused == 0 {
		t.Fatal("the pool never handed back a dirty generator; the reuse path went untested")
	}
}

// TestScopedParallel runs Scoped from concurrent goroutines, as trial
// workers do, and checks every stream against math/rand. Under -race it
// also checks that a pooled generator is never shared by two goroutines.
func TestScopedParallel(t *testing.T) {
	seeds := testSeeds()
	want := make([][8]int64, len(seeds))
	for i, seed := range seeds {
		std := rand.New(rand.NewSource(seed))
		for j := range want[i] {
			want[i][j] = std.Int63()
		}
	}
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for k := 0; k < 5*len(seeds); k++ {
				i := (k + g*len(seeds)/4) % len(seeds)
				Scoped(seeds[i], func(r *rand.Rand) {
					for j, w := range want[i] {
						if got := r.Int63(); got != w {
							t.Errorf("seed %d draw %d: %d, want %d", seeds[i], j, got, w)
							return
						}
					}
					for j := 0; j < (i*37)%(2*rngLen); j++ { // dirty the register
						r.Int63()
					}
				})
			}
		}()
	}
	wg.Wait()
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
		check := func(via string, got *rand.Rand) {
			want := rand.New(rand.NewSource(seed))
			for i := 0; i < 2*rngLen+5; i++ {
				if g, w := got.Uint64(), want.Uint64(); g != w {
					t.Fatalf("%s seed %d draw %d: %d, want %d", via, seed, i, g, w)
				}
			}
		}
		check("New", New(seed))
		// The pooled generator is usually the one the previous input left
		// dirty past the register's wrap.
		Scoped(seed, func(r *rand.Rand) { check("Scoped", r) })
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

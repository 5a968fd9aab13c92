// Package detrand builds seeded math/rand generators whose seeding costs
// O(1) instead of O(607).
//
// Every trial in this repo derives its random instance from
// rand.New(rand.NewSource(seed)). math/rand's source is an additive
// lagged-Fibonacci generator over a 607-word register; seeding fills the
// whole register with 1,841 Lehmer LCG steps, although a short trial (a
// five-element sort, say) reads about ten of those words. New returns a
// generator whose stream is bit-identical to math/rand's for every seed,
// but computes each register word only when a draw first reads it.
// Scoped goes one step further for per-trial use: it reseeds a pooled
// generator in place, so a trial allocates no generator at all.
//
// The seeding LCG is x ← 48271·x mod (2³¹−1), so the k-th state is
// seed·48271^k mod (2³¹−1): word i of the register, which math/rand
// builds from states 21+3i, 22+3i and 23+3i XORed with its "cooked"
// table entry i, follows from the normalized seed and three precomputed
// powers. The cooked table is unexported in math/rand; init recovers it
// from the register of a reference rand.NewSource(1), solved back from
// that source's first 607 outputs.
package detrand

import (
	"math/rand"
	"sync"
)

const (
	rngLen   = 607 // register length (math/rand rngLen)
	rngTap   = 273 // feedback tap (math/rand rngTap)
	int32max = 1<<31 - 1
	lcgMul   = 48271
	rngMask  = 1<<63 - 1
)

var (
	// pow[i] holds 48271^(21+3i), 48271^(22+3i) and 48271^(23+3i) mod
	// 2³¹−1: the LCG states register word i is built from.
	pow [rngLen][3]uint64
	// cooked is math/rand's rngCooked table.
	cooked [rngLen]uint64
)

func init() {
	p := uint64(1)
	for k := 1; k <= 23+3*(rngLen-1); k++ {
		p = mulMod(p, lcgMul)
		if k >= 21 {
			pow[(k-21)/3][(k-21)%3] = p
		}
	}
	ref := referenceRegister()
	for i := range cooked {
		cooked[i] = ref[i] ^ lcgWord(1, i)
	}
}

// referenceRegister returns the freshly seeded register of
// rand.NewSource(1), solved from its first rngLen outputs. Draw k
// (1-based) stores word feed(k) + word tap(k) at feed(k), with
// tap(k) = −k and feed(k) = rngLen−rngTap−k (mod rngLen). Within the
// first rngLen draws the feed word is always still original, and the tap
// word is original for k ≤ rngTap and the output of draw k−rngTap after
// that, so every original word is one subtraction away.
func referenceRegister() [rngLen]uint64 {
	//lint:rand-exempt the reference source from which the cooked seeding table is recovered once at init; no trial draws from it
	src := rand.NewSource(1).(rand.Source64)
	var out [rngLen + 1]uint64
	for k := 1; k <= rngLen; k++ {
		out[k] = src.Uint64()
	}
	feed := func(k int) int { return (2*rngLen - rngTap - k) % rngLen }
	var v [rngLen]uint64
	for k := rngTap + 1; k <= rngLen; k++ {
		v[feed(k)] = out[k] - out[k-rngTap]
	}
	for k := 1; k <= rngTap; k++ { // tap word rngLen−k was solved above
		v[feed(k)] = out[k] - v[rngLen-k]
	}
	return v
}

// mulMod returns a·b mod 2³¹−1 for a, b < 2³¹, folding the Mersenne
// modulus instead of dividing.
func mulMod(a, b uint64) uint64 {
	t := a * b
	t = t&int32max + t>>31
	t = t&int32max + t>>31
	if t >= int32max {
		t -= int32max
	}
	return t
}

// lcgWord is register word i before the cooked XOR, for the normalized
// seed x0.
func lcgWord(x0 uint64, i int) uint64 {
	p := &pow[i]
	return mulMod(x0, p[0])<<40 ^ mulMod(x0, p[1])<<20 ^ mulMod(x0, p[2])
}

// source is math/rand's rngSource with a lazily materialized register:
// vec[i] is valid only once bit i of have is set.
type source struct {
	tap, feed int
	x0        uint64 // normalized seed, in [1, 2³¹−1)
	have      [(rngLen + 63) / 64]uint64
	vec       [rngLen]uint64
}

// New returns a generator whose every draw is bit-identical to
// rand.New(rand.NewSource(seed)), seeded in constant time.
func New(seed int64) *rand.Rand {
	return rand.New(newSource(seed))
}

// pool recycles Scoped's generators. A pooled generator's register is
// dirty, but Seed resets its have bitmap, so it restarts in O(1).
var pool = sync.Pool{New: func() any { return New(0) }}

// Scoped runs fn with a generator whose every draw is bit-identical to
// rand.New(rand.NewSource(seed)), taken from a pool and returned to it
// when fn returns. A short trial thus allocates no generator state. fn
// must not keep the generator, or anything that draws from it, past its
// return.
func Scoped(seed int64, fn func(*rand.Rand)) {
	r := pool.Get().(*rand.Rand)
	r.Seed(seed)
	fn(r)
	pool.Put(r)
}

func newSource(seed int64) *source {
	s := new(source)
	s.Seed(seed)
	return s
}

// Seed resets the generator to the state rand.NewSource(seed) starts in.
func (s *source) Seed(seed int64) {
	s.tap = 0
	s.feed = rngLen - rngTap
	seed %= int32max
	if seed < 0 {
		seed += int32max
	}
	if seed == 0 {
		seed = 89482311
	}
	s.x0 = uint64(seed)
	s.have = [len(s.have)]uint64{}
}

// word returns register word i, computing it on first use.
func (s *source) word(i int) uint64 {
	if s.have[i>>6]&(1<<(i&63)) == 0 {
		s.have[i>>6] |= 1 << (i & 63)
		s.vec[i] = lcgWord(s.x0, i) ^ cooked[i]
	}
	return s.vec[i]
}

// Uint64 is math/rand's lagged-Fibonacci step.
func (s *source) Uint64() uint64 {
	s.tap--
	if s.tap < 0 {
		s.tap += rngLen
	}
	s.feed--
	if s.feed < 0 {
		s.feed += rngLen
	}
	x := s.word(s.feed) + s.word(s.tap)
	s.vec[s.feed] = x
	return x
}

// Int63 returns a non-negative pseudo-random 63-bit integer.
func (s *source) Int63() int64 {
	return int64(s.Uint64() & rngMask)
}

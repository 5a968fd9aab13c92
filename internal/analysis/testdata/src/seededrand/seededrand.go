// Package seededrand exercises the seededrand analyzer: global math/rand
// draws, clock-derived seeds and math/rand's O(607) NewSource are
// flagged, detrand sources pass, and written exemptions suppress.
package seededrand

import (
	"math/rand"
	"time"

	"robustify/internal/detrand"
)

// Global draws from the shared auto-seeded source.
func Global() int {
	return rand.Intn(10) // want "rand.Intn uses the global math/rand source"
}

// ClockSeeded derives its seed from the wall clock; both the constructor
// and the source it wraps are reported.
func ClockSeeded() *rand.Rand {
	return rand.New(rand.NewSource(time.Now().UnixNano())) // want "rand.New seeded from the clock" "rand.NewSource seeded from the clock"
}

// ClockSeededDetrand is the same mistake through the fast constructor.
func ClockSeededDetrand() *rand.Rand {
	return detrand.New(time.Now().UnixNano()) // want "detrand.New seeded from the clock"
}

// ClockScoped seeds a pooled generator from the clock.
func ClockScoped() (n int) {
	detrand.Scoped(time.Now().UnixNano(), func(r *rand.Rand) { n = r.Intn(10) }) // want "detrand.Scoped seeded from the clock"
	return n
}

// StdSeeded is explicitly seeded but fills math/rand's whole register.
func StdSeeded(seed int64) int {
	return rand.New(rand.NewSource(seed)).Intn(10) // want "detrand.New(seed) yields the identical stream in O(1)"
}

// Seeded draws from a detrand source and must pass.
func Seeded(seed int64) int {
	return detrand.New(seed).Intn(10)
}

// ScopedSeeded draws from a pooled detrand generator and must pass, even
// though its body times itself.
func ScopedSeeded(seed int64) (n int, took time.Duration) {
	detrand.Scoped(seed, func(r *rand.Rand) {
		start := time.Now()
		n = r.Intn(10)
		took = time.Since(start)
	})
	return n, took
}

// Jitter deliberately wants ambient randomness, with a written reason.
func Jitter() int {
	//lint:rand-exempt fixture: backoff jitter is deliberately nondeterministic and never recorded
	return rand.Intn(100)
}

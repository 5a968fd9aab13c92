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

// StdSeeded is explicitly seeded but fills math/rand's whole register.
func StdSeeded(seed int64) int {
	return rand.New(rand.NewSource(seed)).Intn(10) // want "detrand.New(seed) yields the identical stream in O(1)"
}

// Seeded draws from a detrand source and must pass.
func Seeded(seed int64) int {
	return detrand.New(seed).Intn(10)
}

// Jitter deliberately wants ambient randomness, with a written reason.
func Jitter() int {
	//lint:rand-exempt fixture: backoff jitter is deliberately nondeterministic and never recorded
	return rand.Intn(100)
}

package fpu

import (
	"math"
	"testing"
)

// TestSampleLookupMatchesFullSearch: the bucketed Sample fast path must
// return exactly what the plain CDF binary search returns, for every
// distribution shape and for adversarial variates at bucket and CDF
// boundaries.
func TestSampleLookupMatchesFullSearch(t *testing.T) {
	dists := []*BitDistribution{
		MeasuredDistribution(),
		EmulatedDistribution(),
		UniformDistribution(),
		LowOrderDistribution(),
	}
	for _, d := range dists {
		check := func(u float64) {
			if got, want := d.Sample(u), d.search(u, 0, WordBits-1); got != want {
				t.Fatalf("%s: Sample(%g) = %d, full search %d", d.Name(), u, got, want)
			}
		}
		rng := NewLFSR(5)
		for i := 0; i < 20000; i++ {
			check(rng.Float64())
		}
		for k := 0; k <= sampleBuckets; k++ {
			u := float64(k) / sampleBuckets
			check(u)
			check(math.Nextafter(u, 0))
			if u < 1 {
				check(math.Nextafter(u, 1))
			}
		}
		for _, c := range d.cdf {
			check(c)
			check(math.Nextafter(c, 0))
			if c < 1 {
				check(math.Nextafter(c, 1))
			}
		}
	}
}

// TestRescheduleMatchesUniformGap: the injector's cached gap range must
// reproduce LFSR.UniformGap(1/rate) draw for draw.
func TestRescheduleMatchesUniformGap(t *testing.T) {
	for _, rate := range []float64{1e-6, 1e-3, 0.01, 0.25, 0.5, 0.9, 0.999, 1} {
		in := NewInjector(rate, 42)
		rng := NewLFSR(42)
		for i := 0; i < 200; i++ {
			want := rng.UniformGap(1 / rate)
			if in.countdown != want {
				t.Fatalf("rate %g draw %d: countdown %d, UniformGap %d", rate, i, in.countdown, want)
			}
			in.reschedule()
		}
	}
}

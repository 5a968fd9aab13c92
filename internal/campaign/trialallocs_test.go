package campaign

import (
	"runtime"
	"testing"
)

var trialSink float64

// TestTrialAllocs pins the heap allocations of one trial of the two
// benchmark workloads, built through Spec.Unit with the default model and
// no observer. The trial boundary allocates only what the trial keeps: its
// unit and injector, never generator state or a copy of the bit
// distribution. A sort/base trial's seven are the input and its Perm, the
// unit, the injector, the sorted output and Success's two sorted copies;
// a leastsq/cg trial's 21 are its instance and solver vectors. Trials are
// deterministic per seed, so the counts are exact. The trials allocate
// 416 and 4,834 bytes; the ceilings sit below what a fresh 4.9 KB
// generator register or a 1.5 KB distribution copy would add.
func TestTrialAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("-race makes sync.Pool drop generators at random")
	}
	for _, tc := range []struct {
		workload string
		allocs   float64
		maxBytes uint64
	}{
		{"sort/base", 7, 1024},
		{"leastsq/cg", 21, 6144},
	} {
		camp, err := Compile(Spec{
			Custom: &CustomSweep{Workload: tc.workload, Rates: []float64{0.05}},
			Trials: 1, Seed: 777,
		})
		if err != nil {
			t.Fatalf("%s: %v", tc.workload, err)
		}
		fn := camp.Plan.Units[0].Fn
		if got := testing.AllocsPerRun(100, func() { trialSink = fn(0.05, 777) }); got != tc.allocs {
			t.Errorf("one %s trial: %v allocations, want %v", tc.workload, got, tc.allocs)
		}
		const runs = 100
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := 0; i < runs; i++ {
			trialSink = fn(0.05, 777)
		}
		runtime.ReadMemStats(&after)
		if b := (after.TotalAlloc - before.TotalAlloc) / runs; b > tc.maxBytes {
			t.Errorf("one %s trial: %d bytes, want at most %d", tc.workload, b, tc.maxBytes)
		}
	}
}

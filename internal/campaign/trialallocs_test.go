package campaign

import (
	"bytes"
	"net/http"
	"net/http/httptest"
	"runtime"
	"runtime/debug"
	"slices"
	"strings"
	"testing"
	"time"

	"robustify/internal/dispatch"
	"robustify/internal/obs"
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

// TestReportAllocs pins the coordinator's allocations for one worker
// report: the real POST /workers/report handler reads, decodes and
// verifies a report of fresh results and sinks it into the store, with a
// hub writing their telemetry. Its buffers are reused from report to
// report, so the count is one fixed number at 1,024 and at
// dispatch.MaxReport results. Its ten are the capped body reader, the
// decoded request's three strings, the two of the Content-Type header,
// and the four the test recorder makes to copy the header and buffer the
// answer. The garbage collector is off while counting, so no collection
// lands in the window.
func TestReportAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("-race adds allocations of its own")
	}
	const runs = 8
	sizes := []int{1024, dispatch.MaxReport}
	total := 0
	for _, n := range sizes {
		total += (runs + 1) * n
	}
	// One trial more than the reports carry keeps the campaign running,
	// so no report also pays for finishing it.
	spec := Spec{
		Custom: &CustomSweep{Workload: "sort/base", Rates: []float64{0.05}},
		Trials: total + 1, Seed: 9,
	}
	camp, err := Compile(spec)
	if err != nil {
		t.Fatal(err)
	}
	m := newManager(t, t.TempDir(), 1)
	defer m.Close()
	hub := obs.NewHub()
	defer hub.Close()
	m.SetHub(hub)
	d := dispatch.New(dispatch.Options{LeaseTTL: time.Minute})
	m.SetDispatcher(d)
	srv := NewServer(m)
	id, err := m.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	worker := d.Register(dispatch.RegisterRequest{Name: "allocs"}).Worker
	var lease *dispatch.LeaseResponse
	for deadline := time.Now().Add(10 * time.Second); lease == nil; time.Sleep(time.Millisecond) {
		if lease, err = d.Lease(dispatch.LeaseRequest{Worker: worker}); err != nil {
			t.Fatal(err)
		}
		if time.Now().After(deadline) {
			t.Fatal("the dispatched campaign never offered a lease")
		}
	}

	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	sweep := camp.Plan.Units[0].Sweep
	next := 0
	for _, n := range sizes {
		bodies := make([][]byte, runs+1)
		for i := range bodies {
			report := dispatch.ReportRequest{Worker: worker, Campaign: lease.Campaign, Lease: lease.Lease}
			for ; len(report.Results) < n; next++ {
				report.Results = append(report.Results, dispatch.TrialResult{
					TrialIdx: next, Rate: 0.05, Seed: sweep.TrialSeed(0, next), Value: float64(next%97) / 7,
				})
			}
			if bodies[i], err = dispatch.AppendReport(nil, &report); err != nil {
				t.Fatal(err)
			}
		}
		// The largest report goes first, as AllocsPerRun's warm-up: the
		// buffers it grows then fit every later one.
		slices.SortFunc(bodies, func(a, b []byte) int { return len(b) - len(a) })
		reqs := make([]*http.Request, len(bodies))
		recs := make([]*httptest.ResponseRecorder, len(bodies))
		for i, body := range bodies {
			reqs[i] = httptest.NewRequest(http.MethodPost, "/workers/report", bytes.NewReader(body))
			recs[i] = httptest.NewRecorder()
		}
		i := 0
		got := testing.AllocsPerRun(runs, func() {
			srv.ServeHTTP(recs[i], reqs[i])
			i++
		})
		for _, rec := range recs {
			if rec.Code != http.StatusOK || strings.Contains(rec.Body.String(), "rejected") {
				t.Fatalf("report answered %d: %s", rec.Code, rec.Body)
			}
		}
		if want := 10.0; got != want {
			t.Errorf("a %d-result report: %v allocations, want %v", n, got, want)
		}
	}
	if st, err := m.Get(id); err != nil || st.Progress.Done != total {
		t.Errorf("after the reports: %+v, %v; want %d trials durable", st.Progress, err, total)
	}
}

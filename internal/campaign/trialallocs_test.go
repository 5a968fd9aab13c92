package campaign

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"runtime"
	"runtime/debug"
	"slices"
	"strings"
	"testing"
	"time"

	"robustify/internal/dispatch"
	"robustify/internal/fpu/faultmodel"
	"robustify/internal/harness"
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

// TestTrialAllocsWithHub pins one sort/base trial on the in-process path
// with a hub attached, as robustd runs it: the fault observer builds the
// unit's recorder, the trial runs, and the sink merges it into the store
// and records its diagnostics (latency sample, fault summary, buffered
// telemetry line). Averaged over 200 distinct trials of a fixed seed,
// so exact, its ten are the trial's own (see TestTrialAllocs), the
// unit's recorder and its collector slot, and the fault summary with its
// counter maps. The lone recorder is handed over without a copy and the
// telemetry line lands in a reused buffer; the trials allocate 977
// bytes, and the ceiling sits below what a copied ~350-byte recorder
// would add. The store is opened for the campaign's plan, so its dense
// cells are sized at open, and the garbage collector is off while
// counting, so neither cell growth nor a collection lands in the window.
func TestTrialAllocsWithHub(t *testing.T) {
	if raceEnabled {
		t.Skip("-race makes sync.Pool drop generators at random")
	}
	const trials, runs = 1000, 200
	camp, err := Compile(Spec{
		Custom: &CustomSweep{Workload: "sort/base", Rates: []float64{0.05}},
		Trials: trials, Seed: 777,
	})
	if err != nil {
		t.Fatal(err)
	}
	st, err := open(t.TempDir(), camp.Plan)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	hub := obs.NewHub()
	defer hub.Close()
	prev := faultmodel.SetUnitObserver(hub.Observer)
	defer faultmodel.SetUnitObserver(prev)
	e := NewExecution(camp, st)
	e.SetHub(hub, "c0001")
	u := camp.Plan.Units[0]
	next := 0
	trial := func() {
		seed := u.Sweep.TrialSeed(0, next)
		tr := harness.Trial{TrialIdx: next, Rate: 0.05, Seed: seed, Dur: 1500 * time.Nanosecond}
		tr.Value = u.Fn(tr.Rate, seed)
		if err := e.record(0, tr); err != nil {
			t.Fatal(err)
		}
		next++
	}
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	got := testing.AllocsPerRun(runs, trial)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for range runs {
		trial()
	}
	runtime.ReadMemStats(&after)
	if want := 10.0; got != want {
		t.Errorf("one sort/base trial through the hub-attached sink: %v allocations, want %v", got, want)
	}
	if b, max := (after.TotalAlloc-before.TotalAlloc)/runs, uint64(1152); b > max {
		t.Errorf("one sort/base trial through the hub-attached sink: %d bytes, want at most %d", b, max)
	}
	if n := st.Done(camp.Plan); n != 1+2*runs {
		t.Errorf("store holds %d trials, want %d", n, 1+2*runs)
	}
}

// TestReportAllocs pins the coordinator's allocations for one worker
// report: the real POST /workers/report handler reads, decodes and
// verifies a report of fresh results and sinks it into the store, with a
// hub attached that writes no line for them. Its buffers are reused from report to
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

// TestLeaseAllocs pins the heap allocations of one lease through the real
// /workers/lease handler at exactly 12: the request is decoded and the
// response encoded by hand, into reused buffers, so no allocation grows
// with the spec. Four are the ResponseRecorder's (its header snapshot
// and body), two the Content-Type header; the rest are the body-limit
// reader, the worker id, the lease table's entry, id and Lease, and the
// LeaseResponse (the decode-and-indent route took 29). Skipped under
// -race; GC is off while it counts.
func TestLeaseAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("-race adds allocations of its own")
	}
	const runs = 8
	spec := Spec{
		Custom: &CustomSweep{Workload: "sort/base", Rates: []float64{0.05}},
		Trials: 16 * (runs + 2), Seed: 9,
	}
	m := newManager(t, t.TempDir(), 1)
	defer m.Close()
	d := dispatch.New(dispatch.Options{LeaseTTL: time.Minute})
	m.SetDispatcher(d)
	srv := NewServer(m)
	if _, err := m.Submit(spec); err != nil {
		t.Fatal(err)
	}
	worker := d.Register(dispatch.RegisterRequest{Name: "allocs"}).Worker
	for deadline := time.Now().Add(10 * time.Second); d.Stats().Jobs == 0; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatal("the campaign was never dispatched")
		}
	}

	body := []byte(`{"worker":"` + worker + `"}`)
	reqs := make([]*http.Request, runs+1)
	recs := make([]*httptest.ResponseRecorder, runs+1)
	for i := range reqs {
		reqs[i] = httptest.NewRequest(http.MethodPost, "/workers/lease", bytes.NewReader(body))
		recs[i] = httptest.NewRecorder()
	}
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	i := 0
	got := testing.AllocsPerRun(runs, func() {
		srv.ServeHTTP(recs[i], reqs[i])
		i++
	})
	for _, rec := range recs {
		var lease dispatch.LeaseResponse
		if rec.Code != http.StatusOK || json.Unmarshal(rec.Body.Bytes(), &lease) != nil || lease.Shard.Count != 16 {
			t.Fatalf("lease answered %d: %s", rec.Code, rec.Body)
		}
	}
	if want := 12.0; got != want {
		t.Errorf("a lease: %v allocations, want %v", got, want)
	}
}

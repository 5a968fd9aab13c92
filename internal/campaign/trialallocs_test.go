package campaign

import (
	"bytes"
	"context"
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
	"robustify/internal/figures"
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

// leaseAllocs takes runs+1 in-process leases of dispatch.MaxReport
// trials each through the steps Consume takes for a lease (acquire, run,
// deliver), the first as AllocsPerRun's warm-up, over a table whose
// floor makes every lease that size, and returns the allocations of one
// lease and the bytes per trial of all of them. The garbage collector is
// off while it counts, so no collection lands in the window.
func leaseAllocs(t *testing.T, e *Execution, tel *obs.Telemetry, runs int) (allocs float64, bytesPerTrial uint64) {
	t.Helper()
	const size = dispatch.MaxReport
	ctx := context.Background()
	src := e.local(size, tel)
	defer src.release()
	lease := func() {
		if !src.Acquire(ctx, 0) || src.slots[0].lease.Shard.Count != size {
			t.Fatalf("lease %+v; want %d trials", src.slots[0].lease, size)
		}
		if err := src.Run(ctx, 0); err != nil {
			t.Fatal(err)
		}
		if err := src.Deliver(ctx, 0); err != nil {
			t.Fatal(err)
		}
	}
	// The counts are exact only when no collection begun on earlier
	// tests' garbage is still finishing as they are taken: at -cpu 1 one
	// added an allocation in about one package run in three.
	runtime.GC()
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	allocs = testing.AllocsPerRun(runs, lease)
	runtime.ReadMemStats(&after)
	if n := e.st.Done(e.camp.Plan); n != (runs+1)*size {
		t.Errorf("store holds %d trials, want %d", n, (runs+1)*size)
	}
	return allocs, (after.TotalAlloc - before.TotalAlloc) / uint64((runs+1)*size)
}

// TestLocalLeaseAllocs pins a lease of an in-process run without a hub
// at exactly four allocations, whatever its size: the lease table's
// entry and id, and RunRange's shared state and the closure its trial
// goroutines run (one of them the consumer's own goroutine). Consume's
// delivery goroutine and hand-off are made once per run, the trial
// function allocates nothing, the store was opened for the plan, and the
// batch and encoding buffers are reused from lease to lease, so the
// store write and the table report add nothing. The count is the
// difference between whole runs of 10 and of 2 leases, over 8, through
// Run's source and consumer.
func TestLocalLeaseAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("-race adds allocations of its own")
	}
	mallocs := func(leases int) uint64 {
		camp := &Campaign{Spec: Spec{Workers: 2}, Plan: &figures.Plan{Units: []figures.Unit{{
			Series: "s", Sweep: harness.Sweep{Rates: []float64{0.5}, Trials: leases * dispatch.MaxReport, Seed: 3},
			Fn: func(rate float64, seed uint64) float64 { return rate },
		}}}}
		st, err := open(t.TempDir(), camp.Plan)
		if err != nil {
			t.Fatal(err)
		}
		defer st.Close()
		src := NewExecution(camp, st).local(dispatch.MaxReport, nil)
		defer src.release()
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		err = dispatch.Consume(context.Background(), src)
		runtime.ReadMemStats(&after)
		if err != nil {
			t.Fatal(err)
		}
		if n := st.Done(camp.Plan); n != camp.Total() {
			t.Fatalf("store holds %d trials, want %d", n, camp.Total())
		}
		return after.Mallocs - before.Mallocs
	}
	// Runs take the oldest spare source: drop the spares, so every run
	// reuses the one the first run warms.
	for len(spareLocals) > 0 {
		<-spareLocals
	}
	// On one processor an exited goroutine is always reused, so no run
	// allocates a new one. No earlier collection may still be finishing
	// (see leaseAllocs).
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	runtime.GC()
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	mallocs(2)
	if got := float64(mallocs(10)-mallocs(2)) / 8; got != 4 {
		t.Errorf("a lease of an in-process run: %v allocations, want 4", got)
	}
}

// TestTrialAllocsWithHub pins sort/base leases on the in-process path
// with a hub attached, as robustd runs them: the fault observer builds
// each unit's recorder, the trials run, the sink takes each trial's
// latency sample and fault recorder, and the lease is merged into the
// store with one write and its telemetry lines appended at once. On one
// trial goroutine a lease of the fixed trials 4,096-20,479 (seed 777)
// averages 31,183 allocations: what its trials allocate, about 7.6
// each (their own, see TestTrialAllocs, and the unit's recorder, which
// the collector's map holds and the telemetry line encodes from its
// counters), and four for the lease (see TestLocalLeaseAllocs).
// Telemetry lines land in a reused buffer. The ceiling on bytes per
// trial sits below what a copied ~350-byte recorder would add.
func TestTrialAllocsWithHub(t *testing.T) {
	if raceEnabled {
		t.Skip("-race makes sync.Pool drop generators at random")
	}
	const runs = 4
	camp, err := Compile(Spec{
		Custom: &CustomSweep{Workload: "sort/base", Rates: []float64{0.05}},
		Trials: (runs + 1) * dispatch.MaxReport, Seed: 777, Workers: 1,
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
	e.hub, e.id = hub, "c0001"
	var got float64
	var b uint64
	hub.WithTelemetry(e.id, st.Dir(), func(tel *obs.Telemetry) error {
		got, b = leaseAllocs(t, e, tel, runs)
		return nil
	})
	if want := 31183.0; got != want {
		t.Errorf("a sort/base lease through the hub-attached consumer: %v allocations, want %v", got, want)
	}
	if max := uint64(1152); b > max {
		t.Errorf("a sort/base trial through the hub-attached consumer: %d bytes, want at most %d", b, max)
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
// /workers/lease handler at exactly 11: the request is decoded and the
// response encoded by hand, into reused buffers, so no allocation grows
// with the spec. Four are the ResponseRecorder's (its header snapshot
// and body), two the Content-Type header; the rest are the body-limit
// reader, the worker id, the lease table's entry and id, and the
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
	if want := 11.0; got != want {
		t.Errorf("a lease: %v allocations, want %v", got, want)
	}
}

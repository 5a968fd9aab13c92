package obs

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"errors"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"robustify/internal/fpu"
)

// bitFlip returns the XOR mask of a single flipped bit.
func bitFlip(bit uint) uint64 { return uint64(1) << bit }

func TestRecorderBitClassification(t *testing.T) {
	r := &FaultRecorder{}
	r.FaultInjected(fpu.OpAdd, 1, bitFlip(63)) // sign
	r.FaultInjected(fpu.OpMul, 2, bitFlip(52)) // lowest exponent bit
	r.FaultInjected(fpu.OpMul, 3, bitFlip(62)) // highest exponent bit
	r.FaultInjected(fpu.OpAdd, 4, bitFlip(0))  // lowest mantissa bit
	r.FaultInjected(fpu.OpAdd, 5, bitFlip(51)) // highest mantissa bit
	r.FaultInjected(fpu.OpDiv, 500, 0b11)      // multi-bit (memory strike)
	if r.Sign != 1 || r.Exponent != 2 || r.Mantissa != 2 || r.MultiBit != 1 {
		t.Errorf("classification = sign %d exp %d man %d multi %d, want 1/2/2/1",
			r.Sign, r.Exponent, r.Mantissa, r.MultiBit)
	}
	if r.ValueFaults != 6 {
		t.Errorf("ValueFaults = %d, want 6", r.ValueFaults)
	}
	if r.PerOp[fpu.OpAdd] != 3 || r.PerOp[fpu.OpMul] != 2 || r.PerOp[fpu.OpDiv] != 1 {
		t.Errorf("PerOp = %v", r.PerOp)
	}
	// Faults at flops 1..5 are within clusterGap of their predecessor; the
	// one at 500 is not. Four clustered hits.
	if r.Clustered != 4 {
		t.Errorf("Clustered = %d, want 4", r.Clustered)
	}
}

func TestRecorderIterationBuckets(t *testing.T) {
	r := &FaultRecorder{}
	r.FaultInjected(fpu.OpAdd, 1, bitFlip(10)) // before any mark: bucket 0
	r.IterationMark()
	r.CompareFault(100) // 1 iteration: bucket 1
	for i := 0; i < 6; i++ {
		r.IterationMark()
	}
	r.FaultInjected(fpu.OpMul, 1000, bitFlip(3)) // 7 iterations: bucket 3 (4-7)
	s := r.Summary()
	if s.ByIter["0"] != 1 || s.ByIter["1"] != 1 || s.ByIter["4-7"] != 1 {
		t.Errorf("ByIter = %v", s.ByIter)
	}
	if s.Compares != 1 || s.Total != 3 {
		t.Errorf("summary = %+v", s)
	}
}

func TestRecorderMergeAndSummary(t *testing.T) {
	a, b := &FaultRecorder{}, &FaultRecorder{}
	a.FaultInjected(fpu.OpAdd, 1, bitFlip(63))
	b.FaultInjected(fpu.OpMul, 2, bitFlip(5))
	b.MemoryFaults(128, 3)
	a.Merge(b)
	if a.ValueFaults != 2 || a.Sign != 1 || a.Mantissa != 1 {
		t.Errorf("merged = %+v", a)
	}
	if a.MemScans != 1 || a.MemWords != 128 || a.MemFaults != 3 {
		t.Errorf("merged memory counters = %d/%d/%d", a.MemScans, a.MemWords, a.MemFaults)
	}
	s := a.Summary()
	if s.Total != 5 { // 2 value + 3 memory
		t.Errorf("Total = %d, want 5", s.Total)
	}
	if s.ByOp["add"] != 1 || s.ByOp["mul"] != 1 {
		t.Errorf("ByOp = %v", s.ByOp)
	}
}

// TestSummaryUnknownOpsAdd: ops 0 and 7 share the name "unknown", so
// their counts add up in the summary and in the recorder's JSON.
func TestSummaryUnknownOpsAdd(t *testing.T) {
	r := &FaultRecorder{ValueFaults: 3}
	r.PerOp[0], r.PerOp[7] = 1, 2
	if got := r.Summary().ByOp["unknown"]; got != 3 {
		t.Errorf(`Summary().ByOp["unknown"] = %d, want 3`, got)
	}
	want, err := json.Marshal(r.Summary())
	if err != nil {
		t.Fatal(err)
	}
	got := r.appendJSON(nil)
	if string(got) != string(want) || !strings.Contains(string(got), `"unknown":3`) {
		t.Errorf("appendJSON = %s\njson.Marshal(Summary) = %s\nwant \"unknown\":3 in both", got, want)
	}
}

// FuzzFaultSummaryJSON: for any counter values, the recorder's JSON,
// written straight from the counters, equals json.Marshal of its
// Summary. The input fills the counters in field order, eight bytes
// each, PerOp and every iteration bucket included; missing bytes read 0.
func FuzzFaultSummaryJSON(f *testing.F) {
	f.Add([]byte{})
	f.Add(binary.LittleEndian.AppendUint64(nil, 1))
	unknown := make([]byte, 8*(2+8))
	unknown[8*2] = 1     // PerOp[0]
	unknown[8*(2+7)] = 2 // PerOp[7]
	f.Add(unknown)
	f.Add(bytes.Repeat([]byte{0xff}, 8*(2+8+5+1+iterBuckets+3)))
	f.Fuzz(func(t *testing.T, data []byte) {
		next := func() uint64 {
			var w [8]byte
			data = data[copy(w[:], data):]
			return binary.LittleEndian.Uint64(w[:])
		}
		r := &FaultRecorder{ValueFaults: next(), CompareFaults: next()}
		for i := range r.PerOp {
			r.PerOp[i] = next()
		}
		r.Sign, r.Exponent, r.Mantissa, r.MultiBit, r.Clustered = next(), next(), next(), next(), next()
		r.Iterations = next()
		for i := range r.IterBucket {
			r.IterBucket[i] = next()
		}
		r.MemScans, r.MemWords, r.MemFaults = next(), next(), next()
		want, err := json.Marshal(r.Summary())
		if err != nil {
			t.Fatal(err)
		}
		if got := r.appendJSON(nil); string(got) != string(want) {
			t.Fatalf("appendJSON = %s\njson.Marshal(Summary) = %s", got, want)
		}
	})
}

func TestCollectorTakeMerges(t *testing.T) {
	c := NewCollector()
	o1 := c.Observer(0.01, 7).(*FaultRecorder)
	o2 := c.Observer(0.01, 7).(*FaultRecorder)   // second unit, same trial
	o3 := c.Observer(0.01, 7).(*FaultRecorder)   // third unit, same trial
	lone := c.Observer(0.01, 8).(*FaultRecorder) // different trial, one unit
	o1.FaultInjected(fpu.OpAdd, 1, bitFlip(63))
	o2.FaultInjected(fpu.OpMul, 2, bitFlip(5))
	o3.CompareFault(3)
	o3.MemoryFaults(64, 2)
	got := c.Take(0.01, 7)
	if got == nil || got.ValueFaults != 2 || got.CompareFaults != 1 || got.MemFaults != 2 || got.Sign != 1 || got.Mantissa != 1 {
		t.Fatalf("Take = %+v, want the three recorders merged", got)
	}
	for _, o := range []*FaultRecorder{o1, o2, o3} {
		if got == o {
			t.Error("Take merged into one of the trial's own recorders")
		}
	}
	if o1.ValueFaults != 1 || o2.ValueFaults != 1 || o3.CompareFaults != 1 {
		t.Error("Take changed one of the trial's own recorders")
	}
	if c.Take(0.01, 7) != nil {
		t.Error("second Take returned recorders again")
	}
	// A trial that built one unit gets its recorder back, not a copy.
	if got := c.Take(0.01, 8); got != lone {
		t.Errorf("Take of a lone recorder = %p, want the recorder itself %p", got, lone)
	}
}

// TestCollectorAllocs: a one-unit trial's Observer and Take allocate
// exactly its recorder.
func TestCollectorAllocs(t *testing.T) {
	c := NewCollector()
	seed := uint64(0)
	n := testing.AllocsPerRun(1000, func() {
		seed++
		c.Observer(0.05, seed).(*FaultRecorder).CompareFault(1)
		if c.Take(0.05, seed) == nil {
			t.Fatal("Take lost the recorder")
		}
	})
	if n != 1 {
		t.Errorf("Observer and Take of a one-unit trial: %v allocations, want 1", n)
	}
}

// TestCollectorCap: every recorder up to collectorCap keys stays
// retrievable, recorders never taken stay bounded by collectorCap, and
// those folded at the cap still reach DrainByRate.
func TestCollectorCap(t *testing.T) {
	c := NewCollector()
	for seed := range uint64(collectorCap) {
		c.Observer(0.01, seed).(*FaultRecorder).CompareFault(seed)
	}
	if got := c.DrainByRate()[0.01]; got == nil || got.CompareFaults != collectorCap {
		t.Fatalf("DrainByRate below the cap = %+v, want all %d recorders", got, collectorCap)
	}
	for seed := range uint64(3 * collectorCap) {
		c.Observer(0.01, seed).(*FaultRecorder).CompareFault(seed)
		if held := len(c.byKey); held > collectorCap {
			t.Fatalf("collector holds %d keys, want at most %d", held, collectorCap)
		}
	}
	if held := len(c.byKey); held == 0 {
		t.Error("collector holds no keys after the last Observer")
	}
	byRate := c.DrainByRate()
	if got := byRate[0.01]; len(byRate) != 1 || got == nil || got.CompareFaults != 3*collectorCap {
		t.Errorf("DrainByRate past the cap = %d rates, %+v; want one rate with all %d faults",
			len(byRate), got, 3*collectorCap)
	}
}

func TestCollectorDrainByRate(t *testing.T) {
	c := NewCollector()
	c.Observer(0.01, 1).(*FaultRecorder).FaultInjected(fpu.OpAdd, 1, bitFlip(63))
	c.Observer(0.01, 2).(*FaultRecorder).FaultInjected(fpu.OpAdd, 1, bitFlip(5))
	c.Observer(0.1, 1).(*FaultRecorder).CompareFault(9)
	// Three units of one trial: a chain of three recorders under one key.
	for range 3 {
		c.Observer(0.1, 2).(*FaultRecorder).MemoryFaults(8, 1)
	}
	byRate := c.DrainByRate()
	if len(byRate) != 2 {
		t.Fatalf("DrainByRate = %d rates, want 2", len(byRate))
	}
	if r := byRate[0.1]; byRate[0.01].ValueFaults != 2 || r.CompareFaults != 1 || r.MemScans != 3 || r.MemFaults != 3 {
		t.Errorf("byRate = %+v / %+v", byRate[0.01], byRate[0.1])
	}
	if c.Take(0.01, 1) != nil || c.Take(0.1, 2) != nil || len(c.DrainByRate()) != 0 {
		t.Error("recorders left after a drain")
	}
}

func TestRingWrapsAndOrders(t *testing.T) {
	r := NewRing(3)
	for i := 0; i < 5; i++ {
		r.Emit("kind", "c0001", string(rune('a'+i)))
	}
	evs := r.Snapshot()
	if len(evs) != 3 {
		t.Fatalf("Snapshot len = %d, want 3", len(evs))
	}
	// Oldest-first, holding the last three emits (c, d, e) with
	// monotonically increasing sequence numbers.
	for i, want := range []string{"c", "d", "e"} {
		if evs[i].Detail != want {
			t.Errorf("evs[%d].Detail = %q, want %q", i, evs[i].Detail, want)
		}
		if i > 0 && evs[i].Seq != evs[i-1].Seq+1 {
			t.Errorf("Seq not contiguous: %d after %d", evs[i].Seq, evs[i-1].Seq)
		}
	}
}

// TestHistPromExposition is the golden test for the text exposition
// format: cumulative le buckets, _sum, _count, sorted labels.
func TestHistPromExposition(t *testing.T) {
	s := NewHistSet()
	s.Observe("lp", 2*time.Millisecond)  // le 0.0025 bucket
	s.Observe("lp", 40*time.Millisecond) // le 0.05
	s.Observe("apsp", 20*time.Second)    // +Inf
	// _sum is exact to the nanosecond: sub-microsecond parts of 1,000
	// trials of 1.5µs add up instead of truncating to 0.001.
	for i := 0; i < 1000; i++ {
		s.Observe("sort", 1500*time.Nanosecond)
	}
	var b strings.Builder
	s.WriteProm(&b, "x_seconds")
	got := b.String()
	for _, want := range []string{
		"# TYPE x_seconds histogram\n",
		`x_seconds_bucket{workload="apsp",le="10"} 0` + "\n",
		`x_seconds_bucket{workload="apsp",le="+Inf"} 1` + "\n",
		`x_seconds_sum{workload="apsp"} 20` + "\n",
		`x_seconds_count{workload="apsp"} 1` + "\n",
		`x_seconds_bucket{workload="lp",le="0.001"} 0` + "\n",
		`x_seconds_bucket{workload="lp",le="0.0025"} 1` + "\n",
		`x_seconds_bucket{workload="lp",le="0.05"} 2` + "\n",
		`x_seconds_bucket{workload="lp",le="+Inf"} 2` + "\n",
		`x_seconds_count{workload="lp"} 2` + "\n",
		`x_seconds_sum{workload="sort"} 0.0015` + "\n",
		`x_seconds_count{workload="sort"} 1000` + "\n",
	} {
		if !strings.Contains(got, want) {
			t.Errorf("exposition missing %q:\n%s", want, got)
		}
	}
	// apsp sorts before lp.
	if strings.Index(got, `workload="apsp"`) > strings.Index(got, `workload="lp"`) {
		t.Errorf("labels not sorted:\n%s", got)
	}
}

func TestTelemetryAppendAndFloat(t *testing.T) {
	dir := t.TempDir()
	tel, err := OpenTelemetry(dir)
	if err != nil {
		t.Fatal(err)
	}
	rec := TrialRecord{
		Campaign: "c0001", Unit: "lp", Series: "robust",
		Rate: 0.01, Seed: 42, Value: Float(math.NaN()),
	}
	if err := tel.Append("trial", rec); err != nil {
		t.Fatal(err)
	}
	if err := tel.Close(); err != nil {
		t.Fatal(err)
	}
	b, err := os.ReadFile(filepath.Join(dir, TelemetryFile))
	if err != nil {
		t.Fatal(err)
	}
	var env struct {
		TS   time.Time       `json:"ts"`
		Kind string          `json:"kind"`
		Rec  json.RawMessage `json:"rec"`
	}
	if err := json.Unmarshal(b, &env); err != nil {
		t.Fatalf("envelope does not parse: %v\n%s", err, b)
	}
	if env.Kind != "trial" || env.TS.IsZero() {
		t.Errorf("envelope = %+v", env)
	}
	if !strings.Contains(string(env.Rec), `"value":"NaN"`) {
		t.Errorf("NaN value not stringified: %s", env.Rec)
	}
}

func TestHubNilSafe(t *testing.T) {
	var h *Hub
	h.Emit("x", "c", "d")
	h.SetMirrorEvents(true)
	h.RegisterCampaign("c", "dir")
	h.ObserveTrial("lp", time.Second)
	errRun := errors.New("run")
	if err := h.WithTelemetry("c", "dir", func(tel *Telemetry) error {
		if tel != nil {
			t.Error("nil hub opened a writer")
		}
		return errRun
	}); err != errRun {
		t.Errorf("nil hub's WithTelemetry returned %v, want the run's error", err)
	}
	if h.Observer(0.1, 1) != nil {
		t.Error("nil hub returned an observer")
	}
	if h.TakeFaults(0.1, 1) != nil {
		t.Error("nil hub returned a recorder")
	}
	if h.Events() != nil {
		t.Error("nil hub returned events")
	}
	h.WriteMetrics(&strings.Builder{})
	if err := h.Close(); err != nil {
		t.Error(err)
	}
}

func TestHubMirrorEvents(t *testing.T) {
	dir := t.TempDir()
	h := NewHub()
	defer h.Close()
	h.SetMirrorEvents(true)
	h.RegisterCampaign("c0001", dir)
	h.Emit("campaign.running", "c0001", "")
	h.Emit("lease.acquired", "c9999", "not registered; ring only")
	if got := len(h.Events()); got != 2 {
		t.Errorf("ring has %d events, want 2", got)
	}
	b, err := os.ReadFile(filepath.Join(dir, TelemetryFile))
	if err != nil {
		t.Fatalf("mirrored telemetry missing: %v", err)
	}
	lines := strings.Split(strings.TrimSpace(string(b)), "\n")
	if len(lines) != 1 || !strings.Contains(lines[0], "campaign.running") {
		t.Errorf("telemetry = %q, want exactly the registered campaign's event", lines)
	}
}

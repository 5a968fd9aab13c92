// Package obs is the repository's observability layer: fault-placement
// telemetry, lifecycle trace events, latency histograms, and the telemetry
// JSONL sidecar written next to campaign stores.
//
// Everything here is deterministic-safe by construction. Fault recorders
// are passive fpu.Observer taps that consume no randomness and never touch
// a committed value, so attaching them cannot perturb a per-seed pin.
// Wall-clock timestamps are allowed in this package — but only on the
// diagnostics side (ring events, telemetry JSONL); nothing here ever
// writes into a campaign store or any other resume-identity artifact.
// TestTelemetryDoesNotPerturbStore (internal/campaign) holds that split:
// a campaign run with the hub attached records the same trials and the
// same spec.json bytes as one without.
package obs

import (
	"math/bits"
	"slices"
	"strconv"
	"strings"

	"robustify/internal/fpu"
	"robustify/internal/jsonl"
)

// clusterGap is the maximum FLOP distance between two consecutive faults
// for the second to count as "clustered" — the signature of the burst
// model's low-voltage windows (default window ~64 FLOPs, so consecutive
// strikes inside a window land well within 8 ops of each other) versus the
// default model's LFSR gaps (mean 1/rate FLOPs, ≫ 8 at every swept rate).
const clusterGap = 8

// iterBuckets is the number of log2 iteration buckets a recorder tracks:
// bucket k counts faults injected while the solver had completed
// [2^(k-1), 2^k) iterations (bucket 0 = before the first iteration mark).
// 2^20 iterations exceeds every workload in the repo.
const iterBuckets = 21

// FaultRecorder accumulates fault-placement counters for one fpu.Unit. It
// implements fpu.Observer. The zero value is ready to use.
//
// A recorder is written by the single goroutine running its unit and must
// only be read after that unit's trial completes (the harness delivers
// results on the computing goroutine, so a Sink reading the recorder for
// its own trial is safe).
type FaultRecorder struct {
	// ValueFaults counts corrupted FPU results; CompareFaults counts
	// inverted comparisons (flag corruption, no value bits involved).
	ValueFaults   uint64
	CompareFaults uint64

	// PerOp counts faults by operation class, indexed by fpu.Op.
	PerOp [8]uint64

	// Sign, Exponent, and Mantissa classify value faults by the IEEE-754
	// field of the highest flipped bit. MultiBit counts faults that
	// flipped more than one bit (memory strikes can; the FLOP-level
	// models flip exactly one).
	Sign     uint64
	Exponent uint64
	Mantissa uint64
	MultiBit uint64

	// Clustered counts faults landing within clusterGap FLOPs of the
	// previous fault — burst-window occupancy.
	Clustered uint64

	// Iterations counts solver iteration marks; IterBucket[k] counts
	// faults injected in log2 iteration bucket k.
	Iterations uint64
	IterBucket [iterBuckets]uint64

	// MemScans counts memory-strike passes over stored vectors, MemWords
	// the words scanned, and MemFaults the words corrupted.
	MemScans  uint64
	MemWords  uint64
	MemFaults uint64

	lastFlop uint64
	haveLast bool

	// next is the recorder registered before this one under the same
	// Collector key (see Collector).
	next *FaultRecorder
}

var _ fpu.Observer = (*FaultRecorder)(nil)

// FaultInjected implements fpu.Observer.
func (r *FaultRecorder) FaultInjected(op fpu.Op, flop uint64, flipped uint64) {
	r.ValueFaults++
	if int(op) < len(r.PerOp) {
		r.PerOp[op]++
	}
	switch hi := bits.Len64(flipped); {
	case bits.OnesCount64(flipped) > 1:
		r.MultiBit++
	case hi == 64:
		r.Sign++
	case hi >= 53: // bits 52..62: exponent field
		r.Exponent++
	case hi >= 1:
		r.Mantissa++
	}
	r.placed(flop)
}

// CompareFault implements fpu.Observer.
func (r *FaultRecorder) CompareFault(flop uint64) {
	r.CompareFaults++
	r.PerOp[fpu.OpCmp]++
	r.placed(flop)
}

// MemoryFaults implements fpu.Observer.
func (r *FaultRecorder) MemoryFaults(words int, faults uint64) {
	r.MemScans++
	r.MemWords += uint64(words)
	r.MemFaults += faults
}

// IterationMark implements fpu.Observer.
func (r *FaultRecorder) IterationMark() { r.Iterations++ }

// placed updates the placement statistics shared by value and compare
// faults: the iteration bucket and the burst-clustering counter.
func (r *FaultRecorder) placed(flop uint64) {
	if b := bits.Len64(r.Iterations); b < iterBuckets {
		r.IterBucket[b]++
	} else {
		r.IterBucket[iterBuckets-1]++
	}
	if r.haveLast && flop-r.lastFlop <= clusterGap {
		r.Clustered++
	}
	r.lastFlop = flop
	r.haveLast = true
}

// Merge folds other into r. Trial functions may build several faulty units
// (one per solver under test); the collector merges their recorders into
// one per-trial summary.
func (r *FaultRecorder) Merge(other *FaultRecorder) {
	if other == nil {
		return
	}
	r.ValueFaults += other.ValueFaults
	r.CompareFaults += other.CompareFaults
	for i := range r.PerOp {
		r.PerOp[i] += other.PerOp[i]
	}
	r.Sign += other.Sign
	r.Exponent += other.Exponent
	r.Mantissa += other.Mantissa
	r.MultiBit += other.MultiBit
	r.Clustered += other.Clustered
	r.Iterations += other.Iterations
	for i := range r.IterBucket {
		r.IterBucket[i] += other.IterBucket[i]
	}
	r.MemScans += other.MemScans
	r.MemWords += other.MemWords
	r.MemFaults += other.MemFaults
}

// mergeChain folds chain and every recorder chained after it into r.
func (r *FaultRecorder) mergeChain(chain *FaultRecorder) {
	for ; chain != nil; chain = chain.next {
		r.Merge(chain)
	}
}

// Total returns the number of recorded faults of all kinds.
func (r *FaultRecorder) Total() uint64 {
	return r.ValueFaults + r.CompareFaults + r.MemFaults
}

// FaultSummary is the decoded form of a recorder's JSON, the "faults"
// object of a telemetry trial line and of robustbench's -telemetry
// report. Zero-valued fields are omitted so the common case (few faults,
// one model family) stays compact.
type FaultSummary struct {
	Total      uint64            `json:"total"`
	Compares   uint64            `json:"compares,omitempty"`
	ByOp       map[string]uint64 `json:"by_op,omitempty"`
	Sign       uint64            `json:"sign,omitempty"`
	Exponent   uint64            `json:"exponent,omitempty"`
	Mantissa   uint64            `json:"mantissa,omitempty"`
	MultiBit   uint64            `json:"multi_bit,omitempty"`
	Clustered  uint64            `json:"clustered,omitempty"`
	Iterations uint64            `json:"iterations,omitempty"`
	ByIter     map[string]uint64 `json:"by_iter_bucket,omitempty"`
	MemScans   uint64            `json:"mem_scans,omitempty"`
	MemWords   uint64            `json:"mem_words,omitempty"`
	MemFaults  uint64            `json:"mem_faults,omitempty"`
}

// MarshalJSON encodes r as json.Marshal encodes r.Summary().
func (r *FaultRecorder) MarshalJSON() ([]byte, error) { return r.appendJSON(nil), nil }

// appendJSON appends r exactly as json.Marshal encodes r.Summary(), but
// straight from the counters: omitempty fields skipped, the by_op and
// by_iter_bucket keys in sorted order, no map built.
func (r *FaultRecorder) appendJSON(b []byte) []byte {
	b = append(b, `{"total":`...)
	b = strconv.AppendUint(b, r.Total(), 10)
	b = appendCount(b, `,"compares":`, r.CompareFaults)
	b = appendCounters(b, `,"by_op":`, opKeys, r.PerOp[:])
	b = appendCount(b, `,"sign":`, r.Sign)
	b = appendCount(b, `,"exponent":`, r.Exponent)
	b = appendCount(b, `,"mantissa":`, r.Mantissa)
	b = appendCount(b, `,"multi_bit":`, r.MultiBit)
	b = appendCount(b, `,"clustered":`, r.Clustered)
	b = appendCount(b, `,"iterations":`, r.Iterations)
	b = appendCounters(b, `,"by_iter_bucket":`, iterKeys, r.IterBucket[:])
	b = appendCount(b, `,"mem_scans":`, r.MemScans)
	b = appendCount(b, `,"mem_words":`, r.MemWords)
	b = appendCount(b, `,"mem_faults":`, r.MemFaults)
	return append(b, '}')
}

// appendCount appends an omitempty counter field (key includes its
// leading comma and trailing colon).
func appendCount(b []byte, key string, n uint64) []byte {
	if n == 0 {
		return b
	}
	return strconv.AppendUint(append(b, key...), n, 10)
}

// counterKey is one key of a counter map in Summary: its encoded form
// ("name":) and the counter indices whose nonzero counts it sums.
type counterKey struct {
	prefix string
	idx    []int
}

// opKeys and iterKeys are the keys of Summary's ByOp and ByIter maps in
// the sorted order encoding/json writes map keys.
var (
	opKeys   = counterKeys(len(FaultRecorder{}.PerOp), func(i int) string { return fpu.Op(i).String() })
	iterKeys = counterKeys(iterBuckets, iterBucketLabel)
)

// counterKeys groups counter indices 0..n-1 by their label, sorted by
// label.
func counterKeys(n int, label func(int) string) []counterKey {
	var keys []counterKey
	for i := range n {
		name := label(i)
		j := slices.IndexFunc(keys, func(k counterKey) bool { return k.prefix == name })
		if j < 0 {
			j = len(keys)
			keys = append(keys, counterKey{prefix: name})
		}
		keys[j].idx = append(keys[j].idx, i)
	}
	slices.SortFunc(keys, func(a, b counterKey) int { return strings.Compare(a.prefix, b.prefix) })
	for i := range keys {
		keys[i].prefix = string(append(jsonl.AppendString(nil, keys[i].prefix), ':'))
	}
	return keys
}

// appendCounters appends an omitempty counter map field as json.Marshal
// encodes the map Summary builds from counts: a key is present when one
// of its counters is nonzero, with their sum.
func appendCounters(b []byte, field string, keys []counterKey, counts []uint64) []byte {
	open := false
	for _, k := range keys {
		var n uint64
		set := false
		for _, i := range k.idx {
			if counts[i] > 0 {
				n += counts[i]
				set = true
			}
		}
		if !set {
			continue
		}
		if open {
			b = append(b, ',')
		} else {
			b = append(append(b, field...), '{')
			open = true
		}
		b = strconv.AppendUint(append(b, k.prefix...), n, 10)
	}
	if open {
		b = append(b, '}')
	}
	return b
}

// Summary converts the counters to the FaultSummary that r's JSON
// decodes to.
func (r *FaultRecorder) Summary() FaultSummary {
	s := FaultSummary{
		Total:      r.Total(),
		Compares:   r.CompareFaults,
		Sign:       r.Sign,
		Exponent:   r.Exponent,
		Mantissa:   r.Mantissa,
		MultiBit:   r.MultiBit,
		Clustered:  r.Clustered,
		Iterations: r.Iterations,
		MemScans:   r.MemScans,
		MemWords:   r.MemWords,
		MemFaults:  r.MemFaults,
	}
	for op, n := range r.PerOp {
		if n > 0 {
			if s.ByOp == nil {
				s.ByOp = make(map[string]uint64)
			}
			s.ByOp[fpu.Op(op).String()] += n // ops 0 and 7 are both "unknown"
		}
	}
	for b, n := range r.IterBucket {
		if n > 0 {
			if s.ByIter == nil {
				s.ByIter = make(map[string]uint64)
			}
			s.ByIter[iterBucketLabel(b)] = n
		}
	}
	return s
}

// iterBucketLabel names log2 bucket b as an iteration range.
func iterBucketLabel(b int) string {
	if b == 0 {
		return "0"
	}
	lo := uint64(1) << (b - 1)
	hi := uint64(1)<<b - 1
	if b == iterBuckets-1 {
		return strconv.FormatUint(lo, 10) + "+"
	}
	if lo == hi {
		return strconv.FormatUint(lo, 10)
	}
	return strconv.FormatUint(lo, 10) + "-" + strconv.FormatUint(hi, 10)
}

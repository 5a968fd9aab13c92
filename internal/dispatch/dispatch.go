// Package dispatch shards campaign trial grids across a fleet of
// pull-based workers.
//
// The coordinator side (owned by robustd's campaign manager) carves each
// campaign's deterministic (unit, rate, trial) grid into contiguous
// shards as leases are granted, sizing each from the asking worker's
// measured rate (guided self-scheduling), hands them out as time-limited
// leases to whichever registered worker asks first, and merges the trial
// results workers stream back. Leases that expire — a worker was killed,
// wedged, or partitioned — hand their range back for re-leasing, so every
// trial is executed by someone and none is ever lost. Workers pull: they
// register, poll for a lease, execute the shard from (spec, unit, rate
// index, trial index) alone — trial seeds derive from the spec, so any
// worker computes bit-identical values — and report results, normally
// once per lease; on a long lease the heartbeat reports renew it.
//
// The package is deliberately campaign-agnostic: it deals in grid
// dimensions, trial keys, and opaque spec payloads. The campaign engine
// supplies `durable` (a bitset per unit of the trials already durable),
// `verify` (does a reported result carry the seed/rate the grid
// dictates), and `sink` (merge results into the dedup-keyed store);
// workers get the spec bytes verbatim and compile them with the same code
// the coordinator used.
// Because the store collapses duplicate trial keys and every value is
// deterministic in its seed, result merging is order- and
// duplication-insensitive: a campaign executed by any number of workers,
// with any interleaving of lease expiry and reassignment, materializes a
// table byte-identical to a single-process run.
package dispatch

import (
	"encoding/json"
	"errors"
	"sync"
	"time"
)

// Key addresses one trial in a campaign grid.
type Key struct {
	Unit     int
	RateIdx  int
	TrialIdx int
}

// UnitGrid is the shape of one unit's rate×trial grid — all the
// coordinator needs to carve leases without knowing what the trials do.
// Trials is taken as given: the campaign passes its sweep's PerCell, the
// rule workers linearize shards with, and a 0-trial grid is empty.
type UnitGrid struct {
	Rates  int `json:"rates"`
	Trials int `json:"trials"`
}

// size is the unit's linearized grid length.
func (g UnitGrid) size() int { return g.Rates * g.Trials }

// Shard is a contiguous slice of one unit's linearized grid: indices
// [Start, Start+Count) with index = rateIdx*trials + trialIdx. None of
// them is durable when the lease is granted, so the worker runs them all.
type Shard struct {
	Unit  int `json:"unit"`
	Start int `json:"start"`
	Count int `json:"count"`
}

// TrialResult is one executed trial: an element of a worker report and,
// as campaign.Record, one line of the campaign store. Both are written by
// AppendResult and read by one parser (DecodeResult for a store line,
// DecodeReport for a report).
type TrialResult struct {
	Unit     int     `json:"u"`
	RateIdx  int     `json:"r"`
	TrialIdx int     `json:"t"`
	Rate     float64 `json:"rate"`
	Seed     uint64  `json:"seed"`
	Value    float64 `json:"v"`
	// Series is informational: the store writes the unit's series name
	// at write time; workers leave it empty.
	Series string `json:"s,omitempty"`
}

// Key returns the trial's grid address.
func (r TrialResult) Key() Key { return Key{r.Unit, r.RateIdx, r.TrialIdx} }

// Pending collects a running lease's results from its trial goroutines
// for the goroutine holding the lease, which reports them (robustworker)
// or merges them into the store (an in-process campaign).
type Pending struct {
	mu      sync.Mutex
	results []TrialResult
}

// Add appends r.
func (p *Pending) Add(r TrialResult) {
	p.mu.Lock()
	p.results = append(p.results, r)
	p.mu.Unlock()
}

// Take returns the results added since the last Take and collects later
// ones in next.
func (p *Pending) Take(next []TrialResult) (got []TrialResult) {
	p.mu.Lock()
	got, p.results = p.results, next
	p.mu.Unlock()
	return got
}

// Wire messages for the three worker endpoints robustd serves
// (POST /workers/register, /workers/lease, /workers/report). Durations
// travel as time.Duration's default integer nanoseconds — both ends are
// this codebase.

// RegisterRequest announces a worker to the coordinator.
type RegisterRequest struct {
	Name string `json:"name,omitempty"`
}

// RegisterResponse assigns the worker its id and the lease TTL it must
// heartbeat within.
type RegisterResponse struct {
	Worker   string        `json:"worker"`
	LeaseTTL time.Duration `json:"lease_ttl"`
}

// LeaseRequest asks for a shard to execute.
type LeaseRequest struct {
	Worker string `json:"worker"`
}

// LeaseResponse hands the worker one leased shard plus everything needed
// to execute it deterministically: the campaign's spec bytes (compiled
// worker-side with the same code the coordinator used) and the shard's
// grid coordinates.
type LeaseResponse struct {
	Lease    string          `json:"lease"`
	Campaign string          `json:"campaign"`
	Spec     json.RawMessage `json:"spec"`
	Shard    Shard           `json:"shard"`
	TTL      time.Duration   `json:"ttl"`
}

// ReportRequest streams a batch of results for a leased shard. An empty
// Results slice is a pure heartbeat (renews the lease). Done marks the
// worker's claim that it finished the shard; the coordinator trusts the
// durable record, not the claim — a done shard with trials still missing
// goes back to the pending pool.
type ReportRequest struct {
	Worker   string        `json:"worker"`
	Campaign string        `json:"campaign"`
	Lease    string        `json:"lease"`
	Results  []TrialResult `json:"results,omitempty"`
	Done     bool          `json:"done,omitempty"`
}

// ReportResponse tells the worker whether to keep going. Lost means the
// lease is gone — expired, reassigned, campaign finished or cancelled —
// and the worker should abandon the shard and ask for a new lease.
// Rejected counts results from this batch the coordinator refused
// (out-of-grid or failed seed/rate verification): a non-zero value means
// this worker computes a different grid than the coordinator — version
// skew — and re-executing the shard can only produce the same rejects,
// so the worker should stop serving the campaign, not retry.
type ReportResponse struct {
	Lost     bool `json:"lost,omitempty"`
	Rejected int  `json:"rejected,omitempty"`
}

// ErrUnknownWorker is returned (and mapped over HTTP 404) when a lease
// or report names a worker id the coordinator has no record of — the
// canonical sign of a coordinator restart. Workers re-register and
// continue.
var ErrUnknownWorker = errors.New("dispatch: unknown worker")

// EventSink receives lease lifecycle trace events (lease.acquired,
// lease.expired, shard.requeued). The interface is defined here rather
// than importing the observability layer so dispatch stays standalone;
// *obs.Hub satisfies it. Sinks must be cheap and concurrency-safe: they
// are called with lease-table locks held.
type EventSink interface {
	Emit(kind, campaign, detail string)
}

// Options configure a Coordinator.
type Options struct {
	// LeaseTTL is how long a worker may go between reports before its
	// lease expires and the shard is reassigned (0 = 30s).
	LeaseTTL time.Duration
	// ShardSize is the size of a worker's first lease in a campaign, and
	// the floor of every later one (0 = 16). Later leases are sized from
	// the worker's measured rate to about 100 ms of work, at most
	// MaxReport trials.
	ShardSize int
	// WorkersExpected is the operator-declared fleet size; informational
	// (surfaced in /metrics), never a gate on dispatch.
	WorkersExpected int
	// Events, if non-nil, receives lease lifecycle trace events.
	Events EventSink
}

func (o Options) leaseTTL() time.Duration {
	if o.LeaseTTL <= 0 {
		return 30 * time.Second
	}
	return o.LeaseTTL
}

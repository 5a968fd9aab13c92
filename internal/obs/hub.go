package obs

import (
	"encoding/json"
	"io"
	"log"
	"net/http"
	"sync"
	"time"

	"robustify/internal/fpu"
)

// defaultRingSize is the number of lifecycle events retained for
// GET /debug/events.
const defaultRingSize = 2048

// Hub is the process-wide observability context: the event ring, the
// fault-recorder collector, trial-latency histograms, and the telemetry
// writers of running campaigns. A nil *Hub is a valid no-op on every
// method, so instrumented code can call unconditionally.
type Hub struct {
	events    *Ring
	collector *Collector
	trialLat  *HistSet

	// mu also orders mirrored events with the runs' writers: a writer is
	// registered, unregistered and closed under it, so an event never
	// lands in a writer its run has closed.
	mu     sync.Mutex
	dirs   map[string]string     // campaign id → dir, for event mirroring
	runs   map[string]*Telemetry // campaign id → the writer of its running run
	mirror bool
}

// NewHub returns a hub with an empty ring and collector.
func NewHub() *Hub {
	return &Hub{
		events:    NewRing(defaultRingSize),
		collector: NewCollector(),
		trialLat:  NewHistSet(),
		dirs:      make(map[string]string),
		runs:      make(map[string]*Telemetry),
	}
}

// SetMirrorEvents enables (or disables) mirroring lifecycle events into
// the telemetry JSONL of the campaign they concern.
func (h *Hub) SetMirrorEvents(on bool) {
	if h == nil {
		return
	}
	h.mu.Lock()
	h.mirror = on
	h.mu.Unlock()
}

// Emit records one lifecycle event in the ring and, when mirroring is on
// and the campaign has a registered directory, appends it to that
// campaign's telemetry: through its running run's writer, after the
// trial lines appended before it, or, for an idle campaign, by opening
// the sidecar for the one line and closing it again.
func (h *Hub) Emit(kind, campaign, detail string) {
	if h == nil {
		return
	}
	h.events.Emit(kind, campaign, detail)
	h.mu.Lock()
	defer h.mu.Unlock()
	dir := h.dirs[campaign]
	if !h.mirror || dir == "" {
		return
	}
	rec := map[string]string{"kind": kind, "campaign": campaign, "detail": detail}
	var err error
	if t := h.runs[campaign]; t != nil {
		err = t.Append("event", rec)
	} else if t, err = OpenTelemetry(dir); err == nil {
		err = t.Append("event", rec)
		if cerr := t.Close(); err == nil {
			err = cerr
		}
	}
	if err != nil {
		log.Printf("obs: mirror event: %v", err)
	}
}

// Events returns the retained lifecycle events, oldest first.
func (h *Hub) Events() []Event {
	if h == nil {
		return nil
	}
	return h.events.Snapshot()
}

// EventsHandler serves the ring as a JSON array (GET /debug/events).
func (h *Hub) EventsHandler() http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		writeEventsJSON(w, h.Events())
	}
}

// RegisterCampaign associates a campaign id with its store directory so
// its mirrored events land beside the right store.
func (h *Hub) RegisterCampaign(id, dir string) {
	if h == nil || id == "" || dir == "" {
		return
	}
	h.mu.Lock()
	h.dirs[id] = dir
	h.mu.Unlock()
}

// Observer manufactures a fault recorder for a faulty unit at (rate,
// seed); it has the signature faultmodel.SetUnitObserver expects. On a nil
// hub it returns nil (no observer attached).
func (h *Hub) Observer(rate float64, seed uint64) fpu.Observer {
	if h == nil {
		return nil
	}
	return h.collector.Observer(rate, seed)
}

// TakeFaults removes the fault recorders registered under (rate, seed)
// and returns them merged (see Collector.Take); nil when none (or on a
// nil hub).
func (h *Hub) TakeFaults(rate float64, seed uint64) *FaultRecorder {
	if h == nil {
		return nil
	}
	return h.collector.Take(rate, seed)
}

// ObserveTrial records one trial latency under the given workload label.
func (h *Hub) ObserveTrial(label string, d time.Duration) {
	if h == nil {
		return
	}
	h.trialLat.Observe(label, d)
}

// WithTelemetry runs fn with the telemetry writer of one run of
// campaign id, whose store is in dir, and is the one owner of that
// writer: it opens dir's sidecar (creating it) when the run starts and
// makes it the writer of the campaign's mirrored events; when fn returns
// it unregisters the writer, writes its buffered lines and closes the
// file. On a nil hub, or when the sidecar cannot be opened (logged), fn
// gets nil: telemetry never fails a run.
func (h *Hub) WithTelemetry(id, dir string, fn func(*Telemetry) error) error {
	if h == nil {
		return fn(nil)
	}
	t, err := OpenTelemetry(dir)
	if err != nil {
		log.Printf("obs: %v", err)
		return fn(nil)
	}
	h.mu.Lock()
	h.runs[id] = t
	h.mu.Unlock()
	defer func() {
		h.mu.Lock()
		defer h.mu.Unlock()
		if h.runs[id] == t {
			delete(h.runs, id)
		}
		if err := t.Close(); err != nil {
			log.Printf("obs: close telemetry: %v", err)
		}
	}()
	return fn(t)
}

// WriteMetrics writes the hub's Prometheus metrics (currently the
// per-workload trial latency histograms).
func (h *Hub) WriteMetrics(w io.Writer) {
	if h == nil {
		return
	}
	h.trialLat.WriteProm(w, "robustd_trial_duration_seconds")
}

// writeEventsJSON writes a snapshot of the event ring as indented JSON.
// The events' timestamps are diagnostics served over HTTP, never a stored
// artifact.
func writeEventsJSON(w io.Writer, events []Event) {
	if events == nil {
		events = []Event{}
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	if err := enc.Encode(events); err != nil {
		log.Printf("obs: write events: %v", err)
	}
}

// Close writes and closes the writers of runs still registered, such as
// a run wedged past a bounded shutdown. Such a run's later trial appends
// fail (logged); a later event is appended as an idle campaign's is.
func (h *Hub) Close() error {
	if h == nil {
		return nil
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	var first error
	for id, t := range h.runs {
		if err := t.Close(); err != nil && first == nil {
			first = err
		}
		delete(h.runs, id)
	}
	return first
}

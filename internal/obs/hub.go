package obs

import (
	"encoding/json"
	"errors"
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
// fault-recorder collector, trial-latency histograms, and the per-campaign
// telemetry writers. A nil *Hub is a valid no-op on every method, so
// instrumented code can call unconditionally.
type Hub struct {
	events    *Ring
	collector *Collector
	trialLat  *HistSet

	mu     sync.Mutex
	tele   map[string]*Telemetry // open writers, keyed by campaign dir
	dirs   map[string]string     // campaign id → dir, for event mirroring
	failed map[string]bool       // dirs whose telemetry failed to open or was dropped (logged once)
	mirror bool
	closed bool // set by Close: telemetry is never reopened after it
}

// NewHub returns a hub with an empty ring and collector.
func NewHub() *Hub {
	return &Hub{
		events:    NewRing(defaultRingSize),
		collector: NewCollector(),
		trialLat:  NewHistSet(),
		tele:      make(map[string]*Telemetry),
		dirs:      make(map[string]string),
		failed:    make(map[string]bool),
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
// campaign's telemetry.
func (h *Hub) Emit(kind, campaign, detail string) {
	if h == nil {
		return
	}
	h.events.Emit(kind, campaign, detail)
	h.mu.Lock()
	mirror := h.mirror
	dir := ""
	if mirror && campaign != "" {
		dir = h.dirs[campaign]
	}
	h.mu.Unlock()
	if dir == "" {
		return
	}
	rec := map[string]string{"kind": kind, "campaign": campaign, "detail": detail}
	if err := h.appendTo(dir, func(t *Telemetry) error {
		return t.Append("event", rec)
	}); err != nil {
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
// per-trial telemetry and mirrored events land beside the right store.
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

// AppendTrial buffers one per-trial telemetry record for the campaign
// store in dir (see Telemetry for when it is written). Failures are
// logged, not propagated: telemetry must never fail a trial.
func (h *Hub) AppendTrial(dir string, rec TrialRecord) {
	if h == nil || dir == "" {
		return
	}
	if err := h.appendTo(dir, func(t *Telemetry) error {
		return t.appendTrial("trial", &rec)
	}); err != nil {
		log.Printf("obs: append trial telemetry: %v", err)
	}
}

// appendTo runs app on dir's writer, opening it on first use. A writer
// closed between the lookup and the append (its campaign's run ended
// meanwhile, as when a report lands after a cancel) is looked up again,
// which reopens the file, or finds nothing once the hub is closed.
func (h *Hub) appendTo(dir string, app func(*Telemetry) error) error {
	for {
		t := h.telemetry(dir)
		if t == nil {
			return nil
		}
		if err := app(t); !errors.Is(err, errClosed) {
			return err
		}
	}
}

// CloseTelemetry writes and closes the telemetry of the campaign store
// in dir, if open; a campaign calls it when its run ends, so a long-lived
// daemon holds no file per finished campaign. A later append reopens the
// file, after this one's lines are written. Failures are logged.
func (h *Hub) CloseTelemetry(dir string) {
	if h == nil {
		return
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	t := h.tele[dir]
	if t == nil {
		return
	}
	delete(h.tele, dir)
	if err := t.Close(); err != nil {
		log.Printf("obs: close telemetry: %v", err)
	}
}

// telemetry returns the open writer for dir, opening it on first use.
// Open failures are logged once per dir and reported as nil thereafter.
// After Close it reports nil for every dir: a trial still running past a
// bounded shutdown has its telemetry dropped (logged once per dir), never
// written through a reopened file nobody will close.
func (h *Hub) telemetry(dir string) *Telemetry {
	h.mu.Lock()
	defer h.mu.Unlock()
	if t := h.tele[dir]; t != nil {
		return t
	}
	if h.failed[dir] {
		return nil
	}
	if h.closed {
		log.Printf("obs: telemetry for %s dropped: hub closed", dir)
		h.failed[dir] = true
		return nil
	}
	t, err := OpenTelemetry(dir)
	if err != nil {
		log.Printf("obs: %v", err)
		h.failed[dir] = true
		return nil
	}
	h.tele[dir] = t
	return t
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

// Close writes and closes every open telemetry writer. Later trial and
// event appends are dropped.
func (h *Hub) Close() error {
	if h == nil {
		return nil
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	h.closed = true
	var first error
	for dir, t := range h.tele {
		if err := t.Close(); err != nil && first == nil {
			first = err
		}
		delete(h.tele, dir)
	}
	return first
}

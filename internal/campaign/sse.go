package campaign

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"time"

	"robustify/internal/job"
)

// SSE cadence. Vars, not consts, so tests can tighten them; production
// never mutates them after init.
var (
	// sseInterval is how often the stream polls the campaign's status for
	// progress changes.
	sseInterval = 250 * time.Millisecond
	// sseHeartbeat is the longest the stream stays silent: with no
	// progress for this long, a comment line keeps the connection (and
	// any proxies on it) alive.
	sseHeartbeat = 15 * time.Second
)

// terminalState reports whether a campaign state can no longer change
// without an explicit resume — the point where a status stream ends.
func terminalState(state string) bool {
	return job.Terminal(state) || state == StateInterrupted
}

// sseHandler serves GET /campaigns/{id}/status/stream: the campaign's
// live status as Server-Sent Events. The protocol is deliberately tiny:
//
//   - `event: progress` with the full Status JSON — sent immediately on
//     connect, then whenever the completed-trial count or state changes;
//   - `event: done` with the final Status once the campaign reaches a
//     terminal state (done, failed, cancelled, interrupted), after which
//     the stream closes;
//   - `: heartbeat` comment lines during long quiet stretches.
//
// The stream is read-only diagnostics over the same Status the polling
// endpoint serves: it only reads the store and changes no execution, so
// results are bit-identical whether or not anyone is streaming.
func sseHandler(m *Manager) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		id := r.PathValue("id")
		status, err := m.Get(id)
		if err != nil {
			HTTPError(w, http.StatusNotFound, err)
			return
		}
		flusher, ok := w.(http.Flusher)
		if !ok {
			HTTPError(w, http.StatusInternalServerError, fmt.Errorf("streaming unsupported"))
			return
		}
		w.Header().Set("Content-Type", "text/event-stream")
		w.Header().Set("Cache-Control", "no-cache")
		w.Header().Set("X-Accel-Buffering", "no")
		w.WriteHeader(http.StatusOK)

		send := func(event string, st Status) bool {
			// SSE data must be newline-free: compact JSON, not the API's
			// indented form.
			b, err := json.Marshal(st)
			if err != nil {
				return false
			}
			if _, err := fmt.Fprintf(w, "event: %s\ndata: %s\n\n", event, b); err != nil {
				return false
			}
			flusher.Flush()
			return true
		}

		// Immediate snapshot, so a client connecting mid-campaign renders
		// right away instead of at the next progress change.
		if !send("progress", status) {
			return
		}
		if terminalState(status.State) {
			send("done", status)
			return
		}

		lastDone, lastState := status.Progress.Done, status.State
		ticker := time.NewTicker(sseInterval)
		defer ticker.Stop()
		// Heartbeats are counted in poll ticks so the loop needs no clock
		// of its own.
		heartbeatTicks := max(int(sseHeartbeat/sseInterval), 1)
		quiet := 0
		for {
			select {
			case <-r.Context().Done():
				return
			case <-ticker.C:
			}
			// A quiet tick reads progress and state only; the per-cell
			// statistics are computed when there is something to send.
			status, err := m.get(id, false)
			if err != nil {
				return
			}
			if status.Progress.Done != lastDone || status.State != lastState || terminalState(status.State) {
				if status, err = m.Get(id); err != nil {
					return
				}
			}
			if terminalState(status.State) {
				send("progress", status)
				send("done", status)
				return
			}
			if status.Progress.Done != lastDone || status.State != lastState {
				if !send("progress", status) {
					return
				}
				lastDone, lastState = status.Progress.Done, status.State
				quiet = 0
				continue
			}
			if quiet++; quiet >= heartbeatTicks {
				if _, err := io.WriteString(w, ": heartbeat\n\n"); err != nil {
					return
				}
				flusher.Flush()
				quiet = 0
			}
		}
	}
}

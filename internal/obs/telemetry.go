package obs

import (
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strconv"
	"sync"
	"time"

	"robustify/internal/jsonl"
)

// TelemetryFile is the name of the diagnostics sidecar written next to a
// campaign store. It is append-only JSONL, deliberately separate from
// trials.jsonl: telemetry carries wall-clock timestamps and latency data
// and is NOT part of the campaign's resume identity — deleting it loses
// diagnostics, never results.
const TelemetryFile = "telemetry.jsonl"

// Trial lines are buffered and written in batches: the buffer is written
// once it holds flushBytes, when an append finds its oldest line flushAge
// old, when an event line is appended (events write through), and on
// Close. A crash loses at most that much of the sidecar, never a
// result.
const (
	flushBytes = 32 << 10
	flushAge   = time.Second
)

// lineBufs is the free list of line buffers: a writer takes one when it
// opens and gives it back when it closes, so a daemon running campaign
// after campaign does not grow a fresh buffer for each. Its size is how
// many campaigns' writers are expected open at once.
var lineBufs = make(chan []byte, 4)

// errClosed is what an append to a closed writer returns.
var errClosed = errors.New("obs: telemetry closed")

// Telemetry appends timestamped diagnostic records to a campaign
// directory's telemetry.jsonl, buffering trial lines (see flushBytes).
// It is safe for concurrent use.
type Telemetry struct {
	mu    sync.Mutex
	f     *os.File
	buf   []byte                      // the lines not yet written, oldest first
	first time.Time                   // when buf's oldest line was stamped
	stamp [len(time.RFC3339Nano)]byte // the latest timestamp's bytes
	rate  jsonl.FloatMemo             // the last trial line's rate
}

// OpenTelemetry opens (creating if needed) dir/telemetry.jsonl for append.
func OpenTelemetry(dir string) (*Telemetry, error) {
	f, err := os.OpenFile(filepath.Join(dir, TelemetryFile), os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, fmt.Errorf("obs: open telemetry: %w", err)
	}
	var buf []byte
	select {
	case buf = <-lineBufs:
	default:
		// Room for the threshold plus the line that crosses it.
		buf = make([]byte, 0, 2*flushBytes)
	}
	return &Telemetry{f: f, buf: buf}, nil
}

// TrialRecord is the telemetry line written per completed trial: the
// trial's identity and value (duplicating the store record so telemetry is
// self-contained), its wall-clock latency, and — when a fault recorder was
// attached — where its faults landed. Faults is the recorder the trial's
// collector handed back; the line encodes its counters as their
// FaultSummary, which is what a reader decodes the "faults" object into.
type TrialRecord struct {
	Campaign string  `json:"campaign,omitempty"`
	Unit     string  `json:"unit,omitempty"`
	Series   string  `json:"series,omitempty"`
	RateIdx  int     `json:"rate_idx"`
	TrialIdx int     `json:"trial_idx"`
	Rate     float64 `json:"rate"`
	Seed     uint64  `json:"seed"`
	Value    Float   `json:"value"`

	// DurationMicros is the trial's wall-clock compute time. Latencies
	// are diagnostics: they never feed back into results.
	DurationMicros int64 `json:"duration_us,omitempty"`

	Faults *FaultRecorder `json:"faults,omitempty"`
}

// Float marshals NaN and ±Inf as JSON strings (encoding/json rejects them
// as numbers); trial values under heavy fault injection are routinely
// non-finite.
type Float float64

// MarshalJSON implements json.Marshaler.
func (f Float) MarshalJSON() ([]byte, error) {
	return f.appendJSON(nil), nil
}

// appendJSON appends f as MarshalJSON encodes it.
func (f Float) appendJSON(b []byte) []byte {
	v := float64(f)
	if b, ok := jsonl.AppendFloat(b, v); ok {
		return b
	}
	switch {
	case math.IsNaN(v):
		return append(b, `"NaN"`...)
	case v > 0:
		return append(b, `"+Inf"`...)
	default:
		return append(b, `"-Inf"`...)
	}
}

// appendJSON appends r exactly as json.Marshal encodes it, its rate
// through the memo rate. ok is false when r.Rate is not finite, which
// encoding/json rejects.
func (r *TrialRecord) appendJSON(b []byte, rate *jsonl.FloatMemo) (_ []byte, ok bool) {
	b = append(b, '{')
	if r.Campaign != "" {
		b = append(b, `"campaign":`...)
		b = jsonl.AppendString(b, r.Campaign)
		b = append(b, ',')
	}
	if r.Unit != "" {
		b = append(b, `"unit":`...)
		b = jsonl.AppendString(b, r.Unit)
		b = append(b, ',')
	}
	if r.Series != "" {
		b = append(b, `"series":`...)
		b = jsonl.AppendString(b, r.Series)
		b = append(b, ',')
	}
	b = append(b, `"rate_idx":`...)
	b = strconv.AppendInt(b, int64(r.RateIdx), 10)
	b = append(b, `,"trial_idx":`...)
	b = strconv.AppendInt(b, int64(r.TrialIdx), 10)
	b = append(b, `,"rate":`...)
	if b, ok = rate.Append(b, r.Rate); !ok {
		return b, false
	}
	b = append(b, `,"seed":`...)
	b = strconv.AppendUint(b, r.Seed, 10)
	b = append(b, `,"value":`...)
	b = r.Value.appendJSON(b)
	if r.DurationMicros != 0 {
		b = append(b, `,"duration_us":`...)
		b = strconv.AppendInt(b, r.DurationMicros, 10)
	}
	if r.Faults != nil {
		b = append(b, `,"faults":`...)
		b = r.Faults.appendJSON(b)
	}
	return append(b, '}'), true
}

// Append writes one telemetry line {"ts": ..., "kind": kind, "rec": rec}.
// A TrialRecord is encoded by hand; any other rec goes through
// json.Marshal. Either way the line is byte-identical to json.Marshal of
// the envelope.
func (t *Telemetry) Append(kind string, rec any) error {
	if tr, ok := rec.(TrialRecord); ok {
		return t.AppendTrials(kind, 1, func(int) TrialRecord { return tr })
	}
	body, err := json.Marshal(rec)
	if err != nil {
		return fmt.Errorf("obs: marshal telemetry record: %w", err)
	}
	return t.write(true, 1, func(b, ts []byte, _ int) []byte {
		b = appendEnvelope(b, ts, kind)
		b = append(b, body...)
		return append(b, "}\n"...)
	})
}

// AppendTrials buffers n trial lines of the given kind under one
// timestamp, rec(i) the record of the i-th: a run appends a lease's
// lines at once. A record that cannot be encoded (a non-finite
// rate, which encoding/json rejects) is left out, with the error
// encoding/json reports.
func (t *Telemetry) AppendTrials(kind string, n int, rec func(int) TrialRecord) error {
	bad := -1
	err := t.write(false, n, func(b, ts []byte, i int) []byte {
		r, line := rec(i), len(b)
		b, ok := r.appendJSON(appendEnvelope(b, ts, kind), &t.rate)
		if !ok {
			bad = i
			return b[:line]
		}
		return append(b, "}\n"...)
	})
	if err != nil || bad < 0 {
		return err
	}
	_, err = json.Marshal(rec(bad)) // the error encoding/json reports for a non-finite rate
	return fmt.Errorf("obs: marshal telemetry record: %w", err)
}

// appendEnvelope appends the start of a telemetry line, up to the record
// body: {"ts":"<ts>","kind":<kind>,"rec":
func appendEnvelope(b, ts []byte, kind string) []byte {
	b = append(b, `{"ts":"`...)
	b = append(b, ts...)
	b = append(b, `","kind":`...)
	b = jsonl.AppendString(b, kind)
	return append(b, `,"rec":`...)
}

// write stamps the wall clock once and lets fill append n lines to the
// buffer, the i-th on call i. After each line it writes the buffer when
// through is set (an event line), when the buffer has reached
// flushBytes, or when its oldest line is flushAge old; the age is
// checked on this clock read, so no timer runs. Telemetry is the one
// serialization path in the repository where a clock is legal: the JSONL
// sidecar is diagnostics with no resume-identity contract, unlike the
// store, spec and trace artifacts, whose byte and record pins fail on a
// timestamp.
//
// The lines and their timestamp are assembled in buffers reused under the
// lock: a stack buffer handed to the file escapes under the race
// detector, and one handed to fill escapes always.
func (t *Telemetry) write(through bool, n int, fill func(b, ts []byte, i int) []byte) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.f == nil {
		return errClosed
	}
	now := time.Now()
	ts := now.UTC().AppendFormat(t.stamp[:0], time.RFC3339Nano)
	for i := range n {
		if len(t.buf) == 0 {
			t.first = now
		}
		t.buf = fill(t.buf, ts, i)
		if through || len(t.buf) >= flushBytes || now.Sub(t.first) >= flushAge {
			if err := t.flushLocked(); err != nil {
				return err
			}
		}
	}
	return nil
}

// flushLocked writes the buffered lines with one write and empties the
// buffer, whether or not the write succeeds: a failed batch is reported
// once, never retried into a duplicate. t.mu must be held.
//
//lint:durable the flush is the sidecar's durable point; a lost batch of flight-recorder lines must be reported
func (t *Telemetry) flushLocked() error {
	if len(t.buf) == 0 {
		return nil
	}
	_, err := t.f.Write(t.buf)
	t.buf = t.buf[:0]
	return err
}

// Close writes the buffered lines and closes the file, returning the
// line buffer to the free list; further Appends fail.
func (t *Telemetry) Close() error {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.f == nil {
		return nil
	}
	err := t.flushLocked()
	if cerr := t.f.Close(); err == nil {
		err = cerr
	}
	t.f = nil
	select {
	case lineBufs <- t.buf:
	default:
	}
	t.buf = nil
	return err
}

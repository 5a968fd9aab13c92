package campaign

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log"
	"net/http"
	"slices"

	"robustify/internal/dispatch"
	"robustify/internal/fpu/faultmodel"
	"robustify/internal/harness"
)

// NewServer wraps a Manager in the robustd HTTP API. MountJobs serves the
// lifecycle routes under /campaigns: submit a Spec, list with progress,
// status with exact per-cell statistics, cancel (completed trials stay
// durable) and resume a cancelled, failed or interrupted campaign. Beside
// them:
//
//	GET    /campaigns/{id}/status/stream
//	                                live status as Server-Sent Events (see sseHandler)
//	GET    /campaigns/{id}/results  materialized table; ?format=text|csv|json
//	GET    /workloads               custom-sweep workload registry and the
//	                                selectable fault models with their fm_* knobs
//	GET    /healthz                 liveness
//	GET    /metrics                 Prometheus text: campaigns by state, trial
//	                                counters, store size, workers, leases
//	GET    /debug/events            recent lifecycle trace events (ring buffer)
//
// With a dispatch coordinator attached (robustd -workers-expected > 0)
// the worker lease protocol is served too:
//
//	POST   /workers/register        robustworker announces itself -> {worker, lease_ttl}
//	POST   /workers/lease           pull one shard lease (204 when no work)
//	POST   /workers/report          stream back a result batch / heartbeat / release
//	GET    /workers                 registered workers with liveness
func NewServer(m *Manager) http.Handler {
	mux := http.NewServeMux()

	MountJobs(mux, "/campaigns", ParseSpec, m.Submit, m.List, m.Get, m.Cancel, m.Resume)
	mux.HandleFunc("GET /campaigns/{id}/status/stream", sseHandler(m))

	mux.HandleFunc("GET /campaigns/{id}/results", func(w http.ResponseWriter, r *http.Request) {
		table, err := m.Table(r.PathValue("id"))
		if err != nil {
			HTTPError(w, http.StatusNotFound, err)
			return
		}
		switch format := r.URL.Query().Get("format"); format {
		case "", "text":
			w.Header().Set("Content-Type", "text/plain; charset=utf-8")
			if err := table.Render(w); err != nil {
				log.Printf("campaign: render results for %s: %v", r.PathValue("id"), err)
			}
		case "csv":
			w.Header().Set("Content-Type", "text/csv")
			if err := table.CSV(w); err != nil {
				log.Printf("campaign: write csv results for %s: %v", r.PathValue("id"), err)
			}
		case "json":
			WriteJSON(w, http.StatusOK, tableJSON(table))
		default:
			HTTPError(w, http.StatusBadRequest, fmt.Errorf("unknown format %q (want text, csv, or json)", format))
		}
	})

	mux.HandleFunc("GET /workloads", func(w http.ResponseWriter, r *http.Request) {
		type wl struct {
			Name         string `json:"name"`
			Desc         string `json:"desc"`
			DefaultIters int    `json:"default_iters,omitempty"`
			Maximize     bool   `json:"maximize,omitempty"`
			Knobs        []Knob `json:"knobs,omitempty"`
		}
		type fm struct {
			Name string `json:"name"`
			// Knobs are the family's fm_*-prefixed parameters, settable via
			// CustomSweep.Params and searchable by the tune layer.
			Knobs []Knob `json:"knobs,omitempty"`
		}
		var wls []wl
		for _, item := range Workloads() {
			wls = append(wls, wl{
				Name: item.Name, Desc: item.Desc, DefaultIters: item.DefaultIters,
				Maximize: item.Maximize, Knobs: item.Knobs,
			})
		}
		var fms []fm
		for _, name := range faultmodel.Names() {
			fms = append(fms, fm{Name: name, Knobs: ModelKnobs(name)})
		}
		WriteJSON(w, http.StatusOK, map[string]any{
			"workloads":    wls,
			"fault_models": fms,
		})
	})

	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		WriteJSON(w, http.StatusOK, map[string]string{"status": "ok"})
	})

	mux.HandleFunc("GET /metrics", metricsHandler(m))

	// The hub is nil-safe: without one the handler serves an empty list.
	mux.HandleFunc("GET /debug/events", m.Hub().EventsHandler())

	// dispatcher guards the worker endpoints: without a coordinator the
	// daemon runs every trial in-process and a worker knocking on the
	// door should learn why, not 404.
	dispatcher := func(w http.ResponseWriter) *dispatch.Coordinator {
		d := m.Dispatcher()
		if d == nil {
			HTTPError(w, http.StatusServiceUnavailable,
				fmt.Errorf("distributed execution disabled; start robustd with -workers-expected"))
		}
		return d
	}

	mux.HandleFunc("POST /workers/register", func(w http.ResponseWriter, r *http.Request) {
		d := dispatcher(w)
		if d == nil {
			return
		}
		var req dispatch.RegisterRequest
		if !readJSON(w, r, &req) {
			return
		}
		resp := d.Register(req)
		log.Printf("campaign: worker %s registered (%s)", resp.Worker, req.Name)
		WriteJSON(w, http.StatusOK, resp)
	})

	mux.HandleFunc("POST /workers/lease", func(w http.ResponseWriter, r *http.Request) {
		d := dispatcher(w)
		if d == nil {
			return
		}
		wb := workerBodies.get()
		defer workerBodies.put(wb)
		body, ok := ReadBody(w, r, maxWorkerBytes, wb.body)
		wb.body = body
		if !ok {
			return
		}
		var req dispatch.LeaseRequest
		if err := dispatch.DecodeLease(body, &req); err != nil {
			HTTPError(w, http.StatusBadRequest, fmt.Errorf("bad request body: %w", err))
			return
		}
		lease, err := d.Lease(req)
		if err != nil {
			HTTPError(w, http.StatusNotFound, err)
			return
		}
		if lease == nil {
			w.WriteHeader(http.StatusNoContent)
			return
		}
		if wb.scratch, err = dispatch.AppendLeaseResponse(wb.scratch[:0], lease); err != nil {
			HTTPError(w, http.StatusInternalServerError, err)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		wb.scratch = append(wb.scratch, '\n')
		if _, err := w.Write(wb.scratch); err != nil {
			log.Printf("campaign: write lease response: %v", err)
		}
	})

	mux.HandleFunc("POST /workers/report", func(w http.ResponseWriter, r *http.Request) {
		d := dispatcher(w)
		if d == nil {
			return
		}
		wb := workerBodies.get()
		defer workerBodies.put(wb)
		body, ok := ReadBody(w, r, maxWorkerBytes, wb.body)
		wb.body = body
		if !ok {
			return
		}
		if err := dispatch.DecodeReport(body, &wb.req); err != nil {
			HTTPError(w, http.StatusBadRequest, fmt.Errorf("bad request body: %w", err))
			return
		}
		resp, err := d.Report(wb.req)
		if err != nil {
			HTTPError(w, http.StatusNotFound, err)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		wb.scratch = append(dispatch.AppendReportResponse(wb.scratch[:0], resp), '\n')
		if _, err := w.Write(wb.scratch); err != nil {
			log.Printf("campaign: write report response: %v", err)
		}
	})

	mux.HandleFunc("GET /workers", func(w http.ResponseWriter, r *http.Request) {
		d := dispatcher(w)
		if d == nil {
			return
		}
		WriteJSON(w, http.StatusOK, d.Workers())
	})

	return mux
}

// Request body caps. MaxSpecBytes bounds a submitted campaign or tune
// spec; maxWorkerBytes bounds the worker endpoints' bodies, whose largest
// is a report of dispatch.MaxReport results (~400 KB), and so must stay
// comfortably above it.
const (
	MaxSpecBytes   = 1 << 20
	maxWorkerBytes = 8 << 20
)

// ReadBody reads a request body of at most limit bytes into buf's
// backing array, growing it only when the body does not fit; the
// returned slice is the body. A body over the limit is answered 413
// naming the limit, any other read failure 400, and ok is then false.
func ReadBody(w http.ResponseWriter, r *http.Request, limit int64, buf []byte) (body []byte, ok bool) {
	tooLarge := func() {
		HTTPError(w, http.StatusRequestEntityTooLarge,
			fmt.Errorf("request body larger than the %d-byte limit", limit))
	}
	if r.ContentLength > limit {
		tooLarge()
		return buf[:0], false
	}
	// One spare byte lets a body of exactly Content-Length bytes reach
	// EOF without growing the buffer.
	buf = slices.Grow(buf[:0], int(r.ContentLength)+1)
	body, err := readAll(http.MaxBytesReader(w, r.Body, limit), buf)
	if err != nil {
		var maxErr *http.MaxBytesError
		if errors.As(err, &maxErr) {
			tooLarge()
		} else {
			HTTPError(w, http.StatusBadRequest, err)
		}
		return body[:0], false
	}
	return body, true
}

// readAll is io.ReadAll into b's spare capacity.
func readAll(r io.Reader, b []byte) ([]byte, error) {
	for {
		if len(b) == cap(b) {
			b = append(b, 0)[:len(b)]
		}
		n, err := r.Read(b[len(b):cap(b)])
		b = b[:len(b)+n]
		if err == io.EOF {
			return b, nil
		}
		if err != nil {
			return b, err
		}
	}
}

// readJSON decodes a worker endpoint's JSON request body; on failure it
// has answered the request and reports false.
func readJSON(w http.ResponseWriter, r *http.Request, v any) bool {
	body, ok := ReadBody(w, r, maxWorkerBytes, nil)
	if !ok {
		return false
	}
	if err := json.Unmarshal(body, v); err != nil {
		HTTPError(w, http.StatusBadRequest, fmt.Errorf("bad request body: %w", err))
		return false
	}
	return true
}

// workerBody holds one lease or report request while it is handled: the
// body, the decoded report and the scratch the response is encoded into.
// They are reused, so a request's size costs no allocation once a buffer
// has grown to it.
type workerBody struct {
	body, scratch []byte
	req           dispatch.ReportRequest
}

var workerBodies = make(freeList[workerBody], spareReports)

// MountJobs registers the five lifecycle routes of one job kind under
// root (robustd mounts campaigns at /campaigns and tune runs at /tune):
//
//	POST root                 parse and submit a spec -> 202 {"id": ...}
//	GET  root                 list -> 200
//	GET  root/{id}            status -> 200
//	POST root/{id}/cancel     -> 200 {"status": "cancelling"}
//	POST root/{id}/resume     -> 202 {"status": "resuming"}
//
// Failures answer {"error": ...}: a body over MaxSpecBytes 413 naming the
// limit, a spec that fails to parse 400, a failed submit 500, an unknown
// id on status or cancel 404, and a refused resume 409 (an unknown id
// included).
func MountJobs[S, L, G any](mux *http.ServeMux, root string,
	parse func([]byte) (S, error), submit func(S) (string, error),
	list func() L, get func(string) (G, error), cancel, resume func(string) error) {
	mux.HandleFunc("POST "+root, func(w http.ResponseWriter, r *http.Request) {
		body, ok := ReadBody(w, r, MaxSpecBytes, nil)
		if !ok {
			return
		}
		spec, err := parse(body)
		if err != nil {
			HTTPError(w, http.StatusBadRequest, err)
			return
		}
		id, err := submit(spec)
		if err != nil {
			HTTPError(w, http.StatusInternalServerError, err)
			return
		}
		WriteJSON(w, http.StatusAccepted, map[string]string{"id": id})
	})
	mux.HandleFunc("GET "+root, func(w http.ResponseWriter, r *http.Request) {
		WriteJSON(w, http.StatusOK, list())
	})
	mux.HandleFunc("GET "+root+"/{id}", func(w http.ResponseWriter, r *http.Request) {
		status, err := get(r.PathValue("id"))
		if err != nil {
			HTTPError(w, http.StatusNotFound, err)
			return
		}
		WriteJSON(w, http.StatusOK, status)
	})
	mux.HandleFunc("POST "+root+"/{id}/cancel", func(w http.ResponseWriter, r *http.Request) {
		if err := cancel(r.PathValue("id")); err != nil {
			HTTPError(w, http.StatusNotFound, err)
			return
		}
		WriteJSON(w, http.StatusOK, map[string]string{"status": "cancelling"})
	})
	mux.HandleFunc("POST "+root+"/{id}/resume", func(w http.ResponseWriter, r *http.Request) {
		if err := resume(r.PathValue("id")); err != nil {
			HTTPError(w, http.StatusConflict, err)
			return
		}
		WriteJSON(w, http.StatusAccepted, map[string]string{"status": "resuming"})
	})
}

// WriteJSON writes an indented JSON response; shared by the campaign
// and tune HTTP APIs mounted on the same robustd mux.
func WriteJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	// The status line is gone, so an encode failure (almost always the
	// client hanging up mid-body) can only be logged, not reported.
	if err := enc.Encode(v); err != nil {
		log.Printf("campaign: write response: %v", err)
	}
}

// HTTPError writes the API's uniform {"error": ...} response.
func HTTPError(w http.ResponseWriter, code int, err error) {
	WriteJSON(w, code, map[string]string{"error": err.Error()})
}

// tableJSON is the wire form of a results table.
func tableJSON(t *harness.Table) map[string]any {
	type point struct {
		Rate  float64   `json:"rate"`
		Value JSONFloat `json:"value"`
	}
	type series struct {
		Name   string  `json:"name"`
		Points []point `json:"points"`
	}
	out := make([]series, 0, len(t.Series))
	for _, s := range t.Series {
		ps := make([]point, 0, len(s.Points))
		for _, p := range s.Points {
			ps = append(ps, point{Rate: p.Rate, Value: JSONFloat(p.Value)})
		}
		out = append(out, series{Name: s.Name, Points: ps})
	}
	return map[string]any{
		"title":  t.Title,
		"xlabel": t.XLabel,
		"ylabel": t.YLabel,
		"notes":  t.Notes,
		"series": out,
	}
}

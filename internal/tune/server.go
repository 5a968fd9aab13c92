package tune

import (
	"net/http"

	"robustify/internal/campaign"
)

// NewServer wraps a tune Manager in the robustd HTTP API:
//
//	POST   /tune               submit a tune Spec (JSON body) -> {"id": ...}
//	GET    /tune               list tune runs with progress
//	GET    /tune/{id}          status: state, per-candidate table, best-so-far trace
//	GET    /tune/{id}/trace    the raw durable tune.json trace
//	POST   /tune/{id}/cancel   stop; completed evaluations stay durable
//	POST   /tune/{id}/resume   reschedule a failed/interrupted/cancelled run
//
// robustd mounts this beside the campaign API; the evaluation campaigns
// a search spawns are ordinary campaigns, visible under /campaigns.
func NewServer(m *Manager) http.Handler {
	mux := http.NewServeMux()

	mux.HandleFunc("POST /tune", func(w http.ResponseWriter, r *http.Request) {
		body, ok := campaign.ReadBody(w, r, campaign.MaxSpecBytes, nil)
		if !ok {
			return
		}
		spec, err := ParseSpec(body)
		if err != nil {
			campaign.HTTPError(w, http.StatusBadRequest, err)
			return
		}
		id, err := m.Submit(spec)
		if err != nil {
			campaign.HTTPError(w, http.StatusInternalServerError, err)
			return
		}
		campaign.WriteJSON(w, http.StatusAccepted, map[string]string{"id": id})
	})

	mux.HandleFunc("GET /tune", func(w http.ResponseWriter, r *http.Request) {
		campaign.WriteJSON(w, http.StatusOK, m.List())
	})

	mux.HandleFunc("GET /tune/{id}", func(w http.ResponseWriter, r *http.Request) {
		status, err := m.Get(r.PathValue("id"))
		if err != nil {
			campaign.HTTPError(w, http.StatusNotFound, err)
			return
		}
		campaign.WriteJSON(w, http.StatusOK, status)
	})

	mux.HandleFunc("GET /tune/{id}/trace", func(w http.ResponseWriter, r *http.Request) {
		tr, err := m.Trace(r.PathValue("id"))
		if err != nil {
			campaign.HTTPError(w, http.StatusNotFound, err)
			return
		}
		campaign.WriteJSON(w, http.StatusOK, tr)
	})

	mux.HandleFunc("POST /tune/{id}/cancel", func(w http.ResponseWriter, r *http.Request) {
		if err := m.Cancel(r.PathValue("id")); err != nil {
			campaign.HTTPError(w, http.StatusNotFound, err)
			return
		}
		campaign.WriteJSON(w, http.StatusOK, map[string]string{"status": "cancelling"})
	})

	mux.HandleFunc("POST /tune/{id}/resume", func(w http.ResponseWriter, r *http.Request) {
		if err := m.Resume(r.PathValue("id")); err != nil {
			campaign.HTTPError(w, http.StatusConflict, err)
			return
		}
		campaign.WriteJSON(w, http.StatusAccepted, map[string]string{"status": "resuming"})
	})

	return mux
}

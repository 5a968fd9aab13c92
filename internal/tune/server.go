package tune

import (
	"net/http"

	"robustify/internal/campaign"
)

// NewServer wraps a tune Manager in the robustd HTTP API: the lifecycle
// routes of campaign.MountJobs under /tune (status holds the per-candidate
// table and the best-so-far trace; cancel keeps completed evaluations
// durable), plus GET /tune/{id}/trace, the raw durable tune.json trace.
// robustd mounts this beside the campaign API; the evaluation campaigns
// a search spawns are ordinary campaigns, visible under /campaigns.
func NewServer(m *Manager) http.Handler {
	mux := http.NewServeMux()
	campaign.MountJobs(mux, "/tune", ParseSpec, m.Submit, m.List, m.Get, m.Cancel, m.Resume)
	mux.HandleFunc("GET /tune/{id}/trace", func(w http.ResponseWriter, r *http.Request) {
		tr, err := m.Trace(r.PathValue("id"))
		if err != nil {
			campaign.HTTPError(w, http.StatusNotFound, err)
			return
		}
		campaign.WriteJSON(w, http.StatusOK, tr)
	})
	return mux
}

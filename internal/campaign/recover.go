package campaign

import (
	"log"
	"os"
	"path/filepath"

	"robustify/internal/job"
)

// load rebuilds one campaign from its directory for the job layer's
// recovery scan. It returns nil when dir holds no spec.json — the
// directory is not a campaign.
//
// A terminal meta whose progress record matches the compiled grid is
// recovered WITHOUT opening its store: state and progress come from the
// meta alone, and the store is opened lazily on first results/status
// access (handle.openLocked). Boot cost therefore stops growing
// with terminal history — only live work (interrupted campaigns, old
// metas written before progress was recorded) replays trial data.
// Everything else is classified from the store, whose replay keeps only
// the lines the grid pins (Campaign.OpenStore): a grid whose every trial
// is durable is done (the daemon died after the last trial's append but
// before the terminal meta write); anything less is interrupted.
func (m *Manager) load(id, dir string) (*job.Recovered, error) {
	spec, ok, err := loadSpec(dir)
	if err != nil || !ok {
		return nil, err
	}
	camp, err := Compile(spec)
	if err != nil {
		return nil, err
	}
	meta, hasMeta, err := readMeta(dir)
	if err != nil {
		// The spec and trial data are intact; a damaged meta.json alone
		// must not orphan them. Fall back to the no-meta classification,
		// which rebuilds state from store contents.
		log.Printf("campaign: %s: unreadable meta, reclassifying from store: %v", id, err)
		meta, hasMeta = Meta{}, false
	}
	h := &handle{m: m, id: id, spec: spec, camp: camp, dir: dir, metaDone: meta.Done}
	rec := &job.Recovered{Work: h, Record: job.Record{
		State: meta.State, Error: meta.Error,
		Created: meta.Created, Started: meta.Started, Finished: meta.Finished,
	}}
	if hasMeta && job.Terminal(meta.State) && meta.ID == id && meta.Total == camp.Total() && meta.Total > 0 {
		return rec, nil
	}
	if err := h.openLocked(); err != nil {
		return nil, err
	}
	if rec.Record.Created.IsZero() {
		// Best effort for pre-registry directories: the spec is written
		// exactly once, at submission.
		if fi, err := os.Stat(filepath.Join(dir, specFile)); err == nil {
			rec.Record.Created = fi.ModTime()
		}
	}
	rec.Complete = h.st.Done(camp.Plan) == camp.Total()
	// Rewrite the meta when it is missing (pre-registry directories gain
	// one) or predates progress records (Total 0), so the next boot
	// recovers this campaign without opening its store.
	rec.Stale = !hasMeta || meta.ID != id || meta.Total != camp.Total()
	return rec, nil
}

package campaign

import (
	"path/filepath"
	"time"

	"robustify/internal/job"
)

// metaFile is the per-campaign lifecycle record, written beside
// spec.json/trials.jsonl at every state transition. Together the three
// files make a campaign directory self-describing: spec identifies the
// grid, trials.jsonl holds the durable results, and meta.json records
// where in its lifecycle the campaign was when the daemon last touched
// it — which is what lets a restarted daemon rebuild its registry.
const metaFile = "meta.json"

// Meta is the persisted lifecycle state of one campaign. Done/Total
// mirror the store's progress at the last state transition; for terminal
// states they are exact, which lets recovery serve a terminal campaign's
// progress without opening (and replaying) its store at boot.
type Meta struct {
	ID       string     `json:"id"`
	Name     string     `json:"name"`
	State    string     `json:"state"`
	Error    string     `json:"error,omitempty"`
	Created  time.Time  `json:"created"`
	Started  *time.Time `json:"started,omitempty"`
	Finished *time.Time `json:"finished,omitempty"`
	Done     int        `json:"done,omitempty"`
	Total    int        `json:"total,omitempty"`
}

// writeMeta atomically replaces dir's meta.json. The Created/Started/
// Finished timestamps in it are deliberate: meta.json is a lifecycle
// record, not part of resume identity — trials.jsonl and spec.json carry
// that.
func writeMeta(dir string, m Meta) error { return job.WriteRecord(filepath.Join(dir, metaFile), m) }

// readMeta loads dir's meta.json; ok is false when none exists (a store
// written by a pre-registry daemon).
func readMeta(dir string) (m Meta, ok bool, err error) {
	if ok, err = job.ReadRecord(filepath.Join(dir, metaFile), &m); err != nil {
		return Meta{}, false, err
	}
	return m, ok, nil
}

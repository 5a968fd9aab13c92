package campaign

import (
	"bufio"
	"bytes"
	"cmp"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/bits"
	"os"
	"path/filepath"
	"sync"

	"robustify/internal/dispatch"
	"robustify/internal/figures"
	"robustify/internal/fsutil"
	"robustify/internal/jsonl"
)

// storeFile, specFile, and metaFile (see meta.go) are the on-disk layout
// of one campaign directory; lockFile lives in the data root itself and
// serializes daemon ownership of the whole tree.
const (
	storeFile = "trials.jsonl"
	specFile  = "spec.json"
	lockFile  = ".lock"
)

// Record is one completed trial, one JSON line in the store: the
// worker's report element, encoded by dispatch.AppendResult and read back
// by dispatch.DecodeResult. The (Unit, RateIdx, TrialIdx) triple is the
// trial key: together with the spec it pins the trial's seed, so a record
// is replayable and duplicate keys are collapsed on load (values of
// duplicates are identical by construction — trials are deterministic in
// their seed). The store writes the unit's series name into Series.
type Record = dispatch.TrialResult

// Store is an append-only JSONL results store for one campaign. Records
// reach the file in batches, one per lease on either execution path:
// PutBatch encodes every new record of a batch into one buffer and hands
// it to the OS with one write(2), and returns nil only once that write
// has succeeded. That is the durable point: when a put returns nil,
// every record it added is in the file; until then none of its keys
// reads as recorded. A crash can lose the trials of the leases running
// and at most the batch being written, and Open tolerates (and drops)
// the torn trailing line such a crash can leave.
type Store struct {
	dir string

	mu   sync.Mutex
	f    *os.File
	werr error // the first failed write; every later put, and Close, fails with it
	// plan is the grid the store was opened for (nil from Open), whose
	// cells are sized from it at open. A store from Open grows each cell
	// to its highest trial index in whole words; words counts them.
	plan  *figures.Plan
	cells map[cellKey]cell
	words int
	// rate remembers the last rate PutBatch encoded: a lease's records
	// share a few cells, so each cell's rate is formatted once.
	rate jsonl.FloatMemo
}

// cell is one (unit, rate index) cell of a store: vals[t] is trial t's
// value when bit t&63 of set[t>>6] marks it durable.
type cell struct {
	vals []float64
	set  []uint64
}

type cellKey struct{ unit, rateIdx int }

func (c cell) has(t int) bool { return c.set[t>>6]&(1<<(t&63)) != 0 }

func (c cell) put(t int, v float64) { c.vals[t], c.set[t>>6] = v, c.set[t>>6]|1<<(t&63) }

// maxLineBytes bounds how much of one store line is kept in memory while
// loading. A legitimate Record line is tens of bytes; anything beyond the
// cap is corruption (or not our file) and is dropped like a torn line —
// the store keeps loading and only that trial reruns. A bufio.Scanner
// here would instead return ErrTooLong and abandon every later record,
// leaving the campaign permanently unresumable.
const maxLineBytes = 1 << 20

// maxReplayWords caps the cells replay grows in a store from Open, which
// has no plan to size them: 1<<22 trials, 32 MiB of values. A line past
// it is dropped like a torn line. Puts, the process's own trials, are
// not capped.
const maxReplayWords = 1 << 16

// storeLines holds the buffers batches are encoded in, shared by every
// store: a batch of dispatch.MaxReport records is ~400 KB.
var storeLines = make(freeList[[]byte], spareReports)

// Open creates (or reopens) a store without a plan and loads every
// record already present, deduplicating by trial key.
func Open(dir string) (*Store, error) { return open(dir, nil) }

// OpenStore creates (or reopens) the campaign's store in dir. Replay
// keeps only records of the plan's grid with the rate and seed it pins
// for their key, as RunDispatched checks worker results: any other line
// (another spec's, or out of the grid) is dropped like a torn line, and
// its trial reruns. A put outside the grid fails.
func (c *Campaign) OpenStore(dir string) (*Store, error) { return open(dir, c.Plan) }

func open(dir string, plan *figures.Plan) (*Store, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("campaign: store dir: %w", err)
	}
	path := filepath.Join(dir, storeFile)
	st := &Store{dir: dir, plan: plan, cells: make(map[cellKey]cell)}
	if plan != nil {
		for u, unit := range plan.Units {
			w := (unit.Sweep.PerCell() + 63) / 64
			for r := range unit.Sweep.Rates {
				st.cells[cellKey{u, r}] = cell{make([]float64, 64*w), make([]uint64, w)}
			}
		}
	}
	torn := false
	if data, err := os.Open(path); err == nil {
		tornTail, loadErr := st.load(data)
		closeErr := data.Close()
		if loadErr != nil {
			return nil, fmt.Errorf("campaign: read store: %w", loadErr)
		}
		if closeErr != nil {
			return nil, closeErr
		}
		torn = tornTail
	} else if !os.IsNotExist(err) {
		return nil, err
	}
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, err
	}
	// Repair a torn tail before appending: without the terminator, the
	// next record would be glued onto the torn bytes and both would be
	// dropped as one unparseable line on the following load — a durable
	// write silently lost.
	if torn {
		if _, err := f.Write([]byte("\n")); err != nil {
			//lint:errdurability-exempt best-effort close on an already-failing path; the write error is what the caller must see
			f.Close()
			return nil, err
		}
	}
	st.f = f
	return st, nil
}

// load replays the store file into st's cells. Unparseable, torn,
// oversized (>maxLineBytes) lines and records the store cannot hold
// (replay) are skipped — those trials simply rerun — so a single
// corrupt line never blocks reopening a campaign. A duplicate key keeps
// the later value. tornTail reports an unterminated final line (crash
// mid-append): the caller must terminate it before appending more
// records.
//
// Each line is first parsed as the canonical form Put writes
// (dispatch.DecodeResult); any line that is not exactly canonical goes
// through json.Unmarshal, which decides whether it is a record at all.
func (st *Store) load(data *os.File) (tornTail bool, err error) {
	r := bufio.NewReaderSize(data, 64*1024)
	var buf []byte
	var rec Record // reused, so consecutive lines of one series share its string
	for {
		line, tooLong, err := readLine(r, &buf)
		if len(line) > 0 && !tooLong {
			ok := dispatch.DecodeResult(bytes.TrimSuffix(line, []byte("\n")), &rec)
			if !ok {
				var slow Record // declared here so only fallback lines allocate it
				ok = json.Unmarshal(line, &slow) == nil
				rec = slow
			}
			if ok {
				st.replay(&rec)
			}
		}
		if err == io.EOF {
			return len(line) > 0 || tooLong, nil
		}
		if err != nil {
			return false, err
		}
	}
}

// replay records rec's value unless its line is dropped: a store opened
// for a plan takes only records of its grid that carry the rate and seed
// the grid pins for their key.
func (st *Store) replay(rec *Record) {
	c, ok := st.cellFor(rec.Unit, rec.RateIdx, rec.TrialIdx, maxReplayWords)
	if ok && (st.plan == nil || pinned(st.plan, rec.Unit, rec.RateIdx, rec.TrialIdx, rec.Rate, rec.Seed)) {
		c.put(rec.TrialIdx, rec.Value)
	}
}

// pinned reports whether rate and seed are the ones plan's grid pins for
// trial t of (unit, rateIdx), a key inside the grid.
func pinned(plan *figures.Plan, unit, rateIdx, t int, rate float64, seed uint64) bool {
	s := plan.Units[unit].Sweep
	return rate == s.Rates[rateIdx] && seed == s.TrialSeed(rateIdx, t)
}

// cellFor is the cell to hold trial t of (unit, rateIdx); ok is false
// when the store cannot hold it: a negative trial index, a key outside
// the store's plan, or a store from Open whose cells would grow past
// limit words.
func (st *Store) cellFor(unit, rateIdx, t, limit int) (c cell, ok bool) {
	k := cellKey{unit, rateIdx}
	c, ok = st.cells[k]
	if t < 0 || st.plan != nil && (!ok || t >= st.plan.Units[unit].Sweep.PerCell()) {
		return cell{}, false
	}
	if w := t/64 + 1 - len(c.set); w > 0 {
		if w > limit-st.words {
			return cell{}, false
		}
		st.words += w
		c.vals = append(c.vals, make([]float64, 64*w)...)
		c.set = append(c.set, make([]uint64, w)...)
		st.cells[k] = c
	}
	return c, true
}

// readLine reads one newline-delimited line, retaining at most
// maxLineBytes of it; the remainder of an oversized line is consumed and
// discarded, with tooLong reporting the overflow. err is io.EOF at end of
// input (the final unterminated line, if any, is still returned). The
// line is valid only until the next call: it aliases r's buffer, or *buf
// for a line longer than that, which is reused from call to call.
func readLine(r *bufio.Reader, buf *[]byte) (line []byte, tooLong bool, err error) {
	chunk, err := r.ReadSlice('\n')
	if err != bufio.ErrBufferFull {
		return chunk, false, err // the whole line is in r's buffer
	}
	line = (*buf)[:0]
	for {
		if !tooLong {
			line = append(line, chunk...)
			if len(line) > maxLineBytes {
				line, tooLong = nil, true
			}
		}
		if err != bufio.ErrBufferFull {
			break
		}
		chunk, err = r.ReadSlice('\n')
	}
	if !tooLong {
		*buf = line
	}
	return line, tooLong, err
}

// Dir returns the campaign directory backing the store.
func (st *Store) Dir() string { return st.dir }

// Put records one completed trial durably and reports whether the record
// was new: false means the trial was already durable and nothing was
// written. It is PutBatch of one record.
//
//lint:durable a Put that returned nil is the resume identity; a dropped error is a lost trial
func (st *Store) Put(rec Record) (added bool, err error) {
	batch := [1]Record{rec}
	fresh, err := st.PutBatch(batch[:])
	return len(fresh) == 1, err
}

// PutBatch records the records of recs whose trial keys are not yet
// durable, with one write, and returns them: recs is compacted in place,
// in order, and the result aliases it (after an error, recs' contents
// are unspecified). A key already durable, or repeated earlier in the
// batch, is dropped. The check and the write happen under one lock, so
// concurrent writers of one key — two workers racing on a reassigned
// shard — see it added exactly once. A record the store cannot hold (a
// negative trial index, or outside its plan's grid) or encode (a NaN or
// ±Inf rate or value: encoding/json's error) fails the whole batch, and
// nothing is written. Keys are marked durable as they are encoded, so a
// repeat is seen, and unmarked if the batch fails; readers take the same
// lock, so none sees a key before its write has succeeded. A failed
// write may leave part of the batch in the file, so it latches, and
// every later put fails with the same error.
//
//lint:durable a PutBatch that returned nil is the resume identity of every record it added; a dropped error is lost trials
func (st *Store) PutBatch(recs []Record) ([]Record, error) {
	st.mu.Lock()
	defer st.mu.Unlock()
	if st.werr != nil {
		return nil, st.werr
	}
	if st.f == nil {
		return nil, fmt.Errorf("campaign: put into closed store: %w", os.ErrClosed)
	}
	line := storeLines.get()
	fresh, b := recs[:0], (*line)[:0]
	defer func() { *line = b[:0]; storeLines.put(line) }()
	for i := range recs {
		rec := &recs[i]
		c, held := st.cellFor(rec.Unit, rec.RateIdx, rec.TrialIdx, math.MaxInt)
		if held && c.has(rec.TrialIdx) {
			continue // durable or earlier in the batch; keep the store free of duplicates
		}
		var ok bool
		if b, ok = dispatch.AppendResult(b, rec, &st.rate); !ok || !held {
			st.drop(fresh)
			if !held {
				return nil, fmt.Errorf("campaign: trial (%d, %d, %d) is outside the store's grid", rec.Unit, rec.RateIdx, rec.TrialIdx)
			}
			_, err := json.Marshal(*rec) // the error encoding/json reports for a non-finite value
			return nil, err
		}
		b = append(b, '\n')
		c.put(rec.TrialIdx, rec.Value)
		fresh = append(fresh, *rec)
	}
	if len(b) == 0 {
		return fresh, nil
	}
	if _, err := st.f.Write(b); err != nil {
		st.drop(fresh)
		st.werr = err
		return nil, err
	}
	return fresh, nil
}

// drop unmarks the keys PutBatch marked durable for recs, none of which
// was recorded before.
func (st *Store) drop(recs []Record) {
	for _, rec := range recs {
		st.cells[cellKey{rec.Unit, rec.RateIdx}].set[rec.TrialIdx>>6] &^= 1 << (rec.TrialIdx & 63)
	}
}

// Durable returns the durable trials of plan's grid, one bitset per unit
// in harness.Hooks.Skip's layout. Trials outside the grid set no bit.
// The bitsets are the caller's.
func (st *Store) Durable(plan *figures.Plan) [][]uint64 {
	sets := make([][]uint64, len(plan.Units))
	st.mu.Lock()
	defer st.mu.Unlock()
	for u, unit := range plan.Units {
		sets[u] = make([]uint64, (unit.Sweep.Size()+63)/64)
		per := unit.Sweep.PerCell()
		for r := range unit.Sweep.Rates {
			if c, ok := st.cells[cellKey{u, r}]; ok {
				for t := range min(per, len(c.vals)) {
					if i := r*per + t; c.has(t) {
						sets[u][i>>6] |= 1 << (i & 63)
					}
				}
			}
		}
	}
	return sets
}

// Done is the number of durable trials of plan's grid, a popcount of
// its cells' bitsets; trials outside the grid do not count.
func (st *Store) Done(plan *figures.Plan) int {
	st.mu.Lock()
	defer st.mu.Unlock()
	n := 0
	for u, unit := range plan.Units {
		per := unit.Sweep.PerCell()
		for r := range unit.Sweep.Rates {
			if c, ok := st.cells[cellKey{u, r}]; ok {
				for w, x := range c.set[:min(len(c.set), (per+63)/64)] {
					if rest := per - 64*w; rest < 64 {
						x &= 1<<rest - 1
					}
					n += bits.OnesCount64(x)
				}
			}
		}
	}
	return n
}

// AppendCell appends the recorded values of one (unit, rateIdx) cell to
// dst in trial-index order, skipping gaps — exactly the slice an
// aggregator would have seen for the completed prefix — and returns the
// extended slice. A word of 64 durable trials is one copy.
func (st *Store) AppendCell(dst []float64, unit, rateIdx, trials int) []float64 {
	st.mu.Lock()
	defer st.mu.Unlock()
	if c, ok := st.cells[cellKey{unit, rateIdx}]; ok {
		n := min(trials, len(c.vals))
		for t := 0; t < n; t++ {
			if t&63 == 0 && t+64 <= n && c.set[t>>6] == ^uint64(0) {
				dst, t = append(dst, c.vals[t:t+64]...), t+63
			} else if c.has(t) {
				dst = append(dst, c.vals[t])
			}
		}
	}
	return dst
}

// Size is the store file's current on-disk size in bytes (0 when the
// store is closed or the file cannot be statted).
func (st *Store) Size() int64 {
	st.mu.Lock()
	defer st.mu.Unlock()
	if st.f == nil {
		return 0
	}
	fi, err := st.f.Stat()
	if err != nil {
		return 0
	}
	return fi.Size()
}

// SaveSpec persists the campaign spec beside the results, atomically: a
// crash mid-write must leave either no spec or a complete one — a torn
// spec.json would make the whole campaign directory unloadable on the
// next boot, turning a resumable campaign into a skipped one.
//
//lint:durable the spec file is what makes a store resumable at all
func (st *Store) SaveSpec(spec Spec) error {
	b, err := json.MarshalIndent(spec, "", "  ")
	if err != nil {
		return err
	}
	return fsutil.WriteFileAtomic(filepath.Join(st.dir, specFile), append(b, '\n'), 0o644)
}

// LoadSpec reads a previously saved spec; ok is false when none exists.
func (st *Store) LoadSpec() (spec Spec, ok bool, err error) { return loadSpec(st.dir) }

// loadSpec reads dir's spec.json with ParseSpec's rules; ok is false when
// none exists. An unknown field is an error, not dropped: replay pins
// only each trial's rate and seed, so a spec field this build cannot
// honour would silently change what the recorded trials mean.
func loadSpec(dir string) (spec Spec, ok bool, err error) {
	path := filepath.Join(dir, specFile)
	b, err := os.ReadFile(path)
	if os.IsNotExist(err) {
		return Spec{}, false, nil
	}
	if err != nil {
		return Spec{}, false, err
	}
	if spec, err = ParseSpec(b); err != nil {
		return Spec{}, false, fmt.Errorf("%s: %w", path, err)
	}
	return spec, true, nil
}

// Close closes the store file. It returns the latched error of a failed
// write, if any, else the close's own: either way records a put handed
// to the file may be missing from it.
//
//lint:durable the close error is the last chance to see a write the OS accepted but could not complete
func (st *Store) Close() error {
	st.mu.Lock()
	defer st.mu.Unlock()
	if st.f == nil {
		return nil
	}
	err := st.f.Close()
	st.f = nil
	return cmp.Or(st.werr, err)
}

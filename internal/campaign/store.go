package campaign

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strconv"
	"sync"

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

// Record is one completed trial, one JSON line in the store. The
// (Unit, RateIdx, TrialIdx) triple is the trial key: together with the
// spec it pins the trial's seed, so a record is replayable and duplicate
// keys are collapsed on load (values of duplicates are identical by
// construction — trials are deterministic in their seed).
type Record struct {
	Unit     int     `json:"u"`
	RateIdx  int     `json:"r"`
	TrialIdx int     `json:"t"`
	Rate     float64 `json:"rate"`
	Seed     uint64  `json:"seed"`
	Value    float64 `json:"v"`
	// Series is informational (the unit's series name at write time).
	Series string `json:"s,omitempty"`
}

type trialKey struct{ unit, rateIdx, trialIdx int }

// appendRecord appends rec's store line, byte-identical to
// json.Marshal(rec), to b. ok is false when rec.Rate or rec.Value is not
// finite, which encoding/json rejects.
func appendRecord(b []byte, rec *Record) (_ []byte, ok bool) {
	b = append(b, `{"u":`...)
	b = strconv.AppendInt(b, int64(rec.Unit), 10)
	b = append(b, `,"r":`...)
	b = strconv.AppendInt(b, int64(rec.RateIdx), 10)
	b = append(b, `,"t":`...)
	b = strconv.AppendInt(b, int64(rec.TrialIdx), 10)
	b = append(b, `,"rate":`...)
	if b, ok = jsonl.AppendFloat(b, rec.Rate); !ok {
		return b, false
	}
	b = append(b, `,"seed":`...)
	b = strconv.AppendUint(b, rec.Seed, 10)
	b = append(b, `,"v":`...)
	if b, ok = jsonl.AppendFloat(b, rec.Value); !ok {
		return b, false
	}
	if rec.Series != "" {
		b = append(b, `,"s":`...)
		b = jsonl.AppendString(b, rec.Series)
	}
	return append(b, '}'), true
}

// decodeRecord parses a store line (without its newline) that is exactly
// what appendRecord writes, the canonical form
// {"u":…,"r":…,"t":…,"rate":…,"seed":…,"v":…[,"s":"…"]}. It parses the
// fields in that order and accepts the result only if re-encoding it
// into *scratch reproduces line byte for byte, so an accepted line is one
// json.Unmarshal decodes to the same Record. Anything else — other key
// order, whitespace, escapes, non-canonical numbers, torn or garbage
// bytes — reports false, for the caller to hand to json.Unmarshal.
func decodeRecord(line []byte, scratch *[]byte) (rec Record, ok bool) {
	// Parse errors need no check of their own: a failed parse leaves a
	// value whose encoding differs from the token, so the re-encoding
	// check below rejects the line.
	p := lineParser{rest: line}
	rec.Unit, _ = strconv.Atoi(string(p.field(`{"u":`)))
	rec.RateIdx, _ = strconv.Atoi(string(p.field(`,"r":`)))
	rec.TrialIdx, _ = strconv.Atoi(string(p.field(`,"t":`)))
	rec.Rate, _ = strconv.ParseFloat(string(p.field(`,"rate":`)), 64)
	rec.Seed, _ = strconv.ParseUint(string(p.field(`,"seed":`)), 10, 64)
	rec.Value, _ = strconv.ParseFloat(string(p.field(`,"v":`)), 64)
	if p.bad {
		return Record{}, false
	}
	if p.literal(`,"s":"`) {
		i := bytes.IndexByte(p.rest, '"')
		if i < 0 {
			return Record{}, false
		}
		rec.Series = string(p.rest[:i])
		p.rest = p.rest[i+1:]
	}
	if !p.literal("}") || len(p.rest) != 0 {
		return Record{}, false
	}
	var enc bool
	if *scratch, enc = appendRecord((*scratch)[:0], &rec); !enc || !bytes.Equal(*scratch, line) {
		return Record{}, false
	}
	return rec, true
}

// lineParser walks a store line for decodeRecord. bad latches the first
// mismatch; later calls then return nothing.
type lineParser struct {
	rest []byte
	bad  bool
}

// literal consumes s if the line continues with it.
func (p *lineParser) literal(s string) bool {
	if p.bad || len(p.rest) < len(s) || string(p.rest[:len(s)]) != s {
		return false
	}
	p.rest = p.rest[len(s):]
	return true
}

// field consumes key and returns the number token after it, up to the
// next ',' or '}'.
func (p *lineParser) field(key string) []byte {
	if !p.literal(key) {
		p.bad = true
		return nil
	}
	i := bytes.IndexAny(p.rest, ",}")
	if i < 0 {
		p.bad = true
		return nil
	}
	tok := p.rest[:i]
	p.rest = p.rest[i:]
	return tok
}

// Store is an append-only JSONL results store for one campaign. Every
// Append is flushed to the OS before it returns, so each completed trial
// is a durable checkpoint; a crash can lose at most the line being
// written, and Open tolerates (and drops) a torn trailing line.
type Store struct {
	dir string

	mu   sync.Mutex
	f    *os.File
	w    *bufio.Writer
	have map[trialKey]float64
}

// maxLineBytes bounds how much of one store line is kept in memory while
// loading. A legitimate Record line is tens of bytes; anything beyond the
// cap is corruption (or not our file) and is dropped like a torn line —
// the store keeps loading and only that trial reruns. A bufio.Scanner
// here would instead return ErrTooLong and abandon every later record,
// leaving the campaign permanently unresumable.
const maxLineBytes = 1 << 20

// Open creates (or reopens) the campaign directory and loads every record
// already present, deduplicating by trial key.
func Open(dir string) (*Store, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("campaign: store dir: %w", err)
	}
	path := filepath.Join(dir, storeFile)
	st := &Store{dir: dir, have: make(map[trialKey]float64)}
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
	st.w = bufio.NewWriter(f)
	return st, nil
}

// load replays the store file into st.have. Unparseable, torn, and
// oversized (>maxLineBytes) lines are skipped — those trials simply
// rerun — so a single corrupt line never blocks reopening a campaign.
// tornTail reports an unterminated final line (crash mid-append): the
// caller must terminate it before appending more records.
//
// Each line is first parsed as the canonical form Put writes
// (decodeRecord); any line that is not exactly canonical goes through
// json.Unmarshal, which decides whether it is a record at all.
func (st *Store) load(data io.Reader) (tornTail bool, err error) {
	r := bufio.NewReaderSize(data, 64*1024)
	var buf, scratch []byte
	for {
		line, tooLong, err := readLine(r, &buf)
		if len(line) > 0 && !tooLong {
			rec, ok := decodeRecord(bytes.TrimSuffix(line, []byte("\n")), &scratch)
			if !ok {
				var slow Record // declared here so only fallback lines allocate it
				ok = json.Unmarshal(line, &slow) == nil
				rec = slow
			}
			if ok {
				st.have[trialKey{rec.Unit, rec.RateIdx, rec.TrialIdx}] = rec.Value
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

// Append records one completed trial and flushes it.
//
//lint:durable an Append that returned nil is the resume identity; a dropped error is a lost trial
func (st *Store) Append(rec Record) error {
	_, err := st.Put(rec)
	return err
}

// Put is Append reporting whether the record was new: false means the
// trial was already durable and nothing was written. The check and the
// write happen under one lock, so concurrent writers of the same key —
// two workers racing on a reassigned shard — see exactly one true.
//
//lint:durable Put is Append behind a dedup check; same durability contract
func (st *Store) Put(rec Record) (added bool, err error) {
	var buf [256]byte
	line, ok := appendRecord(buf[:0], &rec)
	if !ok {
		_, err := json.Marshal(rec) // the error encoding/json reports for a non-finite value
		return false, err
	}
	line = append(line, '\n')
	st.mu.Lock()
	defer st.mu.Unlock()
	key := trialKey{rec.Unit, rec.RateIdx, rec.TrialIdx}
	if _, dup := st.have[key]; dup {
		return false, nil // already durable; keep the store free of duplicates
	}
	// Copied into the writer's free space rather than passed to Write,
	// which would move buf to the heap.
	if _, err := st.w.Write(append(st.w.AvailableBuffer(), line...)); err != nil {
		return false, err
	}
	if err := st.w.Flush(); err != nil {
		return false, err
	}
	st.have[key] = rec.Value
	return true, nil
}

// Lookup returns the recorded value for a trial key of one unit.
func (st *Store) Lookup(unit, rateIdx, trialIdx int) (float64, bool) {
	st.mu.Lock()
	defer st.mu.Unlock()
	v, ok := st.have[trialKey{unit, rateIdx, trialIdx}]
	return v, ok
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

// Count is the number of distinct completed trials in the store.
func (st *Store) Count() int {
	st.mu.Lock()
	defer st.mu.Unlock()
	return len(st.have)
}

// CellValues returns the recorded values of one (unit, rateIdx) cell in
// trial-index order, skipping gaps — exactly the slice an aggregator
// would have seen for the completed prefix.
func (st *Store) CellValues(unit, rateIdx, trials int) []float64 {
	st.mu.Lock()
	defer st.mu.Unlock()
	var xs []float64
	for t := 0; t < trials; t++ {
		if v, ok := st.have[trialKey{unit, rateIdx, t}]; ok {
			xs = append(xs, v)
		}
	}
	return xs
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
func (st *Store) LoadSpec() (spec Spec, ok bool, err error) {
	b, err := os.ReadFile(filepath.Join(st.dir, specFile))
	if os.IsNotExist(err) {
		return Spec{}, false, nil
	}
	if err != nil {
		return Spec{}, false, err
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		return Spec{}, false, fmt.Errorf("campaign: corrupt %s: %w", specFile, err)
	}
	return spec, true, nil
}

// Close flushes and closes the store file.
//
//lint:durable Close flushes the buffered writer; its error is the last chance to see a failed flush
func (st *Store) Close() error {
	st.mu.Lock()
	defer st.mu.Unlock()
	if st.f == nil {
		return nil
	}
	err := st.w.Flush()
	if cerr := st.f.Close(); err == nil {
		err = cerr
	}
	st.f = nil
	return err
}

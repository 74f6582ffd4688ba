package service

import (
	"bufio"
	"bytes"
	"encoding/json"
	"os"
	"sync"

	"d2m"
)

// resultStore is the persistence layer under the result cache: an
// append-only JSONL journal of completed simulations, one record per
// line, keyed by the canonical cache key. The server appends each
// successful result as it settles and replays the whole journal into
// the LRU at startup, so completed cells of a sweep survive a restart
// and a resubmitted sweep resumes instead of recomputing. Duplicate
// keys are harmless (the last line wins on replay), and a torn final
// line — a crash mid-append — stops the replay at the last intact
// record rather than failing it.
//
// Recovery from a crash mid-append (kill -9 included) happens when the
// journal is reopened: a final line without its newline is cut back to
// the last newline, or, if it happens to hold a whole record, given its
// newline. Either way the next append starts a fresh line, so records
// written after the restart replay too instead of being glued onto the
// fragment and lost behind it.
//
// In cluster mode each shard owns one journal and the gateway merges
// every shard's journal into its own cache on replay (ReplayJournal is
// exported for that path), so a fleet restart resumes from the union
// of what any shard completed.
type resultStore struct {
	mu   sync.Mutex
	path string
	f    *os.File
}

// StoreRecord is one journal line: one single run's result. Journals
// written before replicated runs became seed runs also hold records
// under replicated keys, with a "replicated" field; they replay without
// error (the field is ignored) and are never looked up, since a
// replicated request reads its seeds' keys. Exported so the cluster
// gateway can merge shard journals.
type StoreRecord struct {
	Key       string     `json:"key"`
	Kind      string     `json:"kind"`
	Benchmark string     `json:"benchmark"`
	Result    d2m.Result `json:"result"`
}

// openResultStore opens (creating if absent) the journal at path for
// appending. Replay is a separate step (ReplayJournal) so the server
// can fail fast on an unwritable path while loading records in the
// background.
func openResultStore(path string) (*resultStore, error) {
	f, err := os.OpenFile(path, os.O_CREATE|os.O_RDWR|os.O_APPEND, 0o644)
	if err != nil {
		return nil, err
	}
	if err := repairTail(f); err != nil {
		f.Close()
		return nil, err
	}
	return &resultStore{path: path, f: f}, nil
}

// maxJournalLine bounds one journal record; replay rejects longer
// lines.
const maxJournalLine = 4 << 20

// repairTail makes the journal end on a newline. A torn final line is
// truncated away; an unterminated line that parses as a record (the
// crash landed between the record and its newline) is kept, since
// replay already accepts it, and terminated.
func repairTail(f *os.File) error {
	fi, err := f.Stat()
	if err != nil {
		return err
	}
	size := fi.Size()
	start := size // offset just past the last newline
	var buf [4096]byte
	for start > 0 {
		n := min(start, int64(len(buf)))
		if _, err := f.ReadAt(buf[:n], start-n); err != nil {
			return err
		}
		if i := bytes.LastIndexByte(buf[:n], '\n'); i >= 0 {
			start -= n - int64(i) - 1
			break
		}
		start -= n
	}
	if start == size {
		return nil
	}
	if size-start < maxJournalLine {
		tail := make([]byte, size-start)
		if _, err := f.ReadAt(tail, start); err != nil {
			return err
		}
		if _, ok := parseRecord(tail); ok {
			_, err := f.Write([]byte{'\n'})
			return err
		}
	}
	return f.Truncate(start)
}

// parseRecord decodes one journal line; a line that is not a keyed
// record is corruption.
func parseRecord(line []byte) (StoreRecord, bool) {
	var rec StoreRecord
	if err := json.Unmarshal(line, &rec); err != nil || rec.Key == "" {
		return StoreRecord{}, false
	}
	return rec, true
}

// ReplayJournal reads every intact record of the JSONL journal at
// path, oldest first; a missing file is an empty journal, and the
// first malformed line ends the replay (it can only be the torn tail
// of a crashed append).
func ReplayJournal(path string) ([]StoreRecord, error) {
	f, err := os.Open(path)
	if os.IsNotExist(err) {
		return nil, nil
	}
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var recs []StoreRecord
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 0, 64*1024), maxJournalLine)
	for sc.Scan() {
		line := sc.Bytes()
		if len(line) == 0 {
			continue
		}
		rec, ok := parseRecord(line)
		if !ok {
			break
		}
		recs = append(recs, rec)
	}
	return recs, sc.Err()
}

// append journals one completed simulation.
func (st *resultStore) append(rec StoreRecord) error {
	b, err := json.Marshal(rec)
	if err != nil {
		return err
	}
	b = append(b, '\n')
	st.mu.Lock()
	defer st.mu.Unlock()
	if st.f == nil {
		return os.ErrClosed
	}
	_, err = st.f.Write(b)
	return err
}

// close flushes and closes the journal; later appends fail cleanly.
func (st *resultStore) close() error {
	st.mu.Lock()
	defer st.mu.Unlock()
	if st.f == nil {
		return nil
	}
	err := st.f.Close()
	st.f = nil
	return err
}

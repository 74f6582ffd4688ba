// Package tracestore is the on-disk library of ingested access traces.
// Traces are content-addressed: the id is a prefix of the SHA-256 of
// the stored bytes, so re-uploading a trace is idempotent and two
// service replicas ingesting the same file agree on its name without
// coordination — which is what lets the cluster gateway fan an upload
// out to every shard. Every ingest fully validates the file (structure
// and, for v2, the footer CRC) before it becomes visible, so replay
// paths can assume stored traces are sound.
//
// A failed ingest, a full disk included, leaves the store as it was.
// The upload is spooled to a ".ingest-*" temporary file that Put removes
// on every path, so a spool copy that fails part-way (ENOSPC) leaves no
// file. The trace only becomes "<id>.trc" by an atomic rename after it
// validates; if the "<id>.json" sidecar written next cannot be written
// in full, Put removes both files before returning the error, so the
// trace is neither listed now nor reloaded by Open later. The index is
// updated last, so List, Get and replays of earlier traces never see a
// failed ingest, and the next Put, once space is freed, starts afresh.
// A process killed between the rename and the sidecar leaves an
// unlisted "<id>.trc" (Open loads only traces with a sidecar); the next
// upload of the same bytes renames over it.
package tracestore

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"time"

	"d2m/internal/trace"
)

// IDLen is the length of a trace id: the first 16 hex characters (64
// bits) of the SHA-256 of the stored file.
const IDLen = 16

// Info describes one stored trace. It is persisted as a JSON sidecar
// next to the trace file and returned by List/Get.
type Info struct {
	// ID is the content-derived identifier.
	ID string `json:"id"`
	// Name is the optional human label supplied at upload.
	Name string `json:"name,omitempty"`
	// Accesses is the record count.
	Accesses uint64 `json:"accesses"`
	// Nodes is the node count the trace drives (max node id + 1).
	Nodes int `json:"nodes"`
	// Version is the binary format version (1 or 2).
	Version int `json:"version"`
	// Bytes is the stored file size.
	Bytes int64 `json:"bytes"`
	// Ingested is the upload time (RFC 3339, UTC).
	Ingested string `json:"ingested"`
}

// Store manages a directory of validated trace files.
type Store struct {
	dir string

	mu    sync.RWMutex
	infos map[string]Info
	// files caches one open read-only handle per trace. Handles are kept
	// open for the store's lifetime: FileReader clones taken for warm
	// snapshots read through them long after the run that opened them.
	files map[string]*os.File

	// Fault-injection seams, set by Open to the real operations: spool
	// wraps the upload's temporary file, writeFile writes the sidecar.
	spool     func(*os.File) io.Writer
	writeFile func(name string, data []byte, perm os.FileMode) error
}

// Open returns a store over dir, creating it if needed and loading the
// sidecar metadata of any traces already present.
func Open(dir string) (*Store, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("tracestore: creating %s: %w", dir, err)
	}
	s := &Store{
		dir:       dir,
		infos:     make(map[string]Info),
		files:     make(map[string]*os.File),
		spool:     func(f *os.File) io.Writer { return f },
		writeFile: os.WriteFile,
	}
	ents, err := os.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("tracestore: reading %s: %w", dir, err)
	}
	for _, ent := range ents {
		name := ent.Name()
		if !strings.HasSuffix(name, ".json") {
			continue
		}
		raw, err := os.ReadFile(filepath.Join(dir, name))
		if err != nil {
			continue
		}
		var info Info
		if json.Unmarshal(raw, &info) != nil || len(info.ID) != IDLen {
			continue
		}
		if _, err := os.Stat(s.path(info.ID)); err != nil {
			continue // sidecar without its trace file
		}
		s.infos[info.ID] = info
	}
	return s, nil
}

// Dir returns the store's directory.
func (s *Store) Dir() string { return s.dir }

func (s *Store) path(id string) string { return filepath.Join(s.dir, id+".trc") }

// Put ingests one binary trace (either format version). The bytes are
// spooled to a temporary file while being hashed, fully validated, and
// only then renamed into place — a crashed or rejected upload leaves no
// visible trace. Re-ingesting existing content returns the existing
// Info. The name labels a NEW trace only; it does not rename one
// already stored.
func (s *Store) Put(r io.Reader, name string) (Info, error) {
	tmp, err := os.CreateTemp(s.dir, ".ingest-*")
	if err != nil {
		return Info{}, fmt.Errorf("tracestore: temp file: %w", err)
	}
	defer os.Remove(tmp.Name())
	defer tmp.Close()

	h := sha256.New()
	size, err := io.Copy(s.spool(tmp), io.TeeReader(r, h))
	if err != nil {
		return Info{}, fmt.Errorf("tracestore: spooling upload: %w", err)
	}
	sum, err := s.validate(tmp, size)
	if err != nil {
		return Info{}, err
	}
	id := hex.EncodeToString(h.Sum(nil))[:IDLen]

	s.mu.Lock()
	defer s.mu.Unlock()
	if info, ok := s.infos[id]; ok {
		return info, nil
	}
	info := Info{
		ID:       id,
		Name:     name,
		Accesses: sum.Count,
		Nodes:    sum.MaxNode + 1,
		Version:  sum.Version,
		Bytes:    size,
		Ingested: time.Now().UTC().Format(time.RFC3339),
	}
	if err := tmp.Sync(); err != nil {
		return Info{}, fmt.Errorf("tracestore: syncing upload: %w", err)
	}
	if err := os.Rename(tmp.Name(), s.path(id)); err != nil {
		return Info{}, fmt.Errorf("tracestore: storing trace: %w", err)
	}
	side, err := json.MarshalIndent(info, "", "  ")
	sidecar := filepath.Join(s.dir, id+".json")
	if err == nil {
		err = s.writeFile(sidecar, append(side, '\n'), 0o644)
	}
	if err != nil {
		os.Remove(sidecar)
		os.Remove(s.path(id))
		return Info{}, fmt.Errorf("tracestore: writing sidecar: %w", err)
	}
	s.infos[id] = info
	return info, nil
}

// PutCSV ingests a textual trace (see trace.ImportCSV for the format)
// by converting it to the v2 binary format first; the id is the hash of
// the CONVERTED bytes, so a CSV and its binary conversion share an id.
func (s *Store) PutCSV(r io.Reader, name string) (Info, error) {
	tmp, err := os.CreateTemp(s.dir, ".csv-*")
	if err != nil {
		return Info{}, fmt.Errorf("tracestore: temp file: %w", err)
	}
	defer os.Remove(tmp.Name())
	defer tmp.Close()
	if _, err := trace.ImportCSV(r, tmp); err != nil {
		return Info{}, err
	}
	if _, err := tmp.Seek(0, io.SeekStart); err != nil {
		return Info{}, fmt.Errorf("tracestore: rewinding conversion: %w", err)
	}
	return s.Put(tmp, name)
}

// validate fully decodes the spooled upload, rejecting torn, truncated
// or corrupt files before they are given a name.
func (s *Store) validate(f *os.File, size int64) (trace.Summary, error) {
	sum, err := trace.Validate(f, size)
	if err != nil {
		return trace.Summary{}, fmt.Errorf("tracestore: rejecting upload: %w", err)
	}
	return sum, nil
}

// List returns the stored traces, newest first (ties broken by id).
func (s *Store) List() []Info {
	s.mu.RLock()
	defer s.mu.RUnlock()
	out := make([]Info, 0, len(s.infos))
	for _, info := range s.infos {
		out = append(out, info)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Ingested != out[j].Ingested {
			return out[i].Ingested > out[j].Ingested
		}
		return out[i].ID < out[j].ID
	})
	return out
}

// Get returns the Info for one trace.
func (s *Store) Get(id string) (Info, bool) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	info, ok := s.infos[id]
	return info, ok
}

// Path returns the on-disk path of a stored trace.
func (s *Store) Path(id string) (string, bool) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	if _, ok := s.infos[id]; !ok {
		return "", false
	}
	return s.path(id), true
}

// OpenReader returns a fresh replay cursor over a stored trace. The
// underlying file handle is opened once per trace and cached for the
// store's lifetime, so cursors (and their clones, which warm-state
// snapshots hold across runs) stay valid indefinitely; os.File.ReadAt
// is safe for the concurrent readers this produces.
func (s *Store) OpenReader(id string) (*trace.FileReader, Info, error) {
	s.mu.RLock()
	info, ok := s.infos[id]
	f := s.files[id]
	s.mu.RUnlock()
	if !ok {
		return nil, Info{}, fmt.Errorf("tracestore: unknown trace %q", id)
	}
	if f == nil {
		s.mu.Lock()
		if f = s.files[id]; f == nil {
			var err error
			f, err = os.Open(s.path(id))
			if err != nil {
				s.mu.Unlock()
				return nil, Info{}, fmt.Errorf("tracestore: opening trace %s: %w", id, err)
			}
			s.files[id] = f
		}
		s.mu.Unlock()
	}
	fr, err := trace.NewFileReader(f, info.Bytes)
	if err != nil {
		return nil, Info{}, fmt.Errorf("tracestore: trace %s: %w", id, err)
	}
	return fr, info, nil
}

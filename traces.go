package d2m

import (
	"fmt"
	"io"
	"strings"
	"sync"

	"d2m/internal/tracestore"
)

// Trace ingestion: recorded access traces are first-class benchmarks.
// A trace imported into the process-wide trace library (SetTraceDir)
// gets a content-derived id, and the name "trace:<id>" is accepted
// anywhere a catalog benchmark name is — Run, RunGroup, sweeps, the
// service API — replaying the stored file against any configuration.
// Replay streams the file in fixed-size chunks (trace.FileReader), so
// multi-gigabyte traces run with a bounded memory footprint, and the
// readers are cloneable, so warm-state snapshots work mid-trace exactly
// as they do for generated workloads.

// TracePrefix marks a benchmark name as a stored-trace reference:
// "trace:<id>" replays the trace with that id.
const TracePrefix = "trace:"

// SuiteTrace is the pseudo-suite reported for trace replays. It is not
// part of Suites(): traces are user content, not catalog entries.
const SuiteTrace = "Trace"

// TraceInfo describes one stored trace (see ImportTrace, ListTraces).
type TraceInfo = tracestore.Info

// The trace library is process-wide state, set once at startup
// (SetTraceDir) by binaries that serve trace replays. Library-style
// users that never call SetTraceDir simply have no "trace:" names; the
// catalog benchmarks are unaffected.
var (
	traceMu  sync.RWMutex
	traceLib *tracestore.Store
)

// SetTraceDir opens (creating if needed) the trace library at dir and
// installs it process-wide. Traces already in the directory become
// available immediately. An empty dir disables the library.
func SetTraceDir(dir string) error {
	if dir == "" {
		traceMu.Lock()
		traceLib = nil
		traceMu.Unlock()
		return nil
	}
	s, err := tracestore.Open(dir)
	if err != nil {
		return err
	}
	traceMu.Lock()
	traceLib = s
	traceMu.Unlock()
	return nil
}

// TraceDirSet reports whether a trace library is installed.
func TraceDirSet() bool { return traceLibrary() != nil }

func traceLibrary() *tracestore.Store {
	traceMu.RLock()
	defer traceMu.RUnlock()
	return traceLib
}

var errNoTraceDir = fmt.Errorf("d2m: no trace directory configured (SetTraceDir)")

// ImportTrace ingests a binary trace (v1 or v2 format) into the
// library, fully validating it first, and returns its metadata. The id
// is derived from the content, so re-importing is idempotent.
func ImportTrace(r io.Reader, name string) (TraceInfo, error) {
	lib := traceLibrary()
	if lib == nil {
		return TraceInfo{}, errNoTraceDir
	}
	return lib.Put(r, name)
}

// ImportTraceCSV ingests a textual "node,kind,address" trace (see
// trace.ImportCSV), converting it to the v2 binary format.
func ImportTraceCSV(r io.Reader, name string) (TraceInfo, error) {
	lib := traceLibrary()
	if lib == nil {
		return TraceInfo{}, errNoTraceDir
	}
	return lib.PutCSV(r, name)
}

// ListTraces returns the stored traces, newest first.
func ListTraces() []TraceInfo {
	lib := traceLibrary()
	if lib == nil {
		return nil
	}
	return lib.List()
}

// TraceByID returns the metadata of one stored trace.
func TraceByID(id string) (TraceInfo, bool) {
	lib := traceLibrary()
	if lib == nil {
		return TraceInfo{}, false
	}
	return lib.Get(id)
}

// TracePath returns the on-disk path of a stored trace's binary file.
func TracePath(id string) (string, bool) {
	lib := traceLibrary()
	if lib == nil {
		return "", false
	}
	return lib.Path(id)
}

// traceName extracts the trace id from a "trace:<id>" benchmark name.
func traceName(bench string) (string, bool) {
	return strings.CutPrefix(bench, TracePrefix)
}

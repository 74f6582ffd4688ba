package service

import (
	"context"
	"io"
	"net/http"
	"os"
	"strings"

	"d2m"
	"d2m/internal/api"
)

// Trace ingestion endpoints (API v1.7). Uploaded access traces join the
// process-wide trace library (d2m.SetTraceDir, installed from
// Config.TraceDir at New) and become runnable benchmarks named
// "trace:<id>" on every job and sweep endpoint. Ids are content-derived
// (SHA-256 prefix), so uploads are idempotent and replicas ingesting
// the same file agree on the name — the property the cluster gateway's
// upload fan-out relies on.

// maxTraceBodyBytes bounds one trace upload. Traces are bulk data, not
// control-plane requests, so the limit is far above maxBodyBytes; the
// ingest path spools to disk, so a large upload costs memory only in
// stream-copy buffers.
const maxTraceBodyBytes = 1 << 30

// handleTraceUpload is POST /v1/traces: ingest a binary (v1/v2) trace,
// or a textual one when the request says Content-Type: text/csv. The
// optional ?name= labels the trace. Responds 200 with the TraceInfo
// (including re-uploads, which are idempotent no-ops).
func (f *front) handleTraceUpload(w http.ResponseWriter, r *http.Request) {
	caller, ok := f.caller(w, r, 1)
	if !ok {
		return
	}
	csv := strings.HasPrefix(r.Header.Get("Content-Type"), "text/csv")
	info, err := f.b.PutTrace(r.Context(), caller,
		http.MaxBytesReader(w, r.Body, maxTraceBodyBytes), r.URL.Query().Get("name"), csv)
	writeResult(w, r, http.StatusOK, info, err)
}

// handleTraceList is GET /v1/traces.
func (f *front) handleTraceList(w http.ResponseWriter, r *http.Request) {
	caller, ok := f.caller(w, r, 0)
	if !ok {
		return
	}
	traces, err := f.b.Traces(r.Context(), caller)
	if traces == nil {
		traces = []d2m.TraceInfo{}
	}
	writeResult(w, r, http.StatusOK, map[string]interface{}{"traces": traces}, err)
}

// handleTraceGet is GET /v1/traces/{id}.
func (f *front) handleTraceGet(w http.ResponseWriter, r *http.Request) {
	caller, ok := f.caller(w, r, 0)
	if !ok {
		return
	}
	info, err := f.b.Trace(r.Context(), caller, r.PathValue("id"))
	writeResult(w, r, http.StatusOK, info, err)
}

// handleTraceRaw is GET /v1/traces/{id}/raw: the stored binary file,
// byte-exact — what external tools download.
func (f *front) handleTraceRaw(w http.ResponseWriter, r *http.Request) {
	caller, ok := f.caller(w, r, 0)
	if !ok {
		return
	}
	rc, err := f.b.TraceRaw(r.Context(), caller, r.PathValue("id"))
	if err != nil {
		writeResult(w, r, 0, nil, err)
		return
	}
	defer rc.Close()
	w.Header().Set("Content-Type", "application/octet-stream")
	if file, ok := rc.(*os.File); ok {
		if fi, err := file.Stat(); err == nil {
			http.ServeContent(w, r, "", fi.ModTime(), file) // ranges, conditional GETs
			return
		}
	}
	io.Copy(w, rc)
}

func unknownTrace(id string) error {
	return api.Errorf(api.ErrNotFound, "unknown trace %q", id)
}

func (s *Server) PutTrace(_ context.Context, _ string, body io.Reader, name string, csv bool) (d2m.TraceInfo, error) {
	if !d2m.TraceDirSet() {
		return d2m.TraceInfo{}, api.Errorf(api.ErrInvalidRequest,
			"trace ingestion is disabled on this server (no -trace-dir)")
	}
	var (
		info d2m.TraceInfo
		err  error
	)
	if csv {
		info, err = d2m.ImportTraceCSV(body, name)
	} else {
		info, err = d2m.ImportTrace(body, name)
	}
	if err != nil {
		s.metrics.TracesRejected.Add(1)
		return info, api.Errorf(api.ErrInvalidRequest, "%v", err)
	}
	s.metrics.TracesUploaded.Add(1)
	return info, nil
}

func (s *Server) Traces(context.Context, string) ([]d2m.TraceInfo, error) {
	return d2m.ListTraces(), nil
}

func (s *Server) Trace(_ context.Context, _, id string) (d2m.TraceInfo, error) {
	info, ok := d2m.TraceByID(id)
	if !ok {
		return info, unknownTrace(id)
	}
	return info, nil
}

func (s *Server) TraceRaw(_ context.Context, _, id string) (io.ReadCloser, error) {
	path, ok := d2m.TracePath(id)
	if !ok {
		return nil, unknownTrace(id)
	}
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	return f, nil
}

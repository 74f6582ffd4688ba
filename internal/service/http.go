package service

import (
	"context"
	"encoding/json"
	"net/http"
	"net/url"
	"strconv"
	"sync"
	"sync/atomic"

	"d2m/internal/api"
)

// front is the v1 HTTP layer: routing, request decoding and
// validation, caller authentication, the sweep orchestrator and SSE
// framing, over whichever Backend executes. A single-process Server
// and a cluster gateway serve the same front, so both answer every
// request with the same status, envelope and tenancy check.
type front struct {
	b       Backend
	metrics *Metrics // sweep counters
	workers int      // worker-pool width, for sweep ETAs
	mux     *http.ServeMux

	baseCtx    context.Context // parent of every sweep context
	baseCancel context.CancelFunc

	nextSweepID  atomic.Uint64
	mu           sync.Mutex
	sweeps       map[string]*sweep
	sweepRetired []string // settled sweep ids, oldest first
}

// NewHandler serves the v1 HTTP surface over b. The cluster gateway
// serves its shard ring through it.
func NewHandler(b Backend) http.Handler {
	return newFront(b, &Metrics{}, 1).mux
}

func newFront(b Backend, m *Metrics, workers int) *front {
	f := &front{
		b: b, metrics: m, workers: workers,
		mux:    http.NewServeMux(),
		sweeps: make(map[string]*sweep),
	}
	f.baseCtx, f.baseCancel = context.WithCancel(context.Background())
	f.mux.HandleFunc("POST /v1/run", f.handleRun)
	f.mux.HandleFunc("POST /v1/batch", f.handleBatch)
	f.mux.HandleFunc("GET /v1/jobs", f.handleJobs)
	f.mux.HandleFunc("GET /v1/jobs/{id}", f.handleJob)
	f.mux.HandleFunc("DELETE /v1/jobs/{id}", f.handleJobCancel)
	f.mux.HandleFunc("POST /v1/sweeps", f.handleSweepCreate)
	f.mux.HandleFunc("GET /v1/sweeps", f.handleSweeps)
	f.mux.HandleFunc("GET /v1/sweeps/{id}", f.handleSweepGet)
	f.mux.HandleFunc("DELETE /v1/sweeps/{id}", f.handleSweepDelete)
	f.mux.HandleFunc("POST /v1/traces", f.handleTraceUpload)
	f.mux.HandleFunc("GET /v1/traces", f.handleTraceList)
	f.mux.HandleFunc("GET /v1/traces/{id}", f.handleTraceGet)
	f.mux.HandleFunc("GET /v1/traces/{id}/raw", f.handleTraceRaw)
	f.mux.HandleFunc("GET /v1/capabilities", f.handleCapabilities)
	f.mux.HandleFunc("GET /healthz", f.handleHealthz)
	f.mux.HandleFunc("GET /readyz", f.handleReadyz)
	f.mux.HandleFunc("GET /metrics", f.handleMetrics)
	return f
}

const maxBodyBytes = 1 << 20

// decode reads a JSON request body of at most limit bytes into v,
// rejecting unknown fields; on failure it has written the 400.
func decode(w http.ResponseWriter, r *http.Request, limit int64, v interface{}) bool {
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, limit))
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		api.WriteErr(w, api.Errorf(api.ErrInvalidRequest, "bad request body: %v", err))
		return false
	}
	return true
}

// caller authenticates the request through the backend, charging n
// simulations (0 for reads); on failure it has written the error.
func (f *front) caller(w http.ResponseWriter, r *http.Request, n int) (string, bool) {
	c, err := f.b.Auth(r.Context(), r.Header.Get("X-API-Key"), n)
	if err != nil {
		api.WriteErr(w, err)
		return "", false
	}
	return c, true
}

// writeResult renders a backend reply, or its error unless the client
// has already gone away (nobody is left to read it).
func writeResult(w http.ResponseWriter, r *http.Request, code int, v interface{}, err error) {
	switch {
	case err == nil:
		api.WriteJSON(w, code, v)
	case r.Context().Err() == nil:
		api.WriteErr(w, err)
	}
}

// parseLimit reads a listing's page size: 50 by default, at most 500.
func parseLimit(q url.Values) (int, error) {
	raw := q.Get("limit")
	if raw == "" {
		return 50, nil
	}
	n, err := strconv.Atoi(raw)
	if err != nil || n < 1 {
		return 0, api.Errorf(api.ErrInvalidRequest, "bad limit %q", raw)
	}
	return min(n, 500), nil
}

func (f *front) handleRun(w http.ResponseWriter, r *http.Request) {
	var req api.RunRequest
	if !decode(w, r, maxBodyBytes, &req) {
		return
	}
	run, err := newRun(req)
	if err != nil {
		api.WriteErr(w, err)
		return
	}
	caller, ok := f.caller(w, r, max(1, run.Reps)) // one token per seed
	if !ok {
		return
	}
	st, err := f.b.Run(r.Context(), caller, run)
	code := statusCode(st.State)
	if req.Async && !st.Cached {
		code = http.StatusAccepted
	}
	writeResult(w, r, code, st, err)
}

// statusCode maps a settled job state to its HTTP status.
func statusCode(st api.JobState) int {
	switch st {
	case api.JobDone:
		return http.StatusOK
	case api.JobCanceled:
		return http.StatusGatewayTimeout
	default:
		return http.StatusInternalServerError
	}
}

// handleJob is GET /v1/jobs/{id}: the job's status, or with
// Accept: text/event-stream its live state events.
func (f *front) handleJob(w http.ResponseWriter, r *http.Request) {
	caller, ok := f.caller(w, r, 0)
	if !ok {
		return
	}
	id := r.PathValue("id")
	st, err := f.b.Job(r.Context(), caller, id)
	if err != nil {
		api.WriteErr(w, err)
		return
	}
	if api.AcceptsSSE(r) {
		if out, ok := api.NewSSEWriter(w); ok {
			f.b.WatchJob(r.Context(), caller, id, api.LastEventID(r), func(id int, st api.JobStatus) error {
				return out.Event(id, "state", st)
			})
			return
		}
	}
	api.WriteJSON(w, http.StatusOK, st)
}

// handleJobCancel is DELETE /v1/jobs/{id}: a queued job settles
// canceled immediately (and never occupies a worker); a running job's
// context is cancelled so the simulation aborts at its next engine
// checkpoint. Cancelling a settled job is a 409 conflict carrying the
// terminal state.
func (f *front) handleJobCancel(w http.ResponseWriter, r *http.Request) {
	caller, ok := f.caller(w, r, 0)
	if !ok {
		return
	}
	st, err := f.b.CancelJob(r.Context(), caller, r.PathValue("id"))
	writeResult(w, r, http.StatusOK, st, err)
}

// handleJobs lists known jobs (live and settled history) newest first,
// with an optional state filter and limit/cursor pagination.
func (f *front) handleJobs(w http.ResponseWriter, r *http.Request) {
	caller, ok := f.caller(w, r, 0)
	if !ok {
		return
	}
	q := r.URL.Query()
	limit, err := parseLimit(q)
	if err != nil {
		api.WriteErr(w, err)
		return
	}
	filter := api.JobState(q.Get("state"))
	switch filter {
	case "", api.JobQueued, api.JobRunning, api.JobDone, api.JobFailed, api.JobCanceled:
	default:
		api.WriteErr(w, api.Errorf(api.ErrInvalidRequest,
			"bad state %q (want queued, running, done, failed or canceled)", filter))
		return
	}
	list, err := f.b.Jobs(r.Context(), caller, JobQuery{State: filter, Limit: limit, Cursor: q.Get("cursor")})
	writeResult(w, r, http.StatusOK, list, err)
}

func (f *front) handleCapabilities(w http.ResponseWriter, r *http.Request) {
	caps, err := f.b.Capabilities(r.Context(), r.Header.Get("X-API-Key"))
	writeResult(w, r, http.StatusOK, caps, err)
}

// handleHealthz is pure liveness: it answers 200 as long as the
// process serves HTTP, even while draining (the body says so).
func (f *front) handleHealthz(w http.ResponseWriter, r *http.Request) {
	api.WriteJSON(w, http.StatusOK, f.b.Health())
}

// handleReadyz is readiness: 503 while the backend cannot take new
// work. The cluster gateway's prober keys its hash ring on a shard's
// answer.
func (f *front) handleReadyz(w http.ResponseWriter, r *http.Request) {
	status, ready := f.b.Readiness()
	code := http.StatusOK
	if !ready {
		code = http.StatusServiceUnavailable
	}
	api.WriteJSON(w, code, map[string]interface{}{"status": status})
}

func (f *front) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	f.b.WriteMetrics(w)
}

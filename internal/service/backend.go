package service

import (
	"context"
	"io"

	"d2m"
	"d2m/internal/api"
	"d2m/internal/service/sched"
)

// Backend is what the v1 HTTP layer runs on. The handlers decode and
// validate requests, authenticate the caller, orchestrate sweeps,
// frame SSE streams and render every response and error envelope; a
// Backend only executes. Two implementations exist: *Server runs jobs
// on its own scheduler (single-process mode), and cluster.Gateway
// forwards them to a ring of scheduler shards (cluster mode).
//
// The caller value threads a request's credential through every call:
// a tenant name locally, the raw X-API-Key in cluster mode, where the
// shards stay the admission authority. Errors are *api.Error values
// rendered as-is; any other error renders as internal.
type Backend interface {
	// Auth resolves an X-API-Key to the caller value and charges n
	// simulations against the caller's budget (0 for reads). It fails
	// with 401 unauthorized or 429 rate_limited.
	Auth(ctx context.Context, key string, n int) (caller string, err error)
	// Draining reports that new sweeps must be refused with 503.
	Draining() bool

	// Run admits one validated run and returns its status: settled
	// for a synchronous run, as admitted for an async one.
	Run(ctx context.Context, caller string, run Run) (api.JobStatus, error)
	// Batch admits runs all-or-nothing and returns their settled
	// statuses in request order.
	Batch(ctx context.Context, caller string, runs []Run) ([]api.JobStatus, error)
	Job(ctx context.Context, caller, id string) (api.JobStatus, error)
	CancelJob(ctx context.Context, caller, id string) (api.JobStatus, error)
	// WatchJob emits a job's "state" events with ids above last, up
	// to and including the terminal one: 1 queued, 2 running, 3
	// settled (sse.go).
	WatchJob(ctx context.Context, caller, id string, last int, emit func(id int, st api.JobStatus) error) error
	Jobs(ctx context.Context, caller string, q JobQuery) (JobList, error)

	// RunCells executes a sweep's cells and calls settle exactly once
	// per cell, from any goroutine, before it returns. A non-nil error
	// means the backend abandoned the sweep, which then settles
	// canceled.
	RunCells(ctx context.Context, caller string, cells []d2m.SweepCell, spec CellSpec, settle func(i int, out CellOutcome)) error

	PutTrace(ctx context.Context, caller string, body io.Reader, name string, csv bool) (d2m.TraceInfo, error)
	Traces(ctx context.Context, caller string) ([]d2m.TraceInfo, error)
	Trace(ctx context.Context, caller, id string) (d2m.TraceInfo, error)
	// TraceRaw opens a stored trace file.
	TraceRaw(ctx context.Context, caller, id string) (io.ReadCloser, error)

	// Capabilities describes the service; key, possibly empty, selects
	// the tenancy block's caller limits.
	Capabilities(ctx context.Context, key string) (api.Capabilities, error)
	// Health is the GET /healthz body (always 200).
	Health() interface{}
	// Readiness is the GET /readyz status: 200 when ready, else 503.
	Readiness() (status string, ready bool)
	// WriteMetrics renders GET /metrics in Prometheus text format.
	WriteMetrics(w io.Writer)
}

// Run is one validated run request: the wire form the client sent
// and the canonical simulation identity api.RunRequest.Normalize
// derived from it.
type Run struct {
	Req     api.RunRequest
	Kind    d2m.Kind
	Bench   string
	Options d2m.Options
	Reps    int    // canonical replicate count; 0 = single run
	Engine  string // normalized engine hint; "" = auto
}

// newRun validates req.
func newRun(req api.RunRequest) (Run, error) {
	kind, bench, opt, reps, engine, err := req.Normalize()
	return Run{Req: req, Kind: kind, Bench: bench, Options: opt, Reps: reps, Engine: engine}, err
}

// Key is the run's cell identity (d2m.CellKey).
func (r Run) Key() d2m.CellKey {
	return d2m.SweepCell{Kind: r.Kind, Benchmark: r.Bench, Options: r.Options}.Key()
}

// CacheKey is the run's content address (sched.CacheKey).
func (r Run) CacheKey() string { return sched.CacheKey(r.Kind, r.Bench, r.Options, r.Reps) }

// CachedStatus renders a run answered from a result cache.
func (r Run) CachedStatus(res d2m.Result, rep *d2m.Replicated) api.JobStatus {
	return api.JobStatus{
		State: api.JobDone, Kind: r.Kind.String(), Benchmark: r.Bench,
		Cached: true, Result: &res, Replicated: rep,
	}
}

// CellSpec is the handling every cell of one sweep shares.
type CellSpec struct {
	Replicates int    // canonical replicate count per cell
	Engine     string // normalized engine hint
	TimeoutMS  int64  // per-cell deadline; 0 = the backend's default
}

// CellOutcome is one sweep cell's settled state as a Backend reports
// it.
type CellOutcome struct {
	SweepCellStatus
	// RunSec is the simulation time of a cell that ran; it feeds the
	// sweep's ETA. Zero when the backend does not know it.
	RunSec float64
}

// JobQuery is a validated GET /v1/jobs query.
type JobQuery struct {
	State  api.JobState // "" = any
	Limit  int
	Cursor string // list jobs older than this id
}

// JobList is the GET /v1/jobs response page: jobs newest first,
// without their results (GET /v1/jobs/{id} has the payload).
type JobList struct {
	Jobs []api.JobStatus `json:"jobs"`
	// NextCursor, when set, fetches the next (older) page via
	// ?cursor=.
	NextCursor string `json:"next_cursor,omitempty"`
}

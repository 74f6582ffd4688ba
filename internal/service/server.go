// Package service implements the d2mserver simulation service: the
// HTTP/JSON transport over the root d2m package. Execution — the job
// ledger, priority-class queues with per-tenant fair queueing and
// backpressure, the worker pool running same-warm-identity jobs as
// lockstep lane groups, and the admission pipeline (result-cache lookup,
// single-flight coalescing, all-or-nothing enqueue) — lives in
// internal/service/sched; this package contributes request validation,
// tenant authentication and token-bucket admission, the result cache
// and JSONL journal, the warm-snapshot store, the sweep orchestrator,
// SSE result streaming, and Prometheus-style metrics. The HTTP layer
// (http.go) runs on the Backend interface, which Server implements
// locally and the cluster gateway implements over a ring of shards, so
// one set of handlers serves both modes. The wire types live in
// internal/api. cmd/d2mserver is the thin binary around it.
package service

import (
	"context"
	"errors"
	"io"
	"net/http"
	"runtime"
	"sort"
	"time"

	"d2m"
	"d2m/internal/api"
	"d2m/internal/service/sched"
)

// Config sizes the service. The zero value is usable: every field has
// a production-sane default.
type Config struct {
	// Workers is the worker-pool size (concurrent simulations).
	// Zero means runtime.GOMAXPROCS(0).
	Workers int
	// QueueDepth bounds each priority class's job queue separately (one
	// interactive queue for /v1/run and /v1/batch, one bulk queue for
	// sweep cells). A POST that finds its class full is rejected with
	// 429 + Retry-After rather than accepted into an unbounded backlog.
	// Zero means 64.
	QueueDepth int
	// CacheEntries is the result-cache LRU capacity. Zero means 1024.
	CacheEntries int
	// DefaultTimeout is the per-job deadline (queue wait + run) applied
	// when a request does not set timeout_ms. Zero means no deadline.
	DefaultTimeout time.Duration
	// MaxJobs bounds the settled-job history kept for
	// GET /v1/jobs/{id}. Zero means 4096.
	MaxJobs int
	// MaxSweeps bounds the sweep history kept for
	// GET /v1/sweeps/{id}. Zero means 256.
	MaxSweeps int
	// StorePath, when non-empty, names the append-only JSONL result
	// journal: completed simulations are appended as they finish and
	// replayed into the result cache at startup, so results survive
	// restarts and resubmitted sweeps resume instead of recomputing.
	StorePath string
	// SnapshotMemBytes budgets the warm-state snapshot cache: runs
	// sharing a warm identity (d2m.CellKey.Warm) restore the post-warmup
	// machine state instead of re-simulating the warmup. Zero means
	// 256 MiB; negative disables snapshot reuse entirely.
	SnapshotMemBytes int64
	// ShardName, when non-empty, labels every Prometheus series this
	// server emits with shard="..." so a cluster's scrapes stay
	// attributable per process. Empty (the single-process default)
	// renders unlabeled series, unchanged from earlier revisions.
	ShardName string
	// Tenants, when non-empty, turns on multi-tenant admission: every
	// /v1 job and sweep endpoint requires an X-API-Key naming one of
	// these tenants, each with its own token-bucket rate limit and
	// scheduler queue share (see TenantSpec and cmd/d2mserver's
	// -tenants flag). Empty means single-tenant: no header required,
	// no limits.
	Tenants []TenantSpec
	// TraceDir, when non-empty, enables trace ingestion: uploaded access
	// traces are stored (content-addressed, validated) under this
	// directory and become "trace:<id>" benchmarks. The library is
	// installed process-wide via d2m.SetTraceDir — one directory per
	// process; the last server constructed with a TraceDir wins.
	TraceDir string
	// Runner executes one simulation — a single run, or one seed run of
	// a replicated request. Nil means d2m.Run against the server's
	// snapshot cache; tests substitute stubs to control timing and
	// observe cancellation.
	Runner func(ctx context.Context, kind d2m.Kind, bench string, opt d2m.Options) (d2m.Result, error)
}

// defaultSnapshotMemBytes is the warm-snapshot budget when
// Config.SnapshotMemBytes is zero.
const defaultSnapshotMemBytes = 256 << 20

// defaultMaxSweeps is the settled-sweep history kept when
// Config.MaxSweeps is zero, and always by the cluster gateway.
const defaultMaxSweeps = 256

func (c Config) withDefaults() Config {
	if c.Workers <= 0 {
		c.Workers = runtime.GOMAXPROCS(0)
	}
	if c.QueueDepth <= 0 {
		c.QueueDepth = 64
	}
	if c.CacheEntries <= 0 {
		c.CacheEntries = 1024
	}
	if c.MaxJobs <= 0 {
		c.MaxJobs = 4096
	}
	if c.MaxSweeps <= 0 {
		c.MaxSweeps = defaultMaxSweeps
	}
	if c.SnapshotMemBytes == 0 {
		c.SnapshotMemBytes = defaultSnapshotMemBytes
	}
	// Runner defaults inside New: the default closes over the server's
	// snapshot cache, which does not exist yet here.
	return c
}

// Server is the single-process service: the v1 HTTP layer over a
// local Backend that runs jobs on the embedded sched.Scheduler (job
// ledger, priority queues, worker pool, admission pipeline) and
// contributes the result cache, the journal, the warm-snapshot cache
// and tenant admission on top.
type Server struct {
	cfg       Config
	runner    func(context.Context, d2m.Kind, string, d2m.Options) (d2m.Result, error)
	sched     *sched.Scheduler
	metrics   *Metrics
	cache     *ResultCache
	snapshots *snapshotCache  // nil when SnapshotMemBytes < 0
	store     *resultStore    // nil without Config.StorePath
	tenants   *tenantRegistry // nil in single-tenant mode
	front     *front
	ready     chan struct{} // closed once journal replay has landed
}

// serverSink adapts the result cache and journal to sched.ResultSink:
// Lookup settles submissions at admission, Settle publishes each
// successful job before its waiters wake, so a restart straight after
// a response never loses the result it served.
type serverSink struct{ s *Server }

func (k serverSink) Lookup(key string) (d2m.Result, bool) {
	return k.s.cache.Get(key)
}

func (k serverSink) Settle(key string, res d2m.Result) {
	k.s.cache.Put(key, res)
	if k.s.store == nil {
		return
	}
	if err := k.s.store.append(StoreRecord{
		Key: key, Kind: res.Kind.String(), Benchmark: res.Benchmark, Result: res,
	}); err != nil {
		k.s.metrics.StoreErrors.Add(1)
	} else {
		k.s.metrics.StoreAppended.Add(1)
	}
}

// New opens the result store (when configured), starts the scheduler's
// worker pool, and returns the server. Callers serve s.Handler() and,
// on termination, call Shutdown.
func New(cfg Config) (*Server, error) {
	cfg = cfg.withDefaults()
	s := &Server{
		cfg:     cfg,
		runner:  cfg.Runner,
		metrics: &Metrics{Shard: cfg.ShardName},
		cache:   NewResultCache(cfg.CacheEntries),
		ready:   make(chan struct{}),
	}
	if cfg.SnapshotMemBytes > 0 {
		s.snapshots = newSnapshotCache(cfg.SnapshotMemBytes, s.metrics)
	}
	reg, err := newTenantRegistry(cfg.Tenants)
	if err != nil {
		return nil, err
	}
	s.tenants = reg
	if cfg.TraceDir != "" {
		if err := d2m.SetTraceDir(cfg.TraceDir); err != nil {
			return nil, err
		}
	}
	if s.runner == nil {
		s.runner = func(ctx context.Context, kind d2m.Kind, bench string, opt d2m.Options) (d2m.Result, error) {
			out, err := d2m.Run(ctx, d2m.RunSpec{
				Kind: kind, Benchmark: bench, Options: opt, Warm: s.warmCache(),
			})
			return out.Result, err
		}
	}
	if cfg.StorePath != "" {
		// Open for append synchronously — an unwritable path fails New —
		// but replay in the background so a large journal does not delay
		// startup; /readyz reports 503 until the cache is authoritative.
		store, err := openResultStore(cfg.StorePath)
		if err != nil {
			return nil, err
		}
		s.store = store
		go func() {
			defer close(s.ready)
			recs, err := ReplayJournal(cfg.StorePath)
			if err != nil {
				s.metrics.StoreErrors.Add(1)
				return
			}
			for _, rec := range recs {
				s.cache.Put(rec.Key, rec.Result)
			}
			s.metrics.StoreLoaded.Add(uint64(len(recs)))
		}()
	} else {
		close(s.ready)
	}

	// The scheduler owns execution; the server hands it the run
	// function (through the Runner seam), the result sink, and the
	// metrics observer.
	schedCfg := sched.Config{
		Workers:        cfg.Workers,
		QueueDepth:     cfg.QueueDepth,
		DefaultTimeout: cfg.DefaultTimeout,
		MaxJobs:        cfg.MaxJobs,
		TenantShare:    s.tenantShare,
		Run: func(ctx context.Context, spec d2m.RunSpec) (d2m.RunOutput, error) {
			res, err := s.runner(ctx, spec.Kind, spec.Benchmark, spec.Options)
			return d2m.RunOutput{Result: res}, err
		},
		Results:  serverSink{s},
		Observer: s.metrics,
	}
	if cfg.Runner == nil {
		// The vector path only exists over the real engine: a custom
		// Runner (test stubs controlling timing) keeps every job scalar.
		schedCfg.RunGroup = s.runGroup
	}
	sc, err := sched.New(schedCfg)
	if err != nil {
		return nil, err
	}
	s.sched = sc

	s.front = newFront(s, s.metrics, cfg.Workers, cfg.MaxSweeps)
	s.front.mux.HandleFunc("POST /admin/drain", s.handleDrain)
	s.front.mux.HandleFunc("POST /admin/undrain", s.handleUndrain)
	return s, nil
}

// Ready returns a channel closed once the server's result cache is
// authoritative: immediately when no store is configured, otherwise
// when the background journal replay has landed. /readyz reports 503
// until then.
func (s *Server) Ready() <-chan struct{} { return s.ready }

// Handler returns the service's HTTP handler.
func (s *Server) Handler() http.Handler { return s.front.mux }

// Metrics exposes the service counters (tests and expvar publication).
func (s *Server) Metrics() *Metrics { return s.metrics }

// warmCache returns the snapshot cache as a d2m.WarmCache, or an
// explicit nil interface when snapshot reuse is disabled — handing the
// typed nil *snapshotCache to d2m would defeat its wc == nil check.
func (s *Server) warmCache() d2m.WarmCache {
	if s.snapshots == nil {
		return nil
	}
	return s.snapshots
}

// runGroup is the scheduler's vector-execution hook: it threads the
// server's snapshot cache into every lane (the group shares one warm
// identity, so the whole group restores or deposits one snapshot) and
// delegates to the root lockstep engine.
func (s *Server) runGroup(ctx context.Context, lanes []d2m.GroupLane) ([]d2m.LaneOutcome, error) {
	wc := s.warmCache()
	for i := range lanes {
		lanes[i].Spec.Warm = wc
	}
	return d2m.RunGroup(ctx, lanes)
}

// engines lists the execution paths this server can use.
func (s *Server) engines() []string {
	if s.sched.MaxLanes() > 1 {
		return []string{d2m.EngineScalar, d2m.EngineVector}
	}
	return []string{d2m.EngineScalar}
}

// Shutdown drains the service: admission stops (new POSTs get 503),
// queued and running jobs are allowed to finish, and the worker pool
// exits. If ctx expires first, every outstanding job and sweep context
// is cancelled — simulations abort at their next engine checkpoint —
// and Shutdown waits for the workers before returning ctx.Err().
func (s *Server) Shutdown(ctx context.Context) error {
	err := s.sched.Shutdown(ctx)
	if err != nil {
		s.front.baseCancel() // abort outstanding sweeps too
	}
	// Workers have exited, so nothing appends to the store anymore.
	if s.store != nil {
		s.store.close()
	}
	return err
}

// ---------------------------------------------------------------------------
// The local Backend: the scheduler calls behind every handler.

var _ Backend = (*Server)(nil)

var errDraining = &api.Error{Code: api.ErrDraining, Message: "server is draining"}

// submission maps a validated run onto the scheduler's admission type.
// All transport-submitted runs (single and batch) are interactive;
// sweep cells enter as bulk through RunCells.
func submission(run Run, tenant string) sched.Submission {
	return sched.Submission{
		Kind:       run.Kind,
		Benchmark:  run.Bench,
		Options:    run.Options,
		Replicates: run.Reps,
		Engine:     run.Engine,
		Priority:   sched.Interactive,
		Timeout:    time.Duration(run.Req.TimeoutMS) * time.Millisecond,
		Detached:   run.Req.Async,
		Tenant:     tenant,
	}
}

// admissionError maps a scheduler admission error onto the wire: 503
// for drain, a counted 429 for a full class queue. retry_after_ms
// carries the scheduler's backoff estimate (the Retry-After header is
// derived from it), and tenant names the limited party under
// multi-tenancy — the per-tenant queue bound makes the rejection
// tenant-local. A group rejection counts the jobs it rolled back.
func (s *Server) admissionError(err error, p sched.Priority, tenant string) error {
	var group *sched.QueueFullError
	switch {
	case errors.Is(err, sched.ErrDraining):
		return errDraining
	case errors.As(err, &group):
		s.metrics.JobsRejected.Add(uint64(group.Jobs))
	case errors.Is(err, sched.ErrQueueFull):
		s.metrics.JobsRejected.Add(1)
	default:
		return err
	}
	return &api.Error{
		Code:         api.ErrOverloaded,
		Message:      "job queue is full",
		RetryAfterMS: s.sched.RetryAfter(p).Milliseconds(),
		Tenant:       tenant,
	}
}

// jobStatus renders a scheduler job snapshot as the wire api.JobStatus.
func jobStatus(in sched.Info) api.JobStatus {
	st := api.JobStatus{
		ID:        in.ID,
		State:     api.JobState(in.State),
		Kind:      in.Kind.String(),
		Benchmark: in.Benchmark,
		Priority:  in.Priority.String(),
		Engine:    in.Engine,
	}
	if in.QueuePos > 0 {
		st.QueuePosition = in.QueuePos
	}
	if !in.Started.IsZero() {
		st.QueueWaitMS = float64(in.Started.Sub(in.Created)) / float64(time.Millisecond)
		if !in.Finished.IsZero() {
			st.RunMS = float64(in.Finished.Sub(in.Started)) / float64(time.Millisecond)
		}
	}
	if in.Err != nil {
		st.Error = in.Err.Error()
	}
	if st.State == api.JobDone {
		st.Result = in.Result
		st.Replicated = in.Replicated
	}
	return st
}

func unknownJob(id string) error {
	return api.Errorf(api.ErrNotFound, "unknown job id %q", id)
}

// Draining reports whether admission is closed.
func (s *Server) Draining() bool { return s.sched.Draining() }

// Run submits one run. A synchronous run waits for its job; if ctx
// ends first (the client went away), the hold on the job is released,
// cancelling it when this was the last interested party.
func (s *Server) Run(ctx context.Context, tenant string, run Run) (api.JobStatus, error) {
	adm, err := s.sched.Submit(submission(run, tenant))
	if err != nil {
		return api.JobStatus{}, s.admissionError(err, sched.Interactive, tenant)
	}
	if adm.Cached {
		return run.CachedStatus(adm.Result, adm.Replicated), nil
	}
	j := adm.Job
	if run.Req.Async {
		return jobStatus(j.Info()), nil
	}
	select {
	case <-j.Done():
		return jobStatus(j.Info()), nil
	case <-ctx.Done():
		s.sched.Release(j)
		return api.JobStatus{}, ctx.Err()
	}
}

func (s *Server) Job(_ context.Context, _, id string) (api.JobStatus, error) {
	j, ok := s.sched.Lookup(id)
	if !ok {
		return api.JobStatus{}, unknownJob(id)
	}
	return jobStatus(j.Info()), nil
}

func (s *Server) CancelJob(_ context.Context, _, id string) (api.JobStatus, error) {
	j, err := s.sched.Cancel(id)
	switch {
	case errors.Is(err, sched.ErrUnknownJob):
		return api.JobStatus{}, unknownJob(id)
	case errors.Is(err, sched.ErrSettled):
		return api.JobStatus{}, api.Errorf(api.ErrConflict,
			"job %q already settled (%s)", id, j.Info().State)
	case err != nil:
		return api.JobStatus{}, err
	}
	return jobStatus(j.Info()), nil
}

// Jobs pages the scheduler's ledger. Its ids are zero-padded and
// monotonic, so walking them in reverse is newest first and the
// cursor is the last id of the prior page.
func (s *Server) Jobs(_ context.Context, _ string, q JobQuery) (JobList, error) {
	infos := s.sched.Jobs()
	sort.Slice(infos, func(a, b int) bool { return infos[a].ID < infos[b].ID })
	list := JobList{Jobs: []api.JobStatus{}}
	for i := len(infos) - 1; i >= 0; i-- {
		in := infos[i]
		if q.Cursor != "" && in.ID >= q.Cursor {
			continue
		}
		if q.State != "" && api.JobState(in.State) != q.State {
			continue
		}
		if len(list.Jobs) == q.Limit {
			list.NextCursor = list.Jobs[q.Limit-1].ID
			break
		}
		st := jobStatus(in)
		st.Result = nil // listings stay small; GET /v1/jobs/{id} has the payload
		list.Jobs = append(list.Jobs, st)
	}
	return list, nil
}

func (s *Server) Capabilities(_ context.Context, key string) (api.Capabilities, error) {
	caps := api.Capabilities{
		APIRevision:   api.Revision,
		Engines:       s.engines(),
		MaxLanes:      s.sched.MaxLanes(),
		Suites:        make(map[string][]string),
		Kinds:         api.KindNames(),
		Topologies:    d2m.Topologies(),
		Placements:    d2m.Placements(),
		Kernels:       []api.KernelCap{},
		MaxReplicates: api.MaxReplicates,
		SSE:           true,
		SweepsList:    true,
		Tenancy:       s.tenancyCaps(key),
		Traces:        d2m.TraceDirSet(),
	}
	for _, suite := range d2m.Suites() {
		caps.Suites[suite] = d2m.BenchmarksOf(suite)
	}
	// The Vector extras suite rides along outside the paper's five-suite
	// catalog: advertised here so clients can discover the vec-* names.
	caps.Suites[d2m.SuiteVector] = d2m.BenchmarksOf(d2m.SuiteVector)
	for _, k := range d2m.Kernels() {
		caps.Kernels = append(caps.Kernels, api.KernelCap{Name: k.Name, Description: k.Description})
	}
	return caps, nil
}

// Health reports liveness detail; /healthz answers 200 even while
// draining. Routability moved to /readyz in API v1.4.
func (s *Server) Health() interface{} {
	status := "ok"
	if s.sched.Draining() {
		status = "draining"
	}
	return map[string]interface{}{
		"status":  status,
		"queued":  s.metrics.Queued.Load(),
		"running": s.metrics.Running.Load(),
		"cached":  s.cache.Len(),
	}
}

// Readiness is 503 while the journal replay is still populating the
// cache or while admission is draining.
func (s *Server) Readiness() (string, bool) {
	select {
	case <-s.ready:
	default:
		return "replaying", false
	}
	if s.sched.Draining() {
		return "draining", false
	}
	return "ok", true
}

func (s *Server) WriteMetrics(w io.Writer) { s.metrics.WritePrometheus(w) }

// handleDrain (POST /admin/drain) closes admission reversibly: new
// submissions get 503 draining while queued and running jobs keep
// flowing, and /readyz flips to 503 so the gateway remaps this shard's
// hash range. POST /admin/undrain reopens admission — unless the
// server is shutting down, which is final. Only a single-process
// server has these routes.
func (s *Server) handleDrain(w http.ResponseWriter, r *http.Request) {
	s.sched.SetDraining(true)
	api.WriteJSON(w, http.StatusOK, map[string]interface{}{"draining": true})
}

func (s *Server) handleUndrain(w http.ResponseWriter, r *http.Request) {
	s.sched.SetDraining(false)
	api.WriteJSON(w, http.StatusOK, map[string]interface{}{
		"draining": s.sched.Draining(), // still true if shutdown won
	})
}

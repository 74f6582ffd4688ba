package service

import (
	"context"
	"fmt"
	"net/http"
	"sort"
	"sync"
	"time"

	"d2m"
	"d2m/internal/api"
	"d2m/internal/service/sched"
)

// This file is the sweep orchestrator: POST /v1/sweeps expands a
// parameter grid (d2m.SweepSpec) into cells, keeps the sweep record
// (progress, per-cell view, SSE event log, summary, bounded history)
// and hands the cells to the Backend. Locally, RunCells pushes them
// through the same admission path as POST /v1/run — result-cache
// lookup, single-flight coalescing, bounded queue — so overlapping
// sweeps and repeat runs share simulations. A full queue parks the
// feeder until a worker frees a slot (sweeps degrade by waiting, never
// by erroring), DELETE cancels every outstanding cell through the
// job-context plumbing, and with a configured result store a
// resubmitted sweep resumes from persisted cells instead of
// recomputing them.

// SweepRequest is the body of POST /v1/sweeps: the grid axes of
// d2m.SweepSpec (flattened) plus service-level handling knobs.
type SweepRequest struct {
	d2m.SweepSpec
	// Cells, when non-empty, is an explicit cell list that replaces the
	// grid expansion: the sweep runs exactly these cells in order, and
	// the grid axes (kinds, benchmarks, ...) must be absent. The cluster
	// gateway uses this to hand each shard the warm-identity-local slice
	// of a fleet-wide sweep; cells arrive in canonical (defaulted)
	// Options form and are re-validated here.
	Cells []d2m.SweepCell `json:"cells,omitempty"`
	// Baseline names the kind speedups are computed against. Empty
	// picks Base-2L when it is one of the sweep's kinds, else the
	// first kind.
	Baseline string `json:"baseline,omitempty"`
	// TimeoutMS caps each cell's lifetime (queue wait + run) in
	// milliseconds. Zero takes the server's default deadline.
	TimeoutMS int64 `json:"timeout_ms,omitempty"`
	// Replicates, when >= 2, runs every cell that many times with
	// decorrelated seeds; each cell's Result is then the mean
	// projection of its aggregate. Same bounds as the run endpoint.
	Replicates int `json:"replicates,omitempty"`
	// Engine is the execution-path hint applied to every cell: "" or
	// "auto" (the feeder chunks same-warm-identity cells into vector
	// lane groups when the engine supports them), "scalar" (every cell
	// runs alone), or "vector". Results are byte-identical either way.
	Engine string `json:"engine,omitempty"`
}

// SweepState is a sweep's position in its lifecycle.
type SweepState string

const (
	SweepRunning  SweepState = "running"
	SweepDone     SweepState = "done"
	SweepCanceled SweepState = "canceled"
)

// SweepSummary is the completed sweep's aggregate: per-kind speedup vs
// the baseline, msgs/KI and EDP — the shape of the paper's
// Figures 4-6.
type SweepSummary struct {
	Baseline string                 `json:"baseline"`
	Kinds    []d2m.SweepKindSummary `json:"kinds"`
}

// SweepStatus is the JSON view of a sweep (POST and GET /v1/sweeps
// responses).
type SweepStatus struct {
	ID    string     `json:"id"`
	State SweepState `json:"state"`
	Total int        `json:"total"`
	// Done counts completed cells; Cached is the subset served from
	// the result cache (or the persistent store) without simulating.
	Done      int     `json:"done"`
	Cached    int     `json:"cached"`
	Failed    int     `json:"failed"`
	Canceled  int     `json:"canceled,omitempty"`
	ElapsedMS float64 `json:"elapsed_ms"`
	// ETAMS estimates the remaining wall time from the mean observed
	// cell latency and the worker-pool width; zero until the first
	// non-cached cell completes.
	ETAMS   float64       `json:"eta_ms,omitempty"`
	Summary *SweepSummary `json:"summary,omitempty"`
	// Cells is the per-cell view, present only with ?cells=1 on GET:
	// one entry per grid point in expansion order.
	Cells []SweepCellStatus `json:"cells,omitempty"`
}

// SweepCellStatus is one grid point's settled (or pending) state in
// the ?cells=1 view of GET /v1/sweeps/{id}.
type SweepCellStatus struct {
	State  api.JobState `json:"state"`
	Cached bool         `json:"cached,omitempty"`
	Result *d2m.Result  `json:"result,omitempty"`
	Error  string       `json:"error,omitempty"`
}

// sweep is the HTTP layer's record of one accepted sweep; its cells
// run on the Backend (RunCells), which reports each as it settles.
type sweep struct {
	id       string
	caller   string // Backend caller value of the creating request
	baseline d2m.Kind
	spec     CellSpec
	cells    []d2m.SweepCell

	ctx    context.Context
	cancel context.CancelFunc
	doneCh chan struct{}

	mu       sync.Mutex
	state    SweepState
	outcome  []SweepCellStatus // State "" = not settled yet
	done     int
	cached   int
	failed   int
	canceled int
	runSecs  float64
	runCells int
	created  time.Time
	finished time.Time
	summary  *SweepSummary
	// events records cell indexes in settle order: the SSE event log.
	// Event id k (1-based) is cell events[k-1], so a reconnecting
	// client's Last-Event-ID maps straight to a replay offset. eventsCh
	// is closed and replaced on every append — a broadcast that wakes
	// all streamers without holding references to them.
	events   []int
	eventsCh chan struct{}
}

// settleCell records one cell's outcome; later reports for a settled
// cell are ignored.
func (sw *sweep) settleCell(i int, out CellOutcome, m *Metrics) {
	sw.mu.Lock()
	defer sw.mu.Unlock()
	if sw.outcome[i].State != "" {
		return
	}
	sw.outcome[i] = out.SweepCellStatus
	switch out.State {
	case api.JobDone:
		sw.done++
		m.SweepCellsDone.Add(1)
		if out.Cached {
			sw.cached++
			m.SweepCellsCached.Add(1)
		} else {
			sw.runSecs += out.RunSec
			sw.runCells++
		}
	case api.JobCanceled:
		sw.canceled++
		m.SweepCellsCanceled.Add(1)
	default:
		sw.failed++
		m.SweepCellsFailed.Add(1)
	}
	sw.events = append(sw.events, i)
	close(sw.eventsCh)
	sw.eventsCh = make(chan struct{})
}

// status snapshots the sweep's JSON view.
func (sw *sweep) status(workers int) SweepStatus {
	sw.mu.Lock()
	defer sw.mu.Unlock()
	st := SweepStatus{
		ID: sw.id, State: sw.state, Total: len(sw.cells),
		Done: sw.done, Cached: sw.cached, Failed: sw.failed, Canceled: sw.canceled,
		Summary: sw.summary,
	}
	end := time.Now()
	if !sw.finished.IsZero() {
		end = sw.finished
	}
	st.ElapsedMS = float64(end.Sub(sw.created)) / float64(time.Millisecond)
	if sw.state == SweepRunning && sw.runCells > 0 {
		remaining := len(sw.cells) - sw.done - sw.failed - sw.canceled
		if workers < 1 {
			workers = 1
		}
		avg := sw.runSecs / float64(sw.runCells)
		st.ETAMS = avg * float64(remaining) / float64(workers) * 1000
	}
	return st
}

// ---------------------------------------------------------------------------
// HTTP handlers.

// expandSweep resolves a request to its validated cell list, baseline
// kind, and the handling every cell shares.
func expandSweep(req SweepRequest) ([]d2m.SweepCell, d2m.Kind, CellSpec, error) {
	// Unknown benchmarks carry their own code, matching POST /v1/run.
	for _, b := range req.Benchmarks {
		if _, ok := d2m.SuiteOf(b); !ok {
			return nil, 0, CellSpec{}, api.Errorf(api.ErrUnknownBenchmark,
				"d2m: unknown benchmark %q (see GET /v1/capabilities)", b)
		}
	}
	cells, err := sweepCells(req)
	if err != nil {
		return nil, 0, CellSpec{}, err
	}
	baseline, err := d2m.SweepBaseline(req.Baseline, cells)
	if err != nil {
		return nil, 0, CellSpec{}, api.Errorf(api.ErrInvalidRequest, "%v", err)
	}
	reps, err := api.NormalizeReplicates(req.Replicates)
	if err != nil {
		return nil, 0, CellSpec{}, err
	}
	engine, err := api.NormalizeEngine(req.Engine)
	if err != nil {
		return nil, 0, CellSpec{}, err
	}
	return cells, baseline, CellSpec{Replicates: reps, Engine: engine, TimeoutMS: req.TimeoutMS}, nil
}

func (f *front) handleSweepCreate(w http.ResponseWriter, r *http.Request) {
	var req SweepRequest
	if !decode(w, r, maxBodyBytes, &req) {
		return
	}
	cells, baseline, spec, err := expandSweep(req)
	if err != nil {
		api.WriteErr(w, err)
		return
	}
	// The caller is charged one token per simulation — per seed of each
	// cell — after validation: a sweep is a bulk submission of its
	// whole grid.
	caller, ok := f.caller(w, r, len(cells)*max(1, spec.Replicates))
	if !ok {
		return
	}
	if f.b.Draining() {
		api.WriteErr(w, errDraining)
		return
	}
	sw := &sweep{
		id:       fmt.Sprintf("s%08d", f.nextSweepID.Add(1)),
		caller:   caller,
		baseline: baseline,
		spec:     spec,
		cells:    cells,
		outcome:  make([]SweepCellStatus, len(cells)),
		doneCh:   make(chan struct{}),
		eventsCh: make(chan struct{}),
		state:    SweepRunning,
		created:  time.Now(),
	}
	sw.ctx, sw.cancel = context.WithCancel(f.baseCtx)
	f.mu.Lock()
	f.sweeps[sw.id] = sw
	f.mu.Unlock()
	f.metrics.SweepsAccepted.Add(1)
	f.metrics.SweepsActive.Add(1)
	go f.runSweep(sw)
	api.WriteJSON(w, http.StatusAccepted, sw.status(f.workers))
}

// sweepCells resolves a request's cell list: the grid expansion in the
// normal case, or the explicit Cells list (validated cell by cell)
// when present — the two forms are mutually exclusive.
func sweepCells(req SweepRequest) ([]d2m.SweepCell, error) {
	if len(req.Cells) == 0 {
		cells, err := req.SweepSpec.Expand()
		if err != nil {
			return nil, api.Errorf(api.ErrInvalidRequest, "%v", err)
		}
		return cells, nil
	}
	if len(req.Kinds) > 0 || len(req.Benchmarks) > 0 {
		return nil, api.Errorf(api.ErrInvalidRequest,
			"cells and grid axes (kinds, benchmarks) are mutually exclusive")
	}
	if len(req.Cells) > d2m.DefaultSweepCells {
		return nil, api.Errorf(api.ErrInvalidRequest,
			"sweep lists %d cells, over the cap of %d", len(req.Cells), d2m.DefaultSweepCells)
	}
	cells := make([]d2m.SweepCell, len(req.Cells))
	for i, c := range req.Cells {
		if _, err := d2m.ParseKind(c.Kind.String()); err != nil {
			return nil, api.Errorf(api.ErrInvalidRequest, "cells[%d]: %v", i, err)
		}
		if _, ok := d2m.SuiteOf(c.Benchmark); !ok {
			return nil, api.Errorf(api.ErrUnknownBenchmark,
				"cells[%d]: d2m: unknown benchmark %q (see GET /v1/capabilities)", i, c.Benchmark)
		}
		c.Options = c.Options.WithDefaults()
		if err := c.Options.Validate(); err != nil {
			return nil, api.Errorf(api.ErrInvalidRequest, "cells[%d]: %v", i, err)
		}
		if err := d2m.CheckBenchmark(c.Benchmark, c.Options); err != nil {
			return nil, api.Errorf(api.ErrInvalidRequest, "cells[%d]: %v", i, err)
		}
		cells[i] = c
	}
	return cells, nil
}

// lookupSweep authenticates the request and finds its sweep; on
// failure it has written the error.
func (f *front) lookupSweep(w http.ResponseWriter, r *http.Request) *sweep {
	if _, ok := f.caller(w, r, 0); !ok {
		return nil
	}
	f.mu.Lock()
	sw, ok := f.sweeps[r.PathValue("id")]
	f.mu.Unlock()
	if !ok {
		api.WriteErr(w, api.Errorf(api.ErrNotFound, "unknown sweep id %q", r.PathValue("id")))
		return nil
	}
	return sw
}

func (f *front) handleSweepGet(w http.ResponseWriter, r *http.Request) {
	sw := f.lookupSweep(w, r)
	if sw == nil {
		return
	}
	if api.AcceptsSSE(r) {
		f.streamSweep(w, r, sw)
		return
	}
	st := sw.status(f.workers)
	if r.URL.Query().Get("cells") == "1" {
		st.Cells = sw.cellStatuses()
	}
	api.WriteJSON(w, http.StatusOK, st)
}

// cellStatuses snapshots the per-cell view in expansion order. A cell
// not yet settled reads as queued — the sweep does not track the
// queued/running transition per cell.
func (sw *sweep) cellStatuses() []SweepCellStatus {
	sw.mu.Lock()
	defer sw.mu.Unlock()
	out := make([]SweepCellStatus, len(sw.outcome))
	for i := range sw.outcome {
		out[i] = sw.cellStatusLocked(i)
	}
	return out
}

// cellStatus snapshots one cell — the payload of an SSE "cell" event,
// rendered identically to its slot in the ?cells=1 view.
func (sw *sweep) cellStatus(i int) SweepCellStatus {
	sw.mu.Lock()
	defer sw.mu.Unlock()
	return sw.cellStatusLocked(i)
}

func (sw *sweep) cellStatusLocked(i int) SweepCellStatus {
	cs := sw.outcome[i]
	if cs.State == "" {
		cs.State = api.JobQueued
	}
	return cs
}

// SweepList is the GET /v1/sweeps response: a newest-first page of
// sweep statuses (without the per-cell view or summary) plus the
// cursor for the next page, empty when this page is the last.
type SweepList struct {
	Sweeps     []SweepStatus `json:"sweeps"`
	NextCursor string        `json:"next_cursor,omitempty"`
}

// handleSweeps lists known sweeps newest first, with ?state= filtering
// and cursor pagination. Sweep ids are zero-padded monotonic counters,
// so lexicographic order is creation order and the cursor is simply
// the last id of the previous page: the next page starts strictly
// below it. Retired sweeps fall out of the listing with the lookup
// table.
func (f *front) handleSweeps(w http.ResponseWriter, r *http.Request) {
	if _, ok := f.caller(w, r, 0); !ok {
		return
	}
	q := r.URL.Query()
	var filter SweepState
	switch st := q.Get("state"); st {
	case "":
	case string(SweepRunning), string(SweepDone), string(SweepCanceled):
		filter = SweepState(st)
	default:
		api.WriteErr(w, api.Errorf(api.ErrInvalidRequest,
			"unknown state %q: want running, done, or canceled", st))
		return
	}
	limit, err := parseLimit(q)
	if err != nil {
		api.WriteErr(w, err)
		return
	}
	cursor := q.Get("cursor")

	f.mu.Lock()
	ids := make([]string, 0, len(f.sweeps))
	for id := range f.sweeps {
		ids = append(ids, id)
	}
	f.mu.Unlock()
	sort.Sort(sort.Reverse(sort.StringSlice(ids)))

	list := SweepList{Sweeps: []SweepStatus{}}
	for _, id := range ids {
		if cursor != "" && id >= cursor {
			continue
		}
		f.mu.Lock()
		sw, ok := f.sweeps[id]
		f.mu.Unlock()
		if !ok {
			continue // retired between snapshot and render
		}
		st := sw.status(f.workers)
		if filter != "" && st.State != filter {
			continue
		}
		st.Summary = nil // the list view is a digest; GET the id for detail
		if len(list.Sweeps) == limit {
			list.NextCursor = list.Sweeps[limit-1].ID
			break
		}
		list.Sweeps = append(list.Sweeps, st)
	}
	api.WriteJSON(w, http.StatusOK, list)
}

// handleSweepDelete cancels a sweep: the backend stops feeding it,
// every outstanding cell is released (cancelling simulations whose
// only waiter was this sweep), and the sweep settles as canceled.
// Deleting a settled sweep is a no-op returning its status.
func (f *front) handleSweepDelete(w http.ResponseWriter, r *http.Request) {
	sw := f.lookupSweep(w, r)
	if sw == nil {
		return
	}
	sw.cancel()
	api.WriteJSON(w, http.StatusOK, sw.status(f.workers))
}

// ---------------------------------------------------------------------------
// Execution.

// runSweep runs the cells on the backend and, once all have settled,
// aggregates the summary.
func (f *front) runSweep(sw *sweep) {
	err := f.b.RunCells(sw.ctx, sw.caller, sw.cells, sw.spec, func(i int, out CellOutcome) {
		sw.settleCell(i, out, f.metrics)
	})
	if err != nil {
		sw.cancel()
	}
	f.finalizeSweep(sw)
}

// RunCells feeds every cell through the shared admission pipeline in
// the bulk class. Consecutive cells sharing a warm identity (typically
// the innermost link-bandwidth axis of the grid) are submitted
// together through SubmitGroupWait, so they enter the queue at once
// and one worker takes them as a lockstep lane group. The parking loop
// on a full bulk queue means a sweep larger than the queue degrades by
// waiting, never by failing, and the bulk class's bounded dequeue
// share keeps a large sweep from starving interactive requests.
func (s *Server) RunCells(ctx context.Context, tenant string, cells []d2m.SweepCell, spec CellSpec, settle func(int, CellOutcome)) error {
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()
	maxChunk := min(s.sched.MaxLanes(), s.cfg.QueueDepth)
	if spec.Replicates >= 2 || spec.Engine == d2m.EngineScalar {
		// A replicated cell already enters as a group of seed runs; a
		// scalar hint opts the whole sweep out of grouping.
		maxChunk = 1
	}
	var (
		wg     sync.WaitGroup
		failed error
	)
	for i := 0; i < len(cells); {
		if ctx.Err() != nil {
			settle(i, canceledCell(ctx.Err()))
			i++
			continue
		}
		end := i + 1
		if maxChunk > 1 {
			warm := cells[i].Key().Warm()
			for end < len(cells) && end-i < maxChunk && cells[end].Key().Warm() == warm {
				end++
			}
		}
		subs := make([]sched.Submission, end-i)
		for k := range subs {
			cell := cells[i+k]
			subs[k] = sched.Submission{
				Kind:       cell.Kind,
				Benchmark:  cell.Benchmark,
				Options:    cell.Options,
				Replicates: spec.Replicates,
				Engine:     spec.Engine,
				Priority:   sched.Bulk,
				Tenant:     tenant,
				Timeout:    time.Duration(spec.TimeoutMS) * time.Millisecond,
			}
		}
		adms, err := s.sched.SubmitGroupWait(ctx, subs)
		if err != nil {
			// Draining, canceled mid-wait, or a cell with more seeds
			// than a queue holds: abandon the remainder.
			cancel()
			failed = err
			for k := i; k < end; k++ {
				settle(k, canceledCell(err))
			}
			i = end
			continue
		}
		for k := range adms {
			if adms[k].Cached {
				r := adms[k].Result
				settle(i+k, CellOutcome{SweepCellStatus: SweepCellStatus{State: api.JobDone, Cached: true, Result: &r}})
				continue
			}
			wg.Add(1)
			go func(i int, j *sched.Job) {
				defer wg.Done()
				settle(i, s.collectCell(ctx, j))
			}(i+k, adms[k].Job)
		}
		i = end
	}
	wg.Wait()
	return failed
}

func canceledCell(err error) CellOutcome {
	return CellOutcome{SweepCellStatus: SweepCellStatus{State: api.JobCanceled, Error: err.Error()}}
}

// collectCell waits for one admitted cell to settle (or for the sweep
// to be canceled, in which case it releases its hold on the job).
func (s *Server) collectCell(ctx context.Context, j *sched.Job) CellOutcome {
	select {
	case <-j.Done():
		in := j.Info()
		out := CellOutcome{SweepCellStatus: SweepCellStatus{State: api.JobState(in.State)}}
		switch {
		case out.State == api.JobDone:
			out.Result = in.Result
			out.RunSec = in.Finished.Sub(in.Started).Seconds()
		case in.Err != nil:
			out.Error = in.Err.Error()
		}
		return out
	case <-ctx.Done():
		s.sched.Release(j)
		return canceledCell(ctx.Err())
	}
}

// finalizeSweep aggregates the completed cells and settles the sweep.
func (f *front) finalizeSweep(sw *sweep) {
	results := make([]*d2m.Result, len(sw.cells))
	sw.mu.Lock()
	for i := range sw.outcome {
		results[i] = sw.outcome[i].Result
	}
	sw.mu.Unlock()
	summary := &SweepSummary{
		Baseline: sw.baseline.String(),
		Kinds:    d2m.SummarizeSweep(sw.baseline, sw.cells, results),
	}

	// Count the sweep as settled before any reader can see it so: a
	// caller that waits for it to settle then finds the history bound
	// already applied.
	f.retireSweep(sw)
	sw.mu.Lock()
	sw.summary = summary
	sw.finished = time.Now()
	if sw.ctx.Err() != nil {
		sw.state = SweepCanceled
	} else {
		sw.state = SweepDone
	}
	settled := sw.state
	sw.mu.Unlock()
	sw.cancel()
	close(sw.doneCh)

	if settled == SweepCanceled {
		f.metrics.SweepsCanceled.Add(1)
	} else {
		f.metrics.SweepsDone.Add(1)
	}
	f.metrics.SweepsActive.Add(-1)
}

// retireSweep bounds the sweep history: beyond maxSweeps settled
// sweeps, the oldest vanish from GET /v1/sweeps/{id}.
func (f *front) retireSweep(sw *sweep) {
	f.mu.Lock()
	f.sweepRetired = append(f.sweepRetired, sw.id)
	for len(f.sweepRetired) > f.maxSweeps {
		delete(f.sweeps, f.sweepRetired[0])
		f.sweepRetired = f.sweepRetired[1:]
	}
	f.mu.Unlock()
}

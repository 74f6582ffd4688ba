// Package sched is the transport-independent execution engine of the
// d2m simulation service: a Scheduler owning the job ledger, a
// multi-level queue with priority classes and weighted dequeue, a
// worker pool that runs same-warm-identity jobs as lockstep lane
// groups, and one admission pipeline (validate, result-cache lookup,
// in-flight coalescing, all-or-nothing enqueue) that single runs,
// batches, and sweep cells all flow through. The HTTP layer
// (internal/service) shrinks to marshalling plus calls into this
// package; caches, stores, and metrics stay behind the small
// ResultSink / Observer interfaces, so the scheduler is unit-testable
// without HTTP.
package sched

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"time"

	"d2m"
)

// Priority is a submission's scheduling class. Lower values are served
// preferentially: the dequeue loop picks InteractiveWeight interactive
// jobs for every bulk job when both classes are waiting, and each class
// has its own queue capacity, so a large sweep can neither starve nor
// crowd out interactive requests.
type Priority int

const (
	// Interactive is the class of latency-sensitive submissions
	// (POST /v1/run, POST /v1/batch).
	Interactive Priority = iota
	// Bulk is the class of throughput work (sweep cells): it uses idle
	// capacity and a bounded share of contended capacity.
	Bulk
	// NumPriorities bounds the class enum; also the number of queues.
	NumPriorities
)

func (p Priority) String() string {
	switch p {
	case Interactive:
		return "interactive"
	case Bulk:
		return "bulk"
	default:
		return fmt.Sprintf("Priority(%d)", int(p))
	}
}

// State is a job's position in its lifecycle.
type State string

const (
	StateQueued   State = "queued"
	StateRunning  State = "running"
	StateDone     State = "done"
	StateFailed   State = "failed"
	StateCanceled State = "canceled"
)

// settled reports whether the state is terminal.
func (st State) settled() bool {
	return st == StateDone || st == StateFailed || st == StateCanceled
}

// Submission describes one unit of work entering the admission
// pipeline. The simulation identity (Kind, Benchmark, Options,
// Replicates) determines the cache key; the remaining fields are
// handling knobs that do not affect it.
type Submission struct {
	Kind       d2m.Kind
	Benchmark  string
	Options    d2m.Options
	Replicates int // >= 2: a replicated job over its seed runs (SubmitGroup); 0 = single run

	// Priority selects the scheduling class. The zero value is
	// Interactive.
	Priority Priority
	// Tenant names the traffic source for fair queueing: within each
	// class, tenants drain deficit-round-robin in proportion to their
	// Config.TenantShare, and each tenant gets its own QueueDepth
	// allotment. The zero value is the default tenant — a scheduler fed
	// only by it behaves exactly like the pre-tenancy FIFO. Tenant is a
	// handling knob: it never enters the cache key, so identical work
	// from different tenants still coalesces.
	Tenant string
	// Timeout caps the job's total lifetime (queue wait + run). Zero
	// takes the scheduler's default; negative means no deadline.
	Timeout time.Duration
	// Detached marks a job that outlives its submitting request (async
	// submissions): it is never cancelled by its waiters disconnecting.
	Detached bool
	// Engine is the execution-path hint: "" (auto — the scheduler may
	// group the job into a vector lane group), d2m.EngineScalar (run
	// alone, never grouped), or d2m.EngineVector (grouping preferred;
	// still runs scalar when no group forms). Scalar and vector results
	// are byte-identical by contract, so the hint never changes the
	// cache key.
	Engine string
}

// validate rejects submissions the scheduler cannot represent. The
// transport layer performs the user-facing validation (benchmark
// catalog, option ranges) before building a Submission.
func (sub Submission) validate() error {
	if sub.Benchmark == "" {
		return errors.New("sched: submission has no benchmark")
	}
	if sub.Priority < 0 || sub.Priority >= NumPriorities {
		return fmt.Errorf("sched: unknown priority %d", sub.Priority)
	}
	switch sub.Engine {
	case "", d2m.EngineScalar, d2m.EngineVector:
	default:
		return fmt.Errorf("sched: unknown engine %q", sub.Engine)
	}
	return nil
}

// CacheKey returns the submission's content address: the hash of the
// canonical (kind, benchmark, defaulted options, replicates) tuple.
// Submissions that differ only in presentation or handling knobs share
// a key and therefore share one simulation. The explicit spellings of
// the default topology and placement ("crossbar", "pressure") hash as
// the empty default, so keys written the default way keep their bytes.
// Reps is tagged omitempty so single-run keys are byte-identical to the
// pre-replicate revision and persisted result stores stay valid.
func CacheKey(kind d2m.Kind, bench string, opt d2m.Options, reps int) string {
	opt = opt.WithDefaults()
	if opt.Topology == "crossbar" {
		opt.Topology = ""
	}
	if opt.Placement == "pressure" {
		opt.Placement = ""
	}
	h := sha256.New()
	json.NewEncoder(h).Encode(struct {
		Kind  string
		Bench string
		Opt   d2m.Options
		Reps  int `json:"reps,omitempty"`
	}{kind.String(), bench, opt, reps})
	return hex.EncodeToString(h.Sum(nil)[:16])
}

// runSpec is the library spec a single-run submission runs as.
func (sub Submission) runSpec() d2m.RunSpec {
	return d2m.RunSpec{Kind: sub.Kind, Benchmark: sub.Benchmark, Options: sub.Options}
}

// seed is the single run of one seed cell of a replicated submission,
// with the submission's handling knobs but never its detachment.
func (sub Submission) seed(c d2m.SweepCell) Submission {
	sub.Kind, sub.Benchmark, sub.Options, sub.Replicates, sub.Detached = c.Kind, c.Benchmark, c.Options, 0, false
	return sub
}

// key returns the submission's cache key.
func (sub Submission) key() string {
	return CacheKey(sub.Kind, sub.Benchmark, sub.Options, sub.Replicates)
}

// Job is the scheduler's record of one admitted simulation. Fields
// below the marker are guarded by Scheduler.mu until done closes,
// after which they are immutable.
type Job struct {
	s      *Scheduler
	id     string
	key    string
	spec   Submission
	ctx    context.Context
	cancel context.CancelFunc
	done   chan struct{}
	// runCh closes when a worker claims the job (queued → running). A
	// job settled straight from the queue (cancel, deadline) never
	// closes it, so observers must select on Done as well.
	runCh chan struct{}
	// laneOK reports that the job may run in a lane group (single run,
	// engine hint not "scalar"), and laneKey is then its warm identity.
	// A worker that dequeues an eligible job takes queued eligible jobs
	// with the same laneKey into one lockstep RunGroup call. Immutable
	// after creation.
	laneKey d2m.CellKey
	laneOK  bool
	// A replicated job's seed runs, in plan order, set at admission: a
	// seed the sink answered is a settled stand-in outside the ledger.
	plan  d2m.Plan[d2m.Replicated]
	seeds []*Job

	// guarded by Scheduler.mu until done closes.
	state State
	// engine records the execution path that produced the result
	// ("scalar" or "vector"); set when the job settles done.
	engine     string
	result     d2m.Result
	replicated *d2m.Replicated
	err        error
	waiters    int
	detached   bool
	created    time.Time
	started    time.Time
	finished   time.Time
	parents    []*Job // replicated jobs holding this job as a seed run
}

// ID returns the job's ledger id.
func (j *Job) ID() string { return j.id }

// Key returns the job's cache key.
func (j *Job) Key() string { return j.key }

// Done returns the channel closed when the job settles.
func (j *Job) Done() <-chan struct{} { return j.done }

// Started returns the channel closed when a worker claims the job, or
// a replicated job's first seed. Jobs settled without ever running
// (cancelled or expired while queued) never close it; select on Done
// alongside it.
func (j *Job) Started() <-chan struct{} { return j.runCh }

// Info snapshots the job's observable state.
func (j *Job) Info() Info {
	j.s.mu.Lock()
	defer j.s.mu.Unlock()
	return j.s.infoLocked(j)
}

// Info is a point-in-time view of a job, safe to use without holding
// any scheduler lock.
type Info struct {
	ID       string
	State    State
	Priority Priority
	// QueuePos is the job's 1-based position among its own tenant's
	// queued jobs of its class; zero once the job leaves the queue.
	// Under fair queueing the tenant-local depth, not the interleaved
	// class order, is the client-meaningful number. A replicated job
	// reports its first queued seed's.
	QueuePos  int
	Kind      d2m.Kind
	Benchmark string
	// Engine is the execution path that produced the result ("scalar"
	// or "vector", for a replicated job if any seed ran as a lane); set
	// once the job is done.
	Engine   string
	Created  time.Time
	Started  time.Time
	Finished time.Time
	Err      error
	// Result and Replicated are set only for StateDone.
	Result     *d2m.Result
	Replicated *d2m.Replicated
}

// Admission is the outcome of submitting one Submission: exactly one
// of Cached (result served without queueing) or Job (queued, coalesced
// or fresh) describes it.
type Admission struct {
	// Job is the admitted job; nil when Cached.
	Job *Job
	// New reports that Job was created by this submission rather than
	// coalesced onto an identical in-flight one.
	New bool
	// Cached reports that the submission — every seed of a replicated
	// one — was settled from the result sink at admission;
	// Result/Replicated then carry the payload.
	Cached     bool
	Result     d2m.Result
	Replicated *d2m.Replicated
}

// ResultSink is the scheduler's view of the result cache (and journal):
// Lookup may settle a submission at admission, Settle publishes a
// successful job's result before its waiters wake. Replicated jobs
// reach it only through their seeds.
type ResultSink interface {
	Lookup(key string) (d2m.Result, bool)
	Settle(key string, res d2m.Result)
}

// Observer receives the scheduler's accounting events; the service
// maps them onto its Prometheus metrics. Implementations must be safe
// for concurrent use.
type Observer interface {
	JobAccepted()
	JobCoalesced()
	CacheHit()
	CacheMiss()
	JobSettled(st State)
	QueuedDelta(d int64)
	RunningDelta(d int64)
	ObserveQueueWait(p Priority, seconds float64)
	ObserveRun(seconds float64)
}

// Errors returned by the admission and cancellation surface.
var (
	// ErrQueueFull rejects an admission that would overflow a class
	// queue. Group admissions return a *QueueFullError wrapping it.
	ErrQueueFull = errors.New("sched: job queue is full")
	// ErrDraining rejects admissions after Shutdown began.
	ErrDraining = errors.New("sched: scheduler is draining")
	// ErrSettled reports a Cancel on an already-settled job.
	ErrSettled = errors.New("sched: job already settled")
	// ErrUnknownJob reports a Cancel on an id absent from the ledger.
	ErrUnknownJob = errors.New("sched: unknown job")
)

// QueueFullError is the group-admission form of ErrQueueFull: Jobs
// counts the submissions that would have become new jobs before the
// all-or-nothing rollback discarded them (coalesced and cached
// submissions excluded). errors.Is(err, ErrQueueFull) matches it.
type QueueFullError struct {
	Jobs      int
	oversized bool // the group alone overflows a queue: waiting cannot admit it
}

func (e *QueueFullError) Error() string { return ErrQueueFull.Error() }

// Is makes errors.Is(e, ErrQueueFull) true.
func (e *QueueFullError) Is(target error) bool { return target == ErrQueueFull }

// nopObserver and nopSink stand in for absent hooks.
type nopObserver struct{}

func (nopObserver) JobAccepted()                       {}
func (nopObserver) JobCoalesced()                      {}
func (nopObserver) CacheHit()                          {}
func (nopObserver) CacheMiss()                         {}
func (nopObserver) JobSettled(State)                   {}
func (nopObserver) QueuedDelta(int64)                  {}
func (nopObserver) RunningDelta(int64)                 {}
func (nopObserver) ObserveQueueWait(Priority, float64) {}
func (nopObserver) ObserveRun(float64)                 {}

type nopSink struct{}

func (nopSink) Lookup(string) (d2m.Result, bool) { return d2m.Result{}, false }
func (nopSink) Settle(string, d2m.Result)        {}

package sched

import (
	"cmp"
	"context"
	"errors"
	"fmt"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"d2m"
)

// Config sizes the scheduler. The zero value of every field but Run is
// usable: each has a production-sane default.
type Config struct {
	// Workers is the worker-pool size (concurrent simulations).
	// Zero means runtime.GOMAXPROCS(0).
	Workers int
	// QueueDepth bounds each priority class's queue separately, so bulk
	// backlog can never consume the interactive class's admission
	// capacity. Zero means 64.
	QueueDepth int
	// DefaultTimeout is the per-job deadline (queue wait + run) applied
	// when a submission does not set its own. Zero means no deadline.
	DefaultTimeout time.Duration
	// MaxJobs bounds the settled-job history kept in the ledger.
	// Zero means 4096.
	MaxJobs int
	// InteractiveWeight is the dequeue ratio when both classes have
	// waiting jobs: this many interactive jobs are served per bulk job.
	// Zero means 4.
	InteractiveWeight int
	// TenantShare maps a Submission.Tenant to its deficit-round-robin
	// quantum within each class: per contended round, a tenant drains
	// TenantShare jobs for every one job of a share-1 tenant. Nil (or
	// returns below 1) means every tenant weighs 1. The class-level
	// InteractiveWeight policy is unaffected.
	TenantShare func(tenant string) int
	// Run executes one simulation; it is the only required field. The
	// scheduler passes a single run's identity through a d2m.RunSpec
	// and stores the output on the job.
	Run func(ctx context.Context, spec d2m.RunSpec) (d2m.RunOutput, error)
	// RunGroup, when non-nil, executes a lane group — up to maxLanes
	// queued jobs sharing a lane key (warm identity) — as one lockstep
	// simulation, returning one outcome per lane in order. Nil disables
	// vector execution: every job runs alone through Run.
	RunGroup func(ctx context.Context, lanes []d2m.GroupLane) ([]d2m.LaneOutcome, error)
	// Results, when non-nil, is consulted at admission (Lookup) and on
	// success (Settle): the service wires its result cache and JSONL
	// journal here.
	Results ResultSink
	// Observer, when non-nil, receives accounting events.
	Observer Observer
}

func (c Config) withDefaults() Config {
	if c.Workers <= 0 {
		c.Workers = runtime.GOMAXPROCS(0)
	}
	if c.QueueDepth <= 0 {
		c.QueueDepth = 64
	}
	if c.MaxJobs <= 0 {
		c.MaxJobs = 4096
	}
	if c.InteractiveWeight <= 0 {
		c.InteractiveWeight = 4
	}
	if c.Results == nil {
		c.Results = nopSink{}
	}
	if c.Observer == nil {
		c.Observer = nopObserver{}
	}
	return c
}

// Scheduler owns the job ledger, the multi-level queue, and the worker
// pool. All methods are safe for concurrent use.
type Scheduler struct {
	cfg    Config
	obs    Observer
	sink   ResultSink
	wg     sync.WaitGroup
	nextID atomic.Uint64

	baseCtx    context.Context // parent of every job context
	baseCancel context.CancelFunc

	// slotFree pulses when a queue slot frees up (a worker dequeued
	// jobs, or a queued job was cancelled), waking one SubmitGroupWait
	// feeder parked on a full queue. Best-effort; feeders also poll.
	slotFree chan struct{}

	mu   sync.Mutex
	cond *sync.Cond // signalled on enqueue and drain
	// draining gates admission only: new submissions get ErrDraining
	// while queued and running jobs keep flowing through the workers.
	// It is reversible (SetDraining) — the cluster gateway drains a
	// shard out of its hash ring, lets in-flight work finish, and may
	// bring the shard back. stopping additionally tells workers to exit
	// once the queues empty; it is set only by Shutdown and is final.
	draining bool
	stopping bool
	// queues hold the queued jobs per class, fair-queued across
	// tenants; queuedN counts them, and queuedT splits that count by
	// tenant — QueueDepth bounds each tenant's share of a class
	// separately, so one tenant's backlog cannot consume another's
	// admission capacity.
	queues  [NumPriorities]classQueue
	queuedN [NumPriorities]int
	queuedT [NumPriorities]map[string]int
	// rr counts interactive dequeues since the last bulk one, for the
	// weighted pick.
	rr       int
	jobs     map[string]*Job // by id; settled history bounded by MaxJobs
	inflight map[string]*Job // by cache key: queued or running
	retired  []string        // settled job ids, oldest first
	// runEWMA tracks recent per-job service seconds (runCount samples),
	// feeding RetryAfter.
	runEWMA  float64
	runCount uint64
}

// New starts a scheduler and its worker pool. Callers must Shutdown it.
func New(cfg Config) (*Scheduler, error) {
	cfg = cfg.withDefaults()
	if cfg.Run == nil {
		return nil, errors.New("sched: Config.Run is required")
	}
	s := &Scheduler{
		cfg:      cfg,
		obs:      cfg.Observer,
		sink:     cfg.Results,
		slotFree: make(chan struct{}, 1),
		jobs:     make(map[string]*Job),
		inflight: make(map[string]*Job),
	}
	for p := range s.queuedT {
		s.queuedT[p] = make(map[string]int)
	}
	s.cond = sync.NewCond(&s.mu)
	s.baseCtx, s.baseCancel = context.WithCancel(context.Background())
	for i := 0; i < cfg.Workers; i++ {
		s.wg.Add(1)
		go s.worker()
	}
	return s, nil
}

// Workers returns the worker-pool width.
func (s *Scheduler) Workers() int { return s.cfg.Workers }

// maxLanes is the largest lane group a worker assembles; further jobs
// with the same lane key form the next group.
const maxLanes = 16

// MaxLanes returns the largest lane group a worker will assemble: 1
// when vector execution is disabled (no RunGroup hook).
func (s *Scheduler) MaxLanes() int {
	if s.cfg.RunGroup == nil {
		return 1
	}
	return maxLanes
}

// Draining reports whether admission is closed — by SetDraining or by
// Shutdown.
func (s *Scheduler) Draining() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.draining
}

// SetDraining opens or closes admission without touching the worker
// pool: while draining, Submit and SubmitGroup return ErrDraining but
// queued and running jobs keep executing to completion. This is the
// cluster drain hook — a shard taken out of the gateway's hash ring
// finishes its in-flight work and can be undrained later. SetDraining
// (false) after Shutdown began is a no-op: shutdown drain is final.
func (s *Scheduler) SetDraining(d bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.stopping {
		return
	}
	s.draining = d
}

// Shutdown drains the scheduler: admission stops (ErrDraining), queued
// and running jobs are allowed to finish, and the worker pool exits.
// If ctx expires first, every outstanding job context is cancelled —
// simulations abort at their next engine checkpoint — and Shutdown
// waits for the workers before returning ctx.Err(). Safe to call more
// than once.
func (s *Scheduler) Shutdown(ctx context.Context) error {
	s.mu.Lock()
	s.draining = true
	s.stopping = true
	s.cond.Broadcast()
	s.mu.Unlock()
	done := make(chan struct{})
	go func() {
		s.wg.Wait()
		close(done)
	}()
	select {
	case <-done:
		return nil
	case <-ctx.Done():
		s.baseCancel()
		<-done
		return ctx.Err()
	}
}

// RetryAfter estimates how long a rejected class-p client should back
// off: the backlog the new job would sit behind (every queued job in
// classes served at or ahead of p) times the recently observed service
// seconds per job, spread across the pool. Before any job has run, it
// falls back to assuming one second per backlog entry per worker.
// Clamped to [1s, 10m].
func (s *Scheduler) RetryAfter(p Priority) time.Duration {
	s.mu.Lock()
	backlog := 0
	for q := Interactive; q <= p && q < NumPriorities; q++ {
		backlog += s.queuedN[q]
	}
	ewma, samples := s.runEWMA, s.runCount
	s.mu.Unlock()
	workers := float64(s.cfg.Workers)
	var secs float64
	if samples == 0 {
		secs = 1 + float64(backlog)/workers
	} else {
		secs = ewma * float64(backlog+1) / workers
	}
	if secs < 1 {
		secs = 1
	}
	if secs > 600 {
		secs = 600
	}
	return time.Duration(secs * float64(time.Second))
}

// ---------------------------------------------------------------------------
// Worker pool.

// worker drains the queues until Shutdown empties them.
func (s *Scheduler) worker() {
	defer s.wg.Done()
	for {
		group, ok := s.dequeue()
		if !ok {
			return
		}
		s.runGroup(group)
	}
}

// runGroup claims each dequeued job and executes the claimed ones: a
// lone job the scalar way through Run, two or more as one lockstep
// RunGroup call. Jobs settled while queued (cancelled, expired) drop
// out at claim time and never occupy a worker. The group context is
// the scheduler's base context — per-lane cancellation flows through
// each job's own context, which the vector engine polls to demote a
// lane without aborting the group.
func (s *Scheduler) runGroup(group []*Job) {
	claimed := make([]*Job, 0, len(group))
	for _, j := range group {
		if s.claim(j) {
			claimed = append(claimed, j)
		}
	}
	switch len(claimed) {
	case 0:
		return
	case 1:
		s.execute(claimed[0])
		return
	}
	lanes := make([]d2m.GroupLane, len(claimed))
	for i, j := range claimed {
		lanes[i] = d2m.GroupLane{Spec: j.spec.runSpec(), Ctx: j.ctx}
	}
	s.obs.RunningDelta(int64(len(claimed)))
	if lg, ok := s.obs.(interface{ LaneGroup(size int) }); ok {
		lg.LaneGroup(len(claimed))
	}
	start := time.Now()
	outs, gerr := s.cfg.RunGroup(s.baseCtx, lanes)
	dur := time.Since(start)
	s.obs.RunningDelta(-int64(len(claimed)))
	s.obs.ObserveRun(dur.Seconds())
	if gerr == nil && len(outs) != len(claimed) {
		gerr = fmt.Errorf("sched: lane group returned %d outcomes for %d lanes", len(outs), len(claimed))
	}
	// Each lane's accounted service time is its share of the group run:
	// that is what the lane actually cost the pool, and what keeps the
	// RetryAfter EWMA meaning "seconds per job".
	per := dur / time.Duration(len(claimed))
	for i, j := range claimed {
		switch {
		case gerr != nil:
			s.finish(j, d2m.RunOutput{}, gerr, 0)
		case outs[i].Err != nil:
			s.finish(j, d2m.RunOutput{}, outs[i].Err, 0)
		default:
			out := outs[i].Output
			if out.Engine == "" {
				out.Engine = d2m.EngineVector
			}
			s.finish(j, out, nil, per)
		}
	}
}

// dequeue blocks until a job is available or the scheduler is
// draining with empty queues (returning false). The popped job comes
// back with every queued job sharing its lane key (of either class and
// any tenant), up to maxLanes, stolen out of the queues under the same
// lock hold — so two workers can never split one group admission, and
// jobs beyond maxLanes stay queued to form the next group. A stolen
// job stays StateQueued until the group claims it, so Cancel settles
// it exactly as it settles any queued job.
func (s *Scheduler) dequeue() ([]*Job, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for {
		if j := s.pickLocked(); j != nil {
			group := []*Job{j}
			if s.cfg.RunGroup != nil && j.laneOK {
				for p := Interactive; p < NumPriorities && len(group) < maxLanes; p++ {
					group = append(group, s.queues[p].steal(maxLanes-len(group), func(cand *Job) bool {
						return cand.laneOK && cand.laneKey == j.laneKey && cand.ctx.Err() == nil
					})...)
				}
			}
			s.pulseSlotFree()
			return group, true
		}
		if s.stopping {
			return nil, false
		}
		s.cond.Wait()
	}
}

// pickLocked pops the next job: the weighted-priority policy picks
// the class — when both are waiting, InteractiveWeight interactive
// jobs are served per bulk job — then the class's deficit round
// robin picks the tenant, so neither a class nor a tenant can starve
// the others.
func (s *Scheduler) pickLocked() *Job {
	hasI := !s.queues[Interactive].empty()
	hasB := !s.queues[Bulk].empty()
	var p Priority
	switch {
	case hasI && hasB:
		if s.rr >= s.cfg.InteractiveWeight {
			p, s.rr = Bulk, 0
		} else {
			p = Interactive
			s.rr++
		}
	case hasI:
		p = Interactive
	case hasB:
		p = Bulk
	default:
		return nil
	}
	return s.queues[p].pop(s.cfg.TenantShare)
}

// pulseSlotFree wakes one feeder parked on a full queue. Callers hold
// s.mu; the send is non-blocking.
func (s *Scheduler) pulseSlotFree() {
	select {
	case s.slotFree <- struct{}{}:
	default:
	}
}

// claim transitions a dequeued job from queued to
// running, performing the queue-exit accounting. It returns false when
// the job needs no execution: already settled by Cancel, or its
// context died in the queue (the job is then settled here).
func (s *Scheduler) claim(j *Job) bool {
	s.mu.Lock()
	if j.state != StateQueued {
		// Cancel settled it after a worker popped it; all accounting
		// happened there.
		s.mu.Unlock()
		return false
	}
	if err := j.ctx.Err(); err != nil {
		s.dequeuedLocked(j)
		s.mu.Unlock()
		s.obs.QueuedDelta(-1)
		s.obs.ObserveQueueWait(j.spec.Priority, time.Since(j.created).Seconds())
		s.finish(j, d2m.RunOutput{}, err, 0)
		return false
	}
	s.dequeuedLocked(j)
	s.startLocked(j, time.Now())
	s.mu.Unlock()
	s.obs.QueuedDelta(-1)
	s.obs.ObserveQueueWait(j.spec.Priority, j.started.Sub(j.created).Seconds())
	return true
}

// execute runs one claimed job through the scalar Run hook and settles
// it.
func (s *Scheduler) execute(j *Job) {
	s.obs.RunningDelta(1)
	start := time.Now()
	out, err := s.cfg.Run(j.ctx, j.spec.runSpec())
	dur := time.Since(start)
	s.obs.RunningDelta(-1)
	s.obs.ObserveRun(dur.Seconds())
	if err == nil && out.Engine == "" {
		out.Engine = d2m.EngineScalar
	}
	s.finish(j, out, err, dur)
}

// dequeuedLocked maintains the per-class and per-tenant queued-job
// counts as a job leaves the queue for a worker.
func (s *Scheduler) dequeuedLocked(j *Job) {
	p := j.spec.Priority
	s.queuedN[p]--
	if n := s.queuedT[p][j.spec.Tenant] - 1; n > 0 {
		s.queuedT[p][j.spec.Tenant] = n
	} else {
		delete(s.queuedT[p], j.spec.Tenant)
	}
}

// finish settles a job exactly once, publishes a successful result to
// the sink, and wakes every waiter. The sink is fed before done
// closes, so a restart straight after a response never loses the
// result it served.
func (s *Scheduler) finish(j *Job, out d2m.RunOutput, err error, dur time.Duration) {
	st := StateDone
	switch {
	case err == nil:
	case errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded):
		st = StateCanceled
	default:
		st = StateFailed
	}
	s.mu.Lock()
	if st == StateDone {
		j.result, j.engine = out.Result, out.Engine
	}
	if dur > 0 {
		s.noteRunLocked(dur)
	}
	parents := s.settleLocked(j, st, err)
	s.mu.Unlock()
	if st == StateDone {
		s.sink.Settle(j.key, j.result)
	}
	s.wake(j)
	s.wake(parents...)
}

// settleLocked records a job's terminal state, releases its in-flight
// slot so the next identical submission starts fresh, and settles each
// replicated job it was the last unsettled seed of. It returns those
// replicated jobs, for wake. Callers hold s.mu.
func (s *Scheduler) settleLocked(j *Job, st State, err error) []*Job {
	// Guarded: an abandoned job's key slot may already belong to a newer
	// job (admission skips coalescing onto cancelled contexts).
	if s.inflight[j.key] == j {
		delete(s.inflight, j.key)
	}
	j.state, j.err, j.finished = st, err, time.Now()
	s.retireLocked(j)
	var parents []*Job
	for _, p := range j.parents {
		if !p.state.settled() && !slices.ContainsFunc(p.seeds, func(seed *Job) bool { return !seed.state.settled() }) {
			st, err := p.fold()
			s.settleLocked(p, st, err) // a replicated job is no job's seed
			parents = append(parents, p)
		}
	}
	return parents
}

// fold projects a replicated job's settled seeds onto its outcome:
// done with their aggregate and its mean Result, or else the
// lowest-index seed error, a seed's own failure winning over a
// cancellation.
func (p *Job) fold() (State, error) {
	var canceled error
	results := make(map[d2m.CellKey]d2m.Result, len(p.seeds))
	for i, seed := range p.seeds {
		switch seed.state {
		case StateFailed:
			return StateFailed, seed.err
		case StateCanceled:
			canceled = cmp.Or(canceled, seed.err)
		default:
			results[p.plan.Cells[i].Key()] = seed.result
			if p.engine == "" || seed.engine == d2m.EngineVector {
				p.engine = seed.engine // sink stand-ins report none
			}
		}
	}
	if canceled != nil {
		return StateCanceled, canceled
	}
	agg, err := p.plan.Project(results)
	if err != nil {
		return StateFailed, err
	}
	p.result, p.replicated = agg.MeanResult(p.seeds[0].result), &agg
	return StateDone, nil
}

// startLocked marks a claimed job running, and with it each replicated
// job still waiting for its first seed. Callers hold s.mu.
func (s *Scheduler) startLocked(j *Job, now time.Time) {
	if j.state != StateQueued {
		return
	}
	j.state, j.started = StateRunning, now
	close(j.runCh)
	for _, p := range j.parents {
		s.startLocked(p, now)
	}
}

// wake announces settled jobs and releases their waiters.
func (s *Scheduler) wake(settled ...*Job) {
	for _, j := range settled {
		s.obs.JobSettled(j.state)
		j.cancel() // release the deadline timer
		close(j.done)
	}
}

// noteRunLocked folds one observed service time into the EWMA behind
// RetryAfter. Callers hold s.mu.
func (s *Scheduler) noteRunLocked(dur time.Duration) {
	sec := dur.Seconds()
	if s.runCount == 0 {
		s.runEWMA = sec
	} else {
		const alpha = 0.2
		s.runEWMA = alpha*sec + (1-alpha)*s.runEWMA
	}
	s.runCount++
}

// retireLocked bounds the settled-job history: beyond cfg.MaxJobs
// settled jobs, the oldest records vanish from the ledger. Callers
// hold s.mu.
func (s *Scheduler) retireLocked(j *Job) {
	s.retired = append(s.retired, j.id)
	for len(s.retired) > s.cfg.MaxJobs {
		delete(s.jobs, s.retired[0])
		s.retired = s.retired[1:]
	}
}

// newJobLocked builds a fresh queued job for a submission. Callers
// hold s.mu and are responsible for ledger/queue insertion.
func (s *Scheduler) newJobLocked(sub Submission, key string) *Job {
	j := &Job{
		s:        s,
		id:       fmt.Sprintf("j%08d", s.nextID.Add(1)),
		key:      key,
		spec:     sub,
		done:     make(chan struct{}),
		runCh:    make(chan struct{}),
		state:    StateQueued,
		created:  time.Now(),
		waiters:  1,
		detached: sub.Detached,
	}
	if sub.Replicates < 2 && sub.Engine != d2m.EngineScalar {
		j.laneKey, j.laneOK = sub.runSpec().Key().Warm(), true
	}
	timeout := sub.Timeout
	if timeout == 0 {
		timeout = s.cfg.DefaultTimeout
	}
	if timeout > 0 {
		j.ctx, j.cancel = context.WithTimeout(s.baseCtx, timeout)
	} else {
		j.ctx, j.cancel = context.WithCancel(s.baseCtx)
	}
	return j
}

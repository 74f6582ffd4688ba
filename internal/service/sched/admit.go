package sched

import (
	"context"
	"errors"
	"slices"
	"sort"
	"time"

	"d2m"
)

// Submit runs one submission through the admission pipeline: validate,
// result-cache lookup, in-flight coalescing, enqueue. On ErrQueueFull
// nothing was admitted; callers that would rather wait for a slot than
// surface the rejection use SubmitWait.
func (s *Scheduler) Submit(sub Submission) (Admission, error) {
	adms, err := s.SubmitGroup([]Submission{sub})
	if err != nil {
		if errors.Is(err, ErrQueueFull) {
			return Admission{}, ErrQueueFull
		}
		return Admission{}, err
	}
	return adms[0], nil
}

// SubmitWait is Submit for feeders that should park rather than fail
// when the class queue is full; see SubmitGroupWait.
func (s *Scheduler) SubmitWait(ctx context.Context, sub Submission) (Admission, error) {
	adms, err := s.SubmitGroupWait(ctx, []Submission{sub})
	if err != nil {
		return Admission{}, err
	}
	return adms[0], nil
}

// SubmitGroupWait is SubmitGroup for feeders that should park rather
// than fail when a class queue is full: on ErrQueueFull it waits for a
// slot pulse (or a short poll tick, or ctx cancellation) and retries
// the whole group. Sweep feeders submit same-warm-identity cell chunks
// through here, so an overloaded queue applies backpressure to the
// sweep instead of dropping cells, and each chunk lands in the queue
// at once for one worker to take as a lane group.
func (s *Scheduler) SubmitGroupWait(ctx context.Context, subs []Submission) ([]Admission, error) {
	for {
		adms, err := s.SubmitGroup(subs)
		if err == nil {
			return adms, nil
		}
		var full *QueueFullError
		if !errors.As(err, &full) || full.oversized {
			return nil, err
		}
		t := time.NewTimer(10 * time.Millisecond)
		select {
		case <-s.slotFree:
			t.Stop()
		case <-t.C:
		case <-ctx.Done():
			t.Stop()
			return nil, ctx.Err()
		}
	}
}

// SubmitGroup admits a set of submissions atomically: either every
// submission is settled from the cache, coalesced, or enqueued, or —
// if any class queue cannot hold the new jobs — none is, and the
// returned *QueueFullError counts the jobs that were rolled back.
// Batches flow through here so a 429 never leaves a half-admitted
// batch behind. The group is enqueued under one lock hold, so a worker
// that pops one of its jobs finds every same-lane-key sibling queued
// and takes them into the same lane group.
//
// A replicated submission is expanded here, and only here: unless an
// identical one is in flight, its seed runs (d2m.ReplicatePlan) are
// admitted as ordinary submissions, taking one queue slot each, under
// a parent job that is never queued. If the sink holds every seed, it
// is admitted Cached with their aggregate.
func (s *Scheduler) SubmitGroup(subs []Submission) ([]Admission, error) {
	if len(subs) == 0 {
		return nil, nil
	}
	for i := range subs {
		if err := subs[i].validate(); err != nil {
			return nil, err
		}
	}

	adms := make([]Admission, len(subs))
	keys := make([]string, len(subs))
	reps := make([]*Job, len(subs)) // replicated submissions' seeds, looked up
	pending := make([]int, 0, len(subs))
	for i, sub := range subs {
		keys[i] = sub.key()
		if sub.Replicates >= 2 {
			reps[i] = s.lookupSeeds(sub)
			if !slices.Contains(reps[i].seeds, nil) {
				s.obs.CacheHit()
				reps[i].fold() // every seed is done
				adms[i] = Admission{Cached: true, Result: reps[i].result, Replicated: reps[i].replicated}
				continue
			}
		} else if res, ok := s.sink.Lookup(keys[i]); ok {
			s.obs.CacheHit()
			adms[i] = Admission{Cached: true, Result: res}
			continue
		}
		pending = append(pending, i)
	}
	if len(pending) == 0 {
		return adms, nil
	}

	s.mu.Lock()
	if s.draining {
		s.mu.Unlock()
		return nil, ErrDraining
	}

	// First pass: coalesce or create, without touching the ledger or
	// queues, so a capacity rejection can roll everything back.
	type coalesce struct {
		j            *Job
		prevDetached bool
		promote      bool // interactive arrival on a queued bulk job
	}
	var (
		coalesced []coalesce
		created   []*Job
		parents   []*Job // new replicated jobs: never queued
		need      [NumPriorities]map[string]int
		byKey     = make(map[string]*Job)
	)
	// admit coalesces a submission onto the job in flight (or created
	// earlier in this group) with its key, or creates that job.
	admit := func(sub Submission, key string) Admission {
		target := s.inflight[key]
		if target != nil && target.ctx.Err() != nil {
			// Abandoned but not yet settled: don't coalesce onto a job
			// that is about to settle canceled.
			target = nil
		}
		if target == nil {
			target = byKey[key]
		}
		if target != nil {
			coalesced = append(coalesced, coalesce{
				j:            target,
				prevDetached: target.detached,
				promote: sub.Priority == Interactive &&
					target.spec.Priority == Bulk,
			})
			target.waiters++
			if sub.Detached {
				target.detached = true
			}
			return Admission{Job: target}
		}
		j := s.newJobLocked(sub, key)
		byKey[key] = j
		if sub.Replicates >= 2 {
			parents = append(parents, j)
			return Admission{Job: j, New: true}
		}
		created = append(created, j)
		if need[sub.Priority] == nil {
			need[sub.Priority] = make(map[string]int)
		}
		need[sub.Priority][sub.Tenant]++
		return Admission{Job: j, New: true}
	}
	for _, i := range pending {
		adms[i] = admit(subs[i], keys[i])
		if p := adms[i].Job; reps[i] != nil && adms[i].New {
			p.plan, p.seeds = reps[i].plan, reps[i].seeds
			for k, seed := range p.seeds {
				if seed == nil {
					sub := subs[i].seed(p.plan.Cells[k])
					p.seeds[k] = admit(sub, sub.key()).Job
				}
			}
		}
	}

	// QueueDepth bounds each (class, tenant) pair separately: a tenant
	// whose allotment is full is rejected without consuming any other
	// tenant's admission capacity.
	for p := Interactive; p < NumPriorities; p++ {
		for tenant, n := range need[p] {
			if s.queuedT[p][tenant]+n > s.cfg.QueueDepth {
				for _, c := range coalesced {
					c.j.waiters--
					c.j.detached = c.prevDetached
				}
				for _, j := range append(created, parents...) {
					j.cancel()
				}
				s.mu.Unlock()
				return nil, &QueueFullError{Jobs: len(created), oversized: n > s.cfg.QueueDepth}
			}
		}
	}

	// Commit: register and enqueue the new jobs, link replicated jobs
	// to their seeds, and promote queued bulk jobs an interactive
	// submission just coalesced onto.
	for _, j := range created {
		s.jobs[j.id] = j
		s.inflight[j.key] = j
		p := j.spec.Priority
		s.queuedN[p]++
		s.queuedT[p][j.spec.Tenant]++
		s.queues[p].push(j)
		s.obs.JobAccepted()
		s.obs.QueuedDelta(1)
	}
	for _, p := range parents {
		s.jobs[p.id] = p
		s.inflight[p.key] = p
		for _, seed := range p.seeds {
			if !seed.state.settled() {
				seed.parents = append(seed.parents, p)
			}
			if seed.state == StateRunning {
				s.startLocked(p, seed.started)
			}
		}
		s.obs.JobAccepted()
	}
	for _, c := range coalesced {
		s.obs.JobCoalesced()
		if c.promote {
			s.promoteLocked(c.j)
		}
	}
	for range pending {
		s.obs.CacheMiss()
	}
	s.cond.Broadcast()
	s.mu.Unlock()
	return adms, nil
}

// promoteLocked lifts a queued bulk job into the interactive class:
// an interactive request that coalesced onto bulk work should not
// inherit bulk queueing delay. Best-effort — a job that is running,
// already popped, or would overflow the interactive queue stays where
// it is; a replicated job's seeds are lifted one by one. Callers hold
// s.mu.
func (s *Scheduler) promoteLocked(j *Job) {
	for _, seed := range j.seeds {
		s.promoteLocked(seed)
	}
	if j.state != StateQueued || j.spec.Priority != Bulk {
		return
	}
	tenant := j.spec.Tenant
	if s.queuedT[Interactive][tenant]+1 > s.cfg.QueueDepth || !s.queues[Bulk].remove(j) {
		return
	}
	s.dequeuedLocked(j)
	j.spec.Priority = Interactive
	s.queuedN[Interactive]++
	s.queuedT[Interactive][tenant]++
	s.queues[Interactive].push(j)
	s.pulseSlotFree()
}

// Cancel settles a queued job immediately or signals a running one to
// abort at its next engine checkpoint. A replicated job settles at
// once and releases its seeds. It returns ErrUnknownJob for
// ids absent from the ledger and ErrSettled (with the job, so callers
// can report its state) for jobs that already finished.
func (s *Scheduler) Cancel(id string) (*Job, error) {
	s.mu.Lock()
	j, ok := s.jobs[id]
	if !ok {
		s.mu.Unlock()
		return nil, ErrUnknownJob
	}
	switch {
	case j.state.settled():
		s.mu.Unlock()
		return j, ErrSettled
	case j.seeds != nil:
		s.settleLocked(j, StateCanceled, context.Canceled)
		s.mu.Unlock()
		s.drop(j)
		return j, nil
	case j.state == StateRunning:
		s.mu.Unlock()
		j.cancel()
		return j, nil
	}

	// Queued: take it out of the queue and settle it here, so it never
	// occupies a worker. A job a worker already popped needs no queue
	// surgery (claim will skip it).
	s.queues[j.spec.Priority].remove(j)
	s.dequeuedLocked(j)
	parents := s.settleLocked(j, StateCanceled, context.Canceled)
	s.pulseSlotFree()
	s.obs.QueuedDelta(-1)
	s.mu.Unlock()
	s.wake(j)
	s.wake(parents...)
	return j, nil
}

// Release drops one waiter's interest in a job (client disconnect or
// response written). When the last waiter of a non-detached job leaves
// before it settles, the job is abandoned: its context is cancelled so
// it aborts (or, if still queued, settles canceled without occupying a
// worker). An abandoned replicated job settles at once and releases
// its seeds.
func (s *Scheduler) Release(j *Job) {
	s.mu.Lock()
	j.waiters--
	abandon := j.waiters <= 0 && !j.detached && !j.state.settled()
	if abandon && j.seeds != nil {
		s.settleLocked(j, StateCanceled, context.Canceled)
	}
	s.mu.Unlock()
	switch {
	case abandon && j.seeds != nil:
		s.drop(j)
	case abandon:
		j.cancel()
	}
}

// drop wakes a replicated job settled canceled and releases its hold on
// each seed, abandoning those no one else waits for: its seeds never
// carry its detachment, so its hold alone keeps them alive.
func (s *Scheduler) drop(p *Job) {
	s.wake(p)
	for _, seed := range p.seeds {
		s.Release(seed)
	}
}

// lookupSeeds expands a replicated submission into an unregistered job
// holding its plan and seeds: the sink's answers as settled stand-ins,
// nil for the seeds still to admit.
func (s *Scheduler) lookupSeeds(sub Submission) *Job {
	p := &Job{plan: d2m.ReplicatePlan(sub.Kind, sub.Benchmark, sub.Options, sub.Replicates)}
	p.seeds = make([]*Job, len(p.plan.Cells))
	for i, c := range p.plan.Cells {
		if res, ok := s.sink.Lookup(sub.seed(c).key()); ok {
			p.seeds[i] = &Job{state: StateDone, result: res}
		}
	}
	return p
}

// Lookup returns the ledger's job for id.
func (s *Scheduler) Lookup(id string) (*Job, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	j, ok := s.jobs[id]
	return j, ok
}

// Jobs snapshots every job still in the ledger, ordered by id.
func (s *Scheduler) Jobs() []Info {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]Info, 0, len(s.jobs))
	for _, j := range s.jobs {
		out = append(out, s.infoLocked(j))
	}
	sort.Slice(out, func(a, b int) bool { return out[a].ID < out[b].ID })
	return out
}

// infoLocked snapshots one job. Callers hold s.mu.
func (s *Scheduler) infoLocked(j *Job) Info {
	in := Info{
		ID:        j.id,
		State:     j.state,
		Priority:  j.spec.Priority,
		Kind:      j.spec.Kind,
		Benchmark: j.spec.Benchmark,
		Engine:    j.engine,
		Created:   j.created,
		Started:   j.started,
		Finished:  j.finished,
		Err:       j.err,
	}
	if q := j; j.state == StateQueued {
		for _, seed := range j.seeds {
			if seed.state == StateQueued {
				q = seed // a replicated job reports its first queued seed's
				break
			}
		}
		in.QueuePos = s.queues[q.spec.Priority].position(q)
	}
	if j.state == StateDone {
		r := j.result
		in.Result = &r
		in.Replicated = j.replicated
	}
	return in
}

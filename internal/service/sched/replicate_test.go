package sched

import (
	"context"
	"errors"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"d2m"
)

// repSub is a replicated submission over seeds seed+1 .. seed+n.
func repSub(seed uint64, n int) Submission {
	s := sub(seed, Interactive)
	s.Replicates = n
	return s
}

// waitDone fails the test unless j settles within a few seconds.
func waitDone(t *testing.T, j *Job) Info {
	t.Helper()
	select {
	case <-j.Done():
	case <-time.After(5 * time.Second):
		t.Fatalf("job %s never settled", j.ID())
	}
	return j.Info()
}

// TestReplicatedJobRunsSeedsAsJobs: a replicated submission is a parent
// job over n ordinary seed jobs. With one worker the seeds run one at a
// time, the ledger holds n+1 jobs, and the parent settles with the
// aggregate d2m.ReplicatePlan projects from the seed results.
func TestReplicatedJobRunsSeedsAsJobs(t *testing.T) {
	var running, peak, calls atomic.Int64
	s := newTestSched(t, Config{Workers: 1}, func(ctx context.Context, spec d2m.RunSpec) (d2m.RunOutput, error) {
		n := running.Add(1)
		for p := peak.Load(); n > p && !peak.CompareAndSwap(p, n); p = peak.Load() {
		}
		calls.Add(1)
		time.Sleep(time.Millisecond)
		running.Add(-1)
		return d2m.RunOutput{Result: d2m.Result{Benchmark: spec.Benchmark, Cycles: spec.Options.Seed}}, nil
	})
	adm, err := s.Submit(repSub(10, 4))
	if err != nil {
		t.Fatal(err)
	}
	if !adm.New || adm.Cached {
		t.Fatalf("admission = %+v, want a new job", adm)
	}
	in := waitDone(t, adm.Job)
	if in.State != StateDone || in.Replicated == nil || in.Result == nil {
		t.Fatalf("parent = %+v, want done with an aggregate", in)
	}
	if calls.Load() != 4 || peak.Load() != 1 {
		t.Errorf("runs = %d at peak concurrency %d, want 4 at 1", calls.Load(), peak.Load())
	}
	if in.Engine != d2m.EngineScalar {
		t.Errorf("parent engine = %q, want scalar", in.Engine)
	}
	if jobs := s.Jobs(); len(jobs) != 5 {
		t.Errorf("ledger holds %d jobs, want 5 (parent + 4 seeds)", len(jobs))
	}

	plan := d2m.ReplicatePlan(d2m.Base2L, "tpc-c", d2m.Options{Seed: 10}, 4)
	results := make(map[d2m.CellKey]d2m.Result)
	for _, c := range plan.Cells {
		results[c.Key()] = d2m.Result{Benchmark: c.Benchmark, Cycles: c.Options.Seed}
	}
	want, err := plan.Project(results)
	if err != nil {
		t.Fatal(err)
	}
	if *in.Replicated != want || want.CyclesMean != 12.5 {
		t.Errorf("aggregate = %+v, want %+v (mean of seeds 11..14)", *in.Replicated, want)
	}
	if in.Result.Cycles != 12 || in.Result.Benchmark != "tpc-c" {
		t.Errorf("mean result = %+v, want cycles 12 labelled tpc-c", in.Result)
	}
}

// TestReplicatedJobReusesSeeds: seeds are ordinary cache entries. Eight
// replicates after four run only the four new seeds, a single run at a
// seed is a hit, and a replicated submission whose seeds all hit is
// admitted cached with its aggregate.
func TestReplicatedJobReusesSeeds(t *testing.T) {
	var calls atomic.Int64
	s := newTestSched(t, Config{Workers: 2, Results: &memSink{}}, func(ctx context.Context, spec d2m.RunSpec) (d2m.RunOutput, error) {
		calls.Add(1)
		return d2m.RunOutput{Result: d2m.Result{Cycles: spec.Options.Seed}}, nil
	})
	for _, n := range []int{4, 8} {
		adm, err := s.Submit(repSub(0, n))
		if err != nil {
			t.Fatal(err)
		}
		if in := waitDone(t, adm.Job); in.State != StateDone || in.Replicated.N != n {
			t.Fatalf("replicates %d: %+v", n, in)
		}
	}
	if got := calls.Load(); got != 8 {
		t.Errorf("runs = %d after replicates 4 then 8, want 8", got)
	}
	single, err := s.Submit(sub(3, Interactive))
	if err != nil {
		t.Fatal(err)
	}
	if !single.Cached || single.Result.Cycles != 3 {
		t.Errorf("single run at seed 3 = %+v, want a cache hit", single)
	}
	again, err := s.Submit(repSub(0, 4))
	if err != nil {
		t.Fatal(err)
	}
	if !again.Cached || again.Job != nil || again.Replicated == nil || again.Replicated.CyclesMean != 2.5 || again.Result.Cycles != 2 {
		t.Errorf("repeat = %+v, want cached with mean 2.5", again)
	}
	if got := calls.Load(); got != 8 {
		t.Errorf("runs = %d after cached repeats, want 8", got)
	}
}

// TestReplicatedJobCoalesces: identical in-flight replicated
// submissions share one parent; the parent starts with its first seed.
func TestReplicatedJobCoalesces(t *testing.T) {
	started, release := make(chan struct{}), make(chan struct{})
	s := newTestSched(t, Config{Workers: 1}, blockerRun(started, release))
	if _, err := s.Submit(blocker()); err != nil {
		t.Fatal(err)
	}
	<-started
	a, err := s.Submit(repSub(0, 3))
	if err != nil {
		t.Fatal(err)
	}
	b, err := s.Submit(repSub(0, 3))
	if err != nil {
		t.Fatal(err)
	}
	if b.New || b.Job != a.Job {
		t.Fatalf("second admission = %+v, want coalesced onto %s", b, a.Job.ID())
	}
	if in := a.Job.Info(); in.State != StateQueued || in.QueuePos != 1 {
		t.Errorf("parent behind the blocker = %s at %d, want queued at 1", in.State, in.QueuePos)
	}
	select {
	case <-a.Job.Started():
		t.Fatal("parent started before any seed")
	default:
	}
	close(release)
	select {
	case <-a.Job.Started():
	case <-time.After(5 * time.Second):
		t.Fatal("parent never started")
	}
	if in := waitDone(t, a.Job); in.State != StateDone || in.Replicated.N != 3 {
		t.Errorf("parent = %+v", in)
	}
}

// TestReplicatedJobPromotesSeeds: an interactive replicated request
// that coalesces onto a bulk one (a sweep cell) lifts its queued seeds
// into the interactive class.
func TestReplicatedJobPromotesSeeds(t *testing.T) {
	started, release := make(chan struct{}), make(chan struct{})
	defer close(release)
	s := newTestSched(t, Config{Workers: 1}, blockerRun(started, release))
	if _, err := s.Submit(blocker()); err != nil {
		t.Fatal(err)
	}
	<-started
	bulk := repSub(0, 3)
	bulk.Priority = Bulk
	if _, err := s.Submit(bulk); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Submit(repSub(0, 3)); err != nil {
		t.Fatal(err)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.queuedN[Interactive] != 3 || s.queuedN[Bulk] != 0 {
		t.Errorf("queued interactive/bulk = %d/%d, want 3/0", s.queuedN[Interactive], s.queuedN[Bulk])
	}
}

// TestReplicatedJobCancel: cancelling a parent — detached, like an
// async request — settles it at once and abandons its seeds no one
// else waits for, which settle canceled without running; a seed shared
// with a single run keeps running for it.
func TestReplicatedJobCancel(t *testing.T) {
	started, release := make(chan struct{}), make(chan struct{})
	var ran sync.Map
	block := blockerRun(started, release)
	s := newTestSched(t, Config{Workers: 1}, func(ctx context.Context, spec d2m.RunSpec) (d2m.RunOutput, error) {
		ran.Store(spec.Options.Seed, true)
		return block(ctx, spec)
	})
	if _, err := s.Submit(blocker()); err != nil {
		t.Fatal(err)
	}
	<-started
	detached := repSub(0, 3)
	detached.Detached = true
	rep, err := s.Submit(detached)
	if err != nil {
		t.Fatal(err)
	}
	shared, err := s.Submit(sub(2, Interactive)) // seed 2 of the three
	if err != nil {
		t.Fatal(err)
	}
	if shared.New {
		t.Fatal("single run at a queued seed did not coalesce")
	}
	if _, err := s.Cancel(rep.Job.ID()); err != nil {
		t.Fatal(err)
	}
	if in := rep.Job.Info(); in.State != StateCanceled {
		t.Fatalf("parent = %s right after Cancel, want canceled", in.State)
	}
	close(release)
	if in := waitDone(t, shared.Job); in.State != StateDone {
		t.Errorf("shared seed = %s, want done", in.State)
	}
	for deadline := time.Now().Add(5 * time.Second); ; time.Sleep(time.Millisecond) {
		canceled := 0
		for _, in := range s.Jobs() {
			if in.State == StateCanceled {
				canceled++
			}
		}
		if canceled == 3 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("%d canceled jobs, want 3 (parent, seeds 1 and 3)", canceled)
		}
	}
	for _, seed := range []uint64{1, 3} {
		if _, ok := ran.Load(seed); ok {
			t.Errorf("abandoned seed %d ran", seed)
		}
	}
}

// TestReplicatedJobReleaseAbandonsSeeds: the last waiter leaving a
// non-detached parent releases its hold on each seed.
func TestReplicatedJobReleaseAbandonsSeeds(t *testing.T) {
	started, release := make(chan struct{}), make(chan struct{})
	defer close(release)
	s := newTestSched(t, Config{Workers: 1}, blockerRun(started, release))
	if _, err := s.Submit(blocker()); err != nil {
		t.Fatal(err)
	}
	<-started
	rep, err := s.Submit(repSub(0, 2))
	if err != nil {
		t.Fatal(err)
	}
	s.Release(rep.Job)
	if in := waitDone(t, rep.Job); in.State != StateCanceled {
		t.Fatalf("abandoned parent = %s, want canceled", in.State)
	}
	// The seeds' contexts are cancelled, so a fresh identical submission
	// creates new jobs instead of coalescing onto the abandoned ones.
	again, err := s.Submit(repSub(0, 2))
	if err != nil {
		t.Fatal(err)
	}
	if !again.New || again.Job == rep.Job {
		t.Errorf("resubmission = %+v, want a new parent", again)
	}
}

// TestReplicatedJobFailsWithSeedError: the parent fails with its
// lowest-index seed's own error, which wins over a lower seed's
// cancellation.
func TestReplicatedJobFailsWithSeedError(t *testing.T) {
	s := newTestSched(t, Config{Workers: 2}, func(ctx context.Context, spec d2m.RunSpec) (d2m.RunOutput, error) {
		switch spec.Options.Seed {
		case 1:
			return d2m.RunOutput{}, context.Canceled
		case 2:
			return d2m.RunOutput{}, errors.New("seed 2 broke")
		case 3:
			return d2m.RunOutput{}, errors.New("seed 3 broke")
		}
		return d2m.RunOutput{Result: d2m.Result{Cycles: spec.Options.Seed}}, nil
	})
	adm, err := s.Submit(repSub(0, 4))
	if err != nil {
		t.Fatal(err)
	}
	in := waitDone(t, adm.Job)
	if in.State != StateFailed || in.Err == nil || in.Err.Error() != "seed 2 broke" {
		t.Fatalf("parent = %s (%v), want failed with seed 2's error", in.State, in.Err)
	}
	if in.Replicated != nil || in.Result != nil {
		t.Errorf("failed parent carries a result: %+v", in)
	}
}

// TestReplicatedJobTakesQueueSlots: n seeds take n queue slots, all or
// nothing, and a group no empty queue could hold fails at once instead
// of parking its feeder for ever.
func TestReplicatedJobTakesQueueSlots(t *testing.T) {
	started, release := make(chan struct{}), make(chan struct{})
	defer close(release)
	s := newTestSched(t, Config{Workers: 1, QueueDepth: 4}, blockerRun(started, release))
	if _, err := s.Submit(blocker()); err != nil {
		t.Fatal(err)
	}
	<-started
	if _, err := s.Submit(repSub(0, 3)); err != nil {
		t.Fatal(err)
	}
	var full *QueueFullError
	if _, err := s.SubmitGroup([]Submission{repSub(100, 2)}); !errors.As(err, &full) || full.Jobs != 2 {
		t.Fatalf("two more seeds in one free slot: err = %v, want a queue-full rollback of 2 jobs", err)
	}
	if _, err := s.Submit(sub(50, Interactive)); err != nil {
		t.Fatalf("the free slot was lost to the rollback: %v", err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if _, err := s.SubmitWait(ctx, repSub(200, 5)); !errors.Is(err, ErrQueueFull) {
		t.Errorf("five seeds for a depth-4 queue: err = %v, want ErrQueueFull without waiting", err)
	}
}

// TestReplicatedSeedsShareDRR: a replicated job's seeds queue under
// deficit round robin like any tenant's jobs, so they interleave with
// another tenant's runs instead of going first as one unit.
func TestReplicatedSeedsShareDRR(t *testing.T) {
	started, release := make(chan struct{}), make(chan struct{})
	var mu sync.Mutex
	var order []string
	run := blockerRun(started, release)
	s := newTestSched(t, Config{Workers: 1}, func(ctx context.Context, spec d2m.RunSpec) (d2m.RunOutput, error) {
		if spec.Benchmark != "blocker" {
			mu.Lock()
			order = append(order, spec.Benchmark)
			mu.Unlock()
		}
		return run(ctx, spec)
	})
	if _, err := s.Submit(blocker()); err != nil {
		t.Fatal(err)
	}
	<-started
	rep := tsub(0, Interactive, "a")
	rep.Replicates = 4
	adm, err := s.Submit(rep)
	if err != nil {
		t.Fatal(err)
	}
	var others []*Job
	for i := uint64(1); i <= 4; i++ {
		o := tsub(i, Interactive, "b")
		o.Benchmark = "canneal"
		a, err := s.Submit(o)
		if err != nil {
			t.Fatal(err)
		}
		others = append(others, a.Job)
	}
	close(release)
	waitDone(t, adm.Job)
	for _, j := range others {
		waitDone(t, j)
	}
	mu.Lock()
	defer mu.Unlock()
	want := []string{"tpc-c", "canneal", "tpc-c", "canneal", "tpc-c", "canneal", "tpc-c", "canneal"}
	if !slices.Equal(order, want) {
		t.Errorf("run order = %v, want the tenants interleaved %v", order, want)
	}
}

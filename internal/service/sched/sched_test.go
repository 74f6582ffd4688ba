package sched

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"d2m"
)

// newTestSched builds a scheduler around run and tears it down with the
// test. A nil run means "return a result keyed to the seed instantly".
func newTestSched(t *testing.T, cfg Config, run func(ctx context.Context, spec d2m.RunSpec) (d2m.RunOutput, error)) *Scheduler {
	t.Helper()
	if run == nil {
		run = func(ctx context.Context, spec d2m.RunSpec) (d2m.RunOutput, error) {
			return d2m.RunOutput{Result: d2m.Result{Cycles: spec.Options.Seed}}, nil
		}
	}
	cfg.Run = run
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		s.Shutdown(ctx)
	})
	return s
}

// sub builds a distinct submission: seed separates cache keys.
func sub(seed uint64, p Priority) Submission {
	return Submission{
		Kind: d2m.Base2L, Benchmark: "tpc-c",
		Options:  d2m.Options{Seed: seed},
		Priority: p,
	}
}

func TestSubmitRunsJob(t *testing.T) {
	s := newTestSched(t, Config{Workers: 2}, nil)
	adm, err := s.Submit(sub(7, Interactive))
	if err != nil {
		t.Fatal(err)
	}
	if adm.Cached || !adm.New || adm.Job == nil {
		t.Fatalf("admission = %+v, want fresh job", adm)
	}
	<-adm.Job.Done()
	in := adm.Job.Info()
	if in.State != StateDone || in.Result == nil || in.Result.Cycles != 7 {
		t.Fatalf("info = %+v, want done with result 7", in)
	}
	if in.Priority != Interactive || in.QueuePos != 0 {
		t.Errorf("priority/pos = %v/%d, want interactive/0", in.Priority, in.QueuePos)
	}
}

func TestSubmitValidates(t *testing.T) {
	s := newTestSched(t, Config{Workers: 1}, nil)
	for _, bad := range []Submission{
		{Kind: d2m.Base2L}, // no benchmark
		{Kind: d2m.Base2L, Benchmark: "tpc-c", Priority: Priority(9)},      // unknown class
		{Kind: d2m.Base2L, Benchmark: "tpc-c", Timeout: -time.Millisecond}, // would escape the default
	} {
		if _, err := s.Submit(bad); err == nil {
			t.Errorf("Submit(%+v) accepted, want validation error", bad)
		}
	}
}

// memSink is an in-memory ResultSink.
type memSink struct {
	mu sync.Mutex
	m  map[string]d2m.Result
}

func (k *memSink) Lookup(key string) (d2m.Result, bool) {
	k.mu.Lock()
	defer k.mu.Unlock()
	res, ok := k.m[key]
	return res, ok
}

func (k *memSink) Settle(key string, res d2m.Result) {
	k.mu.Lock()
	defer k.mu.Unlock()
	if k.m == nil {
		k.m = make(map[string]d2m.Result)
	}
	k.m[key] = res
}

func TestResultSinkSettlesAndServes(t *testing.T) {
	sink := &memSink{}
	s := newTestSched(t, Config{Workers: 1, Results: sink}, nil)
	first, err := s.Submit(sub(3, Interactive))
	if err != nil {
		t.Fatal(err)
	}
	<-first.Job.Done()
	// The settled result must now short-circuit admission.
	second, err := s.Submit(sub(3, Interactive))
	if err != nil {
		t.Fatal(err)
	}
	if !second.Cached || second.Job != nil || second.Result.Cycles != 3 {
		t.Fatalf("second admission = %+v, want cached result 3", second)
	}
}

func TestCoalescing(t *testing.T) {
	gate := make(chan struct{})
	var runs atomic.Int64
	s := newTestSched(t, Config{Workers: 2}, func(ctx context.Context, spec d2m.RunSpec) (d2m.RunOutput, error) {
		runs.Add(1)
		<-gate
		return d2m.RunOutput{Result: d2m.Result{Cycles: 1}}, nil
	})
	a, err := s.Submit(sub(1, Interactive))
	if err != nil {
		t.Fatal(err)
	}
	b, err := s.Submit(sub(1, Interactive))
	if err != nil {
		t.Fatal(err)
	}
	if b.New || b.Job != a.Job {
		t.Fatalf("identical submission not coalesced: %+v vs %+v", a, b)
	}
	close(gate)
	<-a.Job.Done()
	if n := runs.Load(); n != 1 {
		t.Errorf("runs = %d, want 1 (coalesced)", n)
	}
}

func TestQueueFullAllOrNothing(t *testing.T) {
	gate := make(chan struct{})
	defer close(gate)
	started := make(chan struct{}, 8)
	s := newTestSched(t, Config{Workers: 1, QueueDepth: 2}, func(ctx context.Context, spec d2m.RunSpec) (d2m.RunOutput, error) {
		started <- struct{}{}
		<-gate
		return d2m.RunOutput{}, nil
	})
	// Occupy the worker, then fill the interactive queue.
	if _, err := s.Submit(sub(1, Interactive)); err != nil {
		t.Fatal(err)
	}
	<-started
	if _, err := s.Submit(sub(2, Interactive)); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Submit(sub(3, Interactive)); err != nil {
		t.Fatal(err)
	}

	// A single over-capacity submission is rejected with nothing kept.
	if _, err := s.Submit(sub(4, Interactive)); !errors.Is(err, ErrQueueFull) {
		t.Fatalf("Submit on full queue = %v, want ErrQueueFull", err)
	}
	// A group that would half-fit must also leave no trace: submission 2
	// would coalesce, 5 and 6 would be fresh and cannot both fit.
	_, err := s.SubmitGroup([]Submission{
		sub(2, Interactive), sub(5, Interactive), sub(6, Interactive),
	})
	var qfe *QueueFullError
	if !errors.As(err, &qfe) || qfe.Jobs != 2 {
		t.Fatalf("group admission = %v, want QueueFullError{Jobs: 2}", err)
	}
	s.mu.Lock()
	queued := s.queuedN[Interactive]
	ledger := len(s.jobs)
	s.mu.Unlock()
	if queued != 2 || ledger != 3 {
		t.Errorf("after rollback: queued = %d, ledger = %d, want 2 queued / 3 jobs", queued, ledger)
	}

	// The bulk class has its own capacity: a full interactive queue must
	// not reject bulk work.
	if _, err := s.Submit(sub(7, Bulk)); err != nil {
		t.Errorf("bulk submit with full interactive queue = %v, want nil", err)
	}
}

func TestWeightedPriorityDequeue(t *testing.T) {
	gate := make(chan struct{})
	started := make(chan struct{}, 1)
	var mu sync.Mutex
	var order []Priority
	s := newTestSched(t, Config{Workers: 1}, func(ctx context.Context, spec d2m.RunSpec) (d2m.RunOutput, error) {
		if spec.Options.Seed == 0 { // the gate job
			started <- struct{}{}
			<-gate
			return d2m.RunOutput{}, nil
		}
		mu.Lock()
		if spec.Options.Warmup == 1 {
			order = append(order, Bulk)
		} else {
			order = append(order, Interactive)
		}
		mu.Unlock()
		return d2m.RunOutput{}, nil
	})

	// Park the only worker, then queue 1 bulk job ahead of 5
	// interactive ones.
	if _, err := s.Submit(sub(0, Interactive)); err != nil {
		t.Fatal(err)
	}
	<-started
	bulk := sub(100, Bulk)
	bulk.Options.Warmup = 1 // marks the bulk job for the recorder
	if _, err := s.Submit(bulk); err != nil {
		t.Fatal(err)
	}
	last := (*Job)(nil)
	for i := uint64(1); i <= 5; i++ {
		adm, err := s.Submit(sub(i, Interactive))
		if err != nil {
			t.Fatal(err)
		}
		last = adm.Job
	}
	close(gate)
	<-last.Done()
	s.Shutdown(context.Background()) // drain the trailing bulk job

	mu.Lock()
	defer mu.Unlock()
	if len(order) != 6 {
		t.Fatalf("ran %d jobs, want 6 (%v)", len(order), order)
	}
	// Weight 4 means four interactive dequeues, then the bulk job,
	// then the last interactive one — despite the bulk job being first
	// in FIFO terms.
	want := []Priority{Interactive, Interactive, Interactive, Interactive, Bulk, Interactive}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("dequeue order = %v, want %v", order, want)
		}
	}
}

func TestCancelQueued(t *testing.T) {
	gate := make(chan struct{})
	defer close(gate)
	started := make(chan struct{}, 1)
	s := newTestSched(t, Config{Workers: 1}, func(ctx context.Context, spec d2m.RunSpec) (d2m.RunOutput, error) {
		started <- struct{}{}
		<-gate
		return d2m.RunOutput{}, nil
	})
	if _, err := s.Submit(sub(1, Interactive)); err != nil {
		t.Fatal(err)
	}
	<-started
	adm, err := s.Submit(sub(2, Interactive))
	if err != nil {
		t.Fatal(err)
	}
	j, err := s.Cancel(adm.Job.ID())
	if err != nil {
		t.Fatal(err)
	}
	select {
	case <-j.Done():
	case <-time.After(5 * time.Second):
		t.Fatal("cancelled queued job never settled")
	}
	if in := j.Info(); in.State != StateCanceled {
		t.Fatalf("state = %s, want canceled", in.State)
	}
	// Cancelling again reports the settled state; unknown ids miss.
	if _, err := s.Cancel(j.ID()); !errors.Is(err, ErrSettled) {
		t.Errorf("second cancel = %v, want ErrSettled", err)
	}
	if _, err := s.Cancel("j99999999"); !errors.Is(err, ErrUnknownJob) {
		t.Errorf("unknown cancel = %v, want ErrUnknownJob", err)
	}
}

func TestCancelRunning(t *testing.T) {
	started := make(chan struct{}, 1)
	s := newTestSched(t, Config{Workers: 1}, func(ctx context.Context, spec d2m.RunSpec) (d2m.RunOutput, error) {
		started <- struct{}{}
		<-ctx.Done()
		return d2m.RunOutput{}, ctx.Err()
	})
	adm, err := s.Submit(sub(1, Interactive))
	if err != nil {
		t.Fatal(err)
	}
	<-started
	if _, err := s.Cancel(adm.Job.ID()); err != nil {
		t.Fatal(err)
	}
	select {
	case <-adm.Job.Done():
	case <-time.After(5 * time.Second):
		t.Fatal("cancelled running job never settled")
	}
	if in := adm.Job.Info(); in.State != StateCanceled {
		t.Fatalf("state = %s, want canceled", in.State)
	}
}

// TestCoalescePromotesQueuedBulk: an interactive submission that
// coalesces onto a queued bulk job lifts that job into the interactive
// class, moving its queue accounting with it.
func TestCoalescePromotesQueuedBulk(t *testing.T) {
	started, release := make(chan struct{}), make(chan struct{})
	s := newTestSched(t, Config{Workers: 1}, blockerRun(started, release))
	bl, err := s.Submit(blocker())
	if err != nil {
		t.Fatal(err)
	}
	<-started
	bulk, err := s.Submit(sub(3, Bulk))
	if err != nil {
		t.Fatal(err)
	}
	inter, err := s.Submit(sub(3, Interactive))
	if err != nil {
		t.Fatal(err)
	}
	if inter.Job != bulk.Job || inter.New {
		t.Fatalf("interactive submission did not coalesce onto the bulk job")
	}
	if in := bulk.Job.Info(); in.Priority != Interactive || in.QueuePos != 1 {
		t.Errorf("priority/pos = %v/%d, want interactive/1", in.Priority, in.QueuePos)
	}
	s.mu.Lock()
	qi, qb := s.queuedN[Interactive], s.queuedN[Bulk]
	s.mu.Unlock()
	if qi != 1 || qb != 0 {
		t.Errorf("queued interactive/bulk = %d/%d, want 1/0", qi, qb)
	}
	close(release)
	<-bl.Job.Done()
	<-bulk.Job.Done()
	if st := bulk.Job.Info().State; st != StateDone {
		t.Errorf("promoted job state = %s, want done", st)
	}
}

func TestReleaseAbandonsLastWaiter(t *testing.T) {
	started := make(chan struct{}, 1)
	s := newTestSched(t, Config{Workers: 1}, func(ctx context.Context, spec d2m.RunSpec) (d2m.RunOutput, error) {
		started <- struct{}{}
		<-ctx.Done()
		return d2m.RunOutput{}, ctx.Err()
	})
	adm, err := s.Submit(sub(1, Interactive))
	if err != nil {
		t.Fatal(err)
	}
	<-started
	s.Release(adm.Job)
	select {
	case <-adm.Job.Done():
	case <-time.After(5 * time.Second):
		t.Fatal("abandoned job never settled")
	}
	if in := adm.Job.Info(); in.State != StateCanceled {
		t.Fatalf("state = %s, want canceled", in.State)
	}
}

// TestReleaseFreesQueuedSlot: abandoning a queued job frees its queue
// slot at once, so a full queue admits the next submission while the
// only worker is still busy.
func TestReleaseFreesQueuedSlot(t *testing.T) {
	started, release := make(chan struct{}), make(chan struct{})
	defer close(release)
	s := newTestSched(t, Config{Workers: 1, QueueDepth: 1}, blockerRun(started, release))
	if _, err := s.Submit(blocker()); err != nil {
		t.Fatal(err)
	}
	<-started
	b, err := s.Submit(sub(1, Interactive))
	if err != nil {
		t.Fatal(err)
	}
	s.Release(b.Job)
	if _, err := s.Submit(sub(2, Interactive)); err != nil {
		t.Errorf("submit after releasing the queued job = %v, want admitted", err)
	}
	if in := b.Job.Info(); in.State != StateCanceled {
		t.Errorf("released queued job = %s, want canceled at once", in.State)
	}
}

func TestShutdownDrains(t *testing.T) {
	var runs atomic.Int64
	s := newTestSched(t, Config{Workers: 2}, func(ctx context.Context, spec d2m.RunSpec) (d2m.RunOutput, error) {
		runs.Add(1)
		time.Sleep(time.Millisecond)
		return d2m.RunOutput{}, nil
	})
	for i := uint64(1); i <= 8; i++ {
		if _, err := s.Submit(sub(i, Interactive)); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Shutdown(context.Background()); err != nil {
		t.Fatal(err)
	}
	if n := runs.Load(); n != 8 {
		t.Errorf("runs after drain = %d, want 8 (queued jobs finish)", n)
	}
	if _, err := s.Submit(sub(99, Interactive)); !errors.Is(err, ErrDraining) {
		t.Errorf("post-shutdown submit = %v, want ErrDraining", err)
	}
}

func TestRetryAfterTracksServiceRate(t *testing.T) {
	s := newTestSched(t, Config{Workers: 2}, func(ctx context.Context, spec d2m.RunSpec) (d2m.RunOutput, error) {
		return d2m.RunOutput{}, nil
	})
	// Before any observation: optimistic floor.
	if got := s.RetryAfter(Interactive); got != time.Second {
		t.Errorf("cold RetryAfter = %v, want 1s", got)
	}
	adm, err := s.Submit(sub(1, Interactive))
	if err != nil {
		t.Fatal(err)
	}
	<-adm.Job.Done()
	// Fast observed service keeps the estimate clamped at the floor.
	if got := s.RetryAfter(Bulk); got != time.Second {
		t.Errorf("warm RetryAfter = %v, want 1s (sub-second EWMA clamps)", got)
	}
	// A slow EWMA scales with the backlog the class would sit behind.
	s.mu.Lock()
	s.runEWMA, s.runCount = 10, 1
	s.queuedN[Interactive] = 4
	s.mu.Unlock()
	if got := s.RetryAfter(Interactive); got != 25*time.Second {
		t.Errorf("backlogged RetryAfter = %v, want 25s (10s x 5 jobs / 2 workers)", got)
	}
	s.mu.Lock()
	s.queuedN[Interactive] = 0
	s.mu.Unlock()
}

// TestBulkDoesNotStarveInteractive floods the bulk class with a
// 500-cell sweep-shaped workload and checks that interactive requests
// submitted throughout still settle with bounded latency. Run with
// -race in CI.
func TestBulkDoesNotStarveInteractive(t *testing.T) {
	s := newTestSched(t, Config{Workers: 4, QueueDepth: 64}, func(ctx context.Context, spec d2m.RunSpec) (d2m.RunOutput, error) {
		time.Sleep(500 * time.Microsecond)
		return d2m.RunOutput{}, nil
	})

	const cells = 500
	feederDone := make(chan error, 1)
	go func() {
		for i := 0; i < cells; i++ {
			adm, err := s.SubmitWait(context.Background(), sub(uint64(1000+i), Bulk))
			if err != nil {
				feederDone <- fmt.Errorf("cell %d: %w", i, err)
				return
			}
			s.Release(adm.Job) // detachment not needed; jobs run regardless
		}
		feederDone <- nil
	}()

	// Interactive probes while the bulk flood is in full swing: each
	// must complete promptly even though hundreds of bulk cells are
	// waiting.
	const probes = 20
	var worst time.Duration
	for i := 0; i < probes; i++ {
		start := time.Now()
		adm, err := s.Submit(sub(uint64(i+1), Interactive))
		if err != nil {
			t.Fatalf("probe %d rejected: %v", i, err)
		}
		select {
		case <-adm.Job.Done():
		case <-time.After(10 * time.Second):
			t.Fatalf("probe %d starved behind bulk work", i)
		}
		if d := time.Since(start); d > worst {
			worst = d
		}
		time.Sleep(time.Millisecond)
	}
	if err := <-feederDone; err != nil {
		t.Fatal(err)
	}
	// The bound is generous (race-detector runs are slow) but far below
	// the ~unbounded wait FIFO behind 500 cells would produce.
	if worst > 5*time.Second {
		t.Errorf("worst interactive latency = %v under bulk flood", worst)
	}
}

// TestReleaseAbandonedKeyReuse pins the inflight-slot guard: a job
// abandoned while running must not clobber the inflight entry of the
// fresh job that replaced it for the same cache key.
func TestReleaseAbandonedKeyReuse(t *testing.T) {
	started := make(chan struct{}, 4)
	s := newTestSched(t, Config{Workers: 2}, func(ctx context.Context, spec d2m.RunSpec) (d2m.RunOutput, error) {
		started <- struct{}{}
		<-ctx.Done()
		return d2m.RunOutput{}, ctx.Err()
	})
	first, err := s.Submit(sub(1, Interactive))
	if err != nil {
		t.Fatal(err)
	}
	<-started
	s.Release(first.Job) // abandon: context cancels, job will settle

	// Resubmitting the same identity must get a fresh job (no coalescing
	// onto the dying one), and the dying job's settle must not evict the
	// fresh job's inflight slot.
	second, err := s.Submit(sub(1, Interactive))
	if err != nil {
		t.Fatal(err)
	}
	if !second.New || second.Job == first.Job {
		t.Fatalf("resubmit after abandon coalesced onto the dying job")
	}
	<-first.Job.Done()
	<-started // the fresh job is running now
	third, err := s.Submit(sub(1, Interactive))
	if err != nil {
		t.Fatal(err)
	}
	if third.New || third.Job != second.Job {
		t.Errorf("third submit did not coalesce onto the live job (inflight slot lost)")
	}
	s.Cancel(second.Job.ID())
	<-second.Job.Done()
}

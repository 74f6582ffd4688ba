package sched

import (
	"context"
	"errors"
	"sync"
	"testing"
	"time"

	"d2m"
)

// tsub builds a distinct submission owned by a tenant.
func tsub(seed uint64, p Priority, tenant string) Submission {
	s := sub(seed, p)
	s.Tenant = tenant
	return s
}

// drain pops every queued job of the class in dequeue order,
// returning the tenant sequence. Exercises classQueue directly — no
// workers, no HTTP.
func drainOrder(cq *classQueue, shareOf func(string) int) []string {
	var order []string
	for {
		j := cq.pop(shareOf)
		if j == nil {
			return order
		}
		order = append(order, j.spec.Tenant)
	}
}

func queuedJob(tenant string) *Job {
	return &Job{spec: Submission{Tenant: tenant}, state: StateQueued}
}

func TestDRRSharesProportional(t *testing.T) {
	// Tenant a (share 4) and tenant b (share 1), both deeply backlogged:
	// each contended round must serve four of a per one of b.
	var cq classQueue
	for i := 0; i < 8; i++ {
		cq.push(queuedJob("a"))
	}
	for i := 0; i < 2; i++ {
		cq.push(queuedJob("b"))
	}
	shares := map[string]int{"a": 4, "b": 1}
	got := drainOrder(&cq, func(n string) int { return shares[n] })
	want := []string{"a", "a", "a", "a", "b", "a", "a", "a", "a", "b"}
	if len(got) != len(want) {
		t.Fatalf("drained %d jobs, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("dequeue order %v, want %v", got, want)
		}
	}
}

func TestDRREqualSharesInterleave(t *testing.T) {
	// Equal shares must round-robin one job per tenant per round, no
	// matter how lopsided the backlogs are.
	var cq classQueue
	for i := 0; i < 6; i++ {
		cq.push(queuedJob("hog"))
	}
	cq.push(queuedJob("small"))
	cq.push(queuedJob("small"))
	got := drainOrder(&cq, nil)
	want := []string{"hog", "small", "hog", "small", "hog", "hog", "hog", "hog"}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("dequeue order %v, want %v", got, want)
		}
	}
}

func TestDRRZeroShareFloorsAtOne(t *testing.T) {
	// A tenant whose share resolves below 1 still drains — fairness
	// never becomes starvation; zero-share tenants are cut off at
	// admission, not in the queue.
	var cq classQueue
	cq.push(queuedJob("z"))
	cq.push(queuedJob("a"))
	got := drainOrder(&cq, func(string) int { return 0 })
	if len(got) != 2 {
		t.Fatalf("drained %v, want both jobs", got)
	}
}

func TestDRRSingleTenantIsFIFO(t *testing.T) {
	// One tenant (the default "") must behave exactly like the
	// pre-tenancy FIFO: strict submission order.
	var cq classQueue
	jobs := make([]*Job, 5)
	for i := range jobs {
		jobs[i] = queuedJob("")
		cq.push(jobs[i])
	}
	for i, want := range jobs {
		if got := cq.pop(nil); got != want {
			t.Fatalf("pop %d returned %p, want %p (FIFO order broken)", i, got, want)
		}
	}
	if !cq.empty() {
		t.Fatal("queue not empty after draining")
	}
}

func TestDRRRemove(t *testing.T) {
	var cq classQueue
	a1, a2, b1 := queuedJob("a"), queuedJob("a"), queuedJob("b")
	cq.push(a1)
	cq.push(a2)
	cq.push(b1)
	if cq.position(a2) != 2 || cq.position(b1) != 1 {
		t.Fatalf("positions a2=%d b1=%d, want 2,1 (tenant-local)", cq.position(a2), cq.position(b1))
	}
	if !cq.remove(a2) {
		t.Fatal("remove(a2) failed")
	}
	if cq.remove(a2) {
		t.Fatal("second remove(a2) succeeded")
	}
	got := drainOrder(&cq, nil)
	if len(got) != 2 {
		t.Fatalf("drained %v, want a1 and b1 only", got)
	}
	if cq.position(b1) != 0 {
		t.Fatal("popped job still reports a queue position")
	}
}

// TestDRRSchedulerFairUnderHostileTenant is the end-to-end fairness
// check inside sched: a hostile tenant floods the bulk class, yet a
// small tenant's bulk jobs run within its fair share of the contended
// window rather than behind the whole hostile backlog. The single
// worker makes the service order deterministic: it is recorded at run
// time, where the dequeue order is still visible.
func TestDRRSchedulerFairUnderHostileTenant(t *testing.T) {
	release := make(chan struct{})
	var mu sync.Mutex
	var served []string
	s := newTestSched(t, Config{
		Workers:    1,
		QueueDepth: 128,
		TenantShare: func(tenant string) int {
			if tenant == "small" {
				return 2
			}
			return 1
		},
	}, func(ctx context.Context, spec d2m.RunSpec) (d2m.RunOutput, error) {
		<-release
		if spec.Options.Seed >= 100 { // skip the gatekeeper
			mu.Lock()
			if spec.Options.Seed >= 500 {
				served = append(served, "small")
			} else {
				served = append(served, "hostile")
			}
			mu.Unlock()
		}
		return d2m.RunOutput{Result: d2m.Result{Cycles: spec.Options.Seed}}, nil
	})

	// First job occupies the single worker so everything below queues.
	gatekeeper, err := s.Submit(tsub(1, Bulk, "hostile"))
	if err != nil {
		t.Fatal(err)
	}
	select {
	case <-gatekeeper.Job.Started():
	case <-time.After(5 * time.Second):
		t.Fatal("gatekeeper never claimed")
	}
	const hostileN, smallN = 40, 4
	var last *Job
	for i := 0; i < hostileN; i++ {
		adm, err := s.Submit(tsub(uint64(100+i), Bulk, "hostile"))
		if err != nil {
			t.Fatal(err)
		}
		last = adm.Job
	}
	smalls := make([]*Job, 0, smallN)
	for i := 0; i < smallN; i++ {
		adm, err := s.Submit(tsub(uint64(500+i), Bulk, "small"))
		if err != nil {
			t.Fatal(err)
		}
		smalls = append(smalls, adm.Job)
	}
	close(release)
	for _, j := range append(smalls, last) {
		select {
		case <-j.Done():
		case <-time.After(10 * time.Second):
			t.Fatal("timed out waiting for jobs to settle")
		}
	}

	// With share 2 vs 1 the small tenant's 4 jobs are served within the
	// first three contended rounds (positions 1,2,4,5 of the trace);
	// assert the generous bound that none waits behind more than 8
	// hostile jobs of the 40 queued ahead of it.
	mu.Lock()
	defer mu.Unlock()
	smallDone := 0
	for i, tenant := range served {
		if tenant == "small" {
			smallDone++
			if i >= 12 {
				t.Fatalf("small tenant's job #%d served at position %d of %v", smallDone, i, served)
			}
		}
	}
	if smallDone != smallN {
		t.Fatalf("small tenant ran %d jobs, want %d (served %v)", smallDone, smallN, served)
	}
}

// TestPerTenantQueueDepth: one tenant filling its allotment must not
// consume another tenant's admission capacity.
func TestPerTenantQueueDepth(t *testing.T) {
	release := make(chan struct{})
	defer close(release)
	s := newTestSched(t, Config{Workers: 1, QueueDepth: 4},
		func(ctx context.Context, spec d2m.RunSpec) (d2m.RunOutput, error) {
			<-release
			return d2m.RunOutput{}, nil
		})
	// Occupy the worker, then fill tenant hog's interactive allotment.
	adm, err := s.Submit(tsub(1, Interactive, "hog"))
	if err != nil {
		t.Fatal(err)
	}
	select {
	case <-adm.Job.Started():
	case <-time.After(5 * time.Second):
		t.Fatal("worker never claimed the gatekeeper job")
	}
	for i := 0; i < 4; i++ {
		if _, err := s.Submit(tsub(uint64(10+i), Interactive, "hog")); err != nil {
			t.Fatalf("filling hog's allotment: %v", err)
		}
	}
	if _, err := s.Submit(tsub(20, Interactive, "hog")); !errors.Is(err, ErrQueueFull) {
		t.Fatalf("hog's overflow admission: err = %v, want ErrQueueFull", err)
	}
	// Another tenant still has its full allotment.
	for i := 0; i < 4; i++ {
		if _, err := s.Submit(tsub(uint64(30+i), Interactive, "guest")); err != nil {
			t.Fatalf("guest admission %d rejected despite hog backlog: %v", i, err)
		}
	}
	if _, err := s.Submit(tsub(40, Interactive, "guest")); !errors.Is(err, ErrQueueFull) {
		t.Fatalf("guest's overflow admission: err = %v, want ErrQueueFull", err)
	}
}

// TestJobStartedChannel: Started closes on claim, never for a job
// cancelled while queued.
func TestJobStartedChannel(t *testing.T) {
	release := make(chan struct{})
	s := newTestSched(t, Config{Workers: 1},
		func(ctx context.Context, spec d2m.RunSpec) (d2m.RunOutput, error) {
			<-release
			return d2m.RunOutput{}, nil
		})
	first, err := s.Submit(sub(1, Interactive))
	if err != nil {
		t.Fatal(err)
	}
	select {
	case <-first.Job.Started():
	case <-time.After(5 * time.Second):
		t.Fatal("Started never closed for a claimed job")
	}
	queued, err := s.Submit(sub(2, Interactive))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Cancel(queued.Job.ID()); err != nil {
		t.Fatal(err)
	}
	<-queued.Job.Done()
	select {
	case <-queued.Job.Started():
		t.Fatal("Started closed for a job cancelled in the queue")
	default:
	}
	close(release)
}

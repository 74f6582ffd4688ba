package sched

import (
	"context"
	"errors"
	"sync"
	"testing"
	"time"

	"d2m"
)

// laneRecorder is a RunGroup hook that records each group's lane
// measures and answers with per-lane results keyed to the measure.
type laneRecorder struct {
	mu     sync.Mutex
	groups [][]int
	err    error           // group error to return, if any
	laneEr map[int]error   // per-lane error by measure
	block  <-chan struct{} // when non-nil, wait before returning
}

func (lr *laneRecorder) run(ctx context.Context, lanes []d2m.GroupLane) ([]d2m.LaneOutcome, error) {
	ms := make([]int, len(lanes))
	outs := make([]d2m.LaneOutcome, len(lanes))
	for i, ln := range lanes {
		ms[i] = ln.Spec.Options.Measure
		if err := lr.laneEr[ms[i]]; err != nil {
			outs[i] = d2m.LaneOutcome{Err: err}
			continue
		}
		outs[i] = d2m.LaneOutcome{Output: d2m.RunOutput{
			Result: d2m.Result{Cycles: uint64(ln.Spec.Options.Measure)},
			Engine: d2m.EngineVector,
		}}
	}
	lr.mu.Lock()
	lr.groups = append(lr.groups, ms)
	lr.mu.Unlock()
	if lr.block != nil {
		<-lr.block
	}
	return outs, lr.err
}

func (lr *laneRecorder) snapshot() [][]int {
	lr.mu.Lock()
	defer lr.mu.Unlock()
	out := make([][]int, len(lr.groups))
	copy(out, lr.groups)
	return out
}

// laneSub builds a lane-eligible submission: one warm identity (same
// seed), distinct cache keys (distinct measures).
func laneSub(measure int, p Priority) Submission {
	return Submission{
		Kind: d2m.Base2L, Benchmark: "tpc-c",
		Options:  d2m.Options{Seed: 1, Measure: measure},
		Priority: p,
	}
}

// blockerRun returns a Run hook that blocks on release for the
// "blocker" benchmark (signalling started once) and settles everything
// else instantly, so tests can hold the single worker while queueing.
func blockerRun(started chan<- struct{}, release <-chan struct{}) func(context.Context, d2m.RunSpec) (d2m.RunOutput, error) {
	var once sync.Once
	return func(ctx context.Context, spec d2m.RunSpec) (d2m.RunOutput, error) {
		if spec.Benchmark == "blocker" {
			once.Do(func() { close(started) })
			<-release
		}
		return d2m.RunOutput{Result: d2m.Result{Cycles: spec.Options.Seed}}, nil
	}
}

func blocker() Submission {
	return Submission{Kind: d2m.Base2L, Benchmark: "blocker", Priority: Interactive}
}

// TestLaneGroupFromChain: same-warm-identity jobs admitted by one
// SubmitGroup execute as one lane group — one RunGroup call carrying
// every member, every job done with the vector engine and its own
// result.
func TestLaneGroupFromChain(t *testing.T) {
	lr := &laneRecorder{}
	started, release := make(chan struct{}), make(chan struct{})
	s := newTestSched(t, Config{Workers: 1, RunGroup: lr.run}, blockerRun(started, release))

	bl, err := s.Submit(blocker())
	if err != nil {
		t.Fatal(err)
	}
	<-started

	adms, err := s.SubmitGroup([]Submission{
		laneSub(100, Interactive), laneSub(200, Interactive), laneSub(300, Interactive),
	})
	if err != nil {
		t.Fatal(err)
	}
	close(release)
	<-bl.Job.Done()
	for i, adm := range adms {
		<-adm.Job.Done()
		in := adm.Job.Info()
		if in.State != StateDone {
			t.Fatalf("lane %d state = %s (%v)", i, in.State, in.Err)
		}
		if in.Engine != d2m.EngineVector {
			t.Errorf("lane %d engine = %q, want vector", i, in.Engine)
		}
		want := uint64((i + 1) * 100)
		if in.Result == nil || in.Result.Cycles != want {
			t.Errorf("lane %d result = %+v, want cycles %d", i, in.Result, want)
		}
	}
	groups := lr.snapshot()
	if len(groups) != 1 || len(groups[0]) != 3 {
		t.Fatalf("groups = %v, want one group of 3", groups)
	}
}

// TestLaneGroupStealsQueuedLeaders: independently submitted jobs that
// share a lane key but arrived as separate submissions are stolen out of
// the queue into one group.
func TestLaneGroupStealsQueuedLeaders(t *testing.T) {
	lr := &laneRecorder{}
	started, release := make(chan struct{}), make(chan struct{})
	s := newTestSched(t, Config{Workers: 1, RunGroup: lr.run}, blockerRun(started, release))

	bl, _ := s.Submit(blocker())
	<-started
	a, err := s.Submit(laneSub(100, Interactive))
	if err != nil {
		t.Fatal(err)
	}
	b, err := s.Submit(laneSub(200, Bulk)) // other class: stealing spans classes
	if err != nil {
		t.Fatal(err)
	}
	close(release)
	<-bl.Job.Done()
	<-a.Job.Done()
	<-b.Job.Done()
	groups := lr.snapshot()
	if len(groups) != 1 || len(groups[0]) != 2 {
		t.Fatalf("groups = %v, want one group of 2", groups)
	}
	if a.Job.Info().Engine != d2m.EngineVector || b.Job.Info().Engine != d2m.EngineVector {
		t.Errorf("engines = %q/%q, want vector/vector",
			a.Job.Info().Engine, b.Job.Info().Engine)
	}
}

// TestLaneGroupCancelWhileQueued: cancelling one member before the
// group runs drops that lane; the rest still group.
func TestLaneGroupCancelWhileQueued(t *testing.T) {
	lr := &laneRecorder{}
	started, release := make(chan struct{}), make(chan struct{})
	s := newTestSched(t, Config{Workers: 1, RunGroup: lr.run}, blockerRun(started, release))

	bl, _ := s.Submit(blocker())
	<-started
	adms, err := s.SubmitGroup([]Submission{
		laneSub(100, Interactive), laneSub(200, Interactive), laneSub(300, Interactive),
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Cancel(adms[1].Job.ID()); err != nil {
		t.Fatal(err)
	}
	close(release)
	<-bl.Job.Done()
	for _, adm := range adms {
		<-adm.Job.Done()
	}
	if st := adms[1].Job.Info().State; st != StateCanceled {
		t.Errorf("cancelled lane state = %s, want canceled", st)
	}
	groups := lr.snapshot()
	if len(groups) != 1 || len(groups[0]) != 2 {
		t.Fatalf("groups = %v, want one group of 2 (cancelled lane dropped)", groups)
	}
	for i := range []int{0, 2} {
		if st := adms[i*2].Job.Info().State; st != StateDone {
			t.Errorf("surviving lane state = %s, want done", st)
		}
	}
}

// TestLaneGroupScalarHintOptsOut: Engine "scalar" keeps jobs out of
// lane groups even when they share a warm identity.
func TestLaneGroupScalarHintOptsOut(t *testing.T) {
	lr := &laneRecorder{}
	started, release := make(chan struct{}), make(chan struct{})
	s := newTestSched(t, Config{Workers: 1, RunGroup: lr.run}, blockerRun(started, release))

	bl, _ := s.Submit(blocker())
	<-started
	subs := []Submission{laneSub(100, Interactive), laneSub(200, Interactive)}
	for i := range subs {
		subs[i].Engine = d2m.EngineScalar
	}
	adms, err := s.SubmitGroup(subs)
	if err != nil {
		t.Fatal(err)
	}
	close(release)
	<-bl.Job.Done()
	for _, adm := range adms {
		<-adm.Job.Done()
		if eng := adm.Job.Info().Engine; eng != d2m.EngineScalar {
			t.Errorf("engine = %q, want scalar", eng)
		}
	}
	if groups := lr.snapshot(); len(groups) != 0 {
		t.Fatalf("groups = %v, want none (scalar hint)", groups)
	}
}

// TestLaneGroupNotSplitAcrossWorkers: a SubmitGroup of 8 same-lane-key jobs
// on a 4-worker scheduler forms exactly one group of 8 — the worker
// that pops the first job takes its siblings under the same lock hold,
// so idle workers never split the group.
func TestLaneGroupNotSplitAcrossWorkers(t *testing.T) {
	lr := &laneRecorder{}
	s := newTestSched(t, Config{Workers: 4, RunGroup: lr.run}, nil)
	subs := make([]Submission, 8)
	for i := range subs {
		subs[i] = laneSub((i+1)*100, Interactive)
	}
	adms, err := s.SubmitGroup(subs)
	if err != nil {
		t.Fatal(err)
	}
	for _, adm := range adms {
		<-adm.Job.Done()
		if in := adm.Job.Info(); in.State != StateDone || in.Engine != d2m.EngineVector {
			t.Errorf("state/engine = %s/%q, want done/vector", in.State, in.Engine)
		}
	}
	if groups := lr.snapshot(); len(groups) != 1 || len(groups[0]) != 8 {
		t.Fatalf("groups = %v, want one group of 8", groups)
	}
}

// TestLaneGroupMaxLanes: same-lane-key jobs beyond maxLanes stay
// queued and form the next group instead of running scalar.
func TestLaneGroupMaxLanes(t *testing.T) {
	lr := &laneRecorder{}
	started, release := make(chan struct{}), make(chan struct{})
	s := newTestSched(t, Config{Workers: 1, RunGroup: lr.run}, blockerRun(started, release))

	bl, _ := s.Submit(blocker())
	<-started
	subs := make([]Submission, maxLanes+2)
	for i := range subs {
		subs[i] = laneSub((i+1)*100, Interactive)
	}
	adms, err := s.SubmitGroup(subs)
	if err != nil {
		t.Fatal(err)
	}
	close(release)
	<-bl.Job.Done()
	for i, adm := range adms {
		<-adm.Job.Done()
		if in := adm.Job.Info(); in.State != StateDone || in.Engine != d2m.EngineVector {
			t.Errorf("job %d state/engine = %s/%q, want done/vector", i, in.State, in.Engine)
		}
	}
	groups := lr.snapshot()
	if len(groups) != 2 || len(groups[0]) != maxLanes || len(groups[1]) != 2 {
		t.Fatalf("groups = %v, want groups of %d and 2", groups, maxLanes)
	}
}

// TestLaneGroupErrors: a group error fails every lane; a per-lane
// error fails only its lane.
func TestLaneGroupErrors(t *testing.T) {
	t.Run("group", func(t *testing.T) {
		lr := &laneRecorder{err: errors.New("engine exploded")}
		started, release := make(chan struct{}), make(chan struct{})
		s := newTestSched(t, Config{Workers: 1, RunGroup: lr.run}, blockerRun(started, release))
		bl, _ := s.Submit(blocker())
		<-started
		adms, err := s.SubmitGroup([]Submission{laneSub(100, Interactive), laneSub(200, Interactive)})
		if err != nil {
			t.Fatal(err)
		}
		close(release)
		<-bl.Job.Done()
		for i, adm := range adms {
			<-adm.Job.Done()
			if st := adm.Job.Info().State; st != StateFailed {
				t.Errorf("lane %d state = %s, want failed", i, st)
			}
		}
	})
	t.Run("lane", func(t *testing.T) {
		lr := &laneRecorder{laneEr: map[int]error{200: errors.New("lane boom")}}
		started, release := make(chan struct{}), make(chan struct{})
		s := newTestSched(t, Config{Workers: 1, RunGroup: lr.run}, blockerRun(started, release))
		bl, _ := s.Submit(blocker())
		<-started
		adms, err := s.SubmitGroup([]Submission{laneSub(100, Interactive), laneSub(200, Interactive)})
		if err != nil {
			t.Fatal(err)
		}
		close(release)
		<-bl.Job.Done()
		<-adms[0].Job.Done()
		<-adms[1].Job.Done()
		if st := adms[0].Job.Info().State; st != StateDone {
			t.Errorf("healthy lane state = %s, want done", st)
		}
		if st := adms[1].Job.Info().State; st != StateFailed {
			t.Errorf("failing lane state = %s, want failed", st)
		}
	})
}

// TestSubmitEngineValidation: unknown engine hints are rejected at
// admission. A replicated submission's seed runs have distinct warm
// identities (one seed each), so they never group with one another.
func TestSubmitEngineValidation(t *testing.T) {
	lr := &laneRecorder{}
	s := newTestSched(t, Config{Workers: 1, RunGroup: lr.run}, nil)
	bad := laneSub(100, Interactive)
	bad.Engine = "turbo"
	if _, err := s.Submit(bad); err == nil {
		t.Error("Submit with engine \"turbo\" accepted, want validation error")
	}
	reps := laneSub(100, Interactive)
	reps.Engine = d2m.EngineVector
	reps.Replicates = 4
	adm, err := s.Submit(reps)
	if err != nil {
		t.Fatal(err)
	}
	<-adm.Job.Done()
	if groups := lr.snapshot(); len(groups) != 0 {
		t.Errorf("replicated submission grouped: %v", groups)
	}
}

// TestSubmitGroupWaitParks: a full queue parks the group feeder until
// a worker frees slots, rather than failing.
func TestSubmitGroupWaitParks(t *testing.T) {
	started, release := make(chan struct{}), make(chan struct{})
	s := newTestSched(t, Config{Workers: 1, QueueDepth: 1}, blockerRun(started, release))

	if _, err := s.Submit(blocker()); err != nil {
		t.Fatal(err)
	}
	<-started
	if _, err := s.Submit(laneSub(100, Interactive)); err != nil {
		t.Fatal(err)
	}
	// Queue is now full; the group must park, then land once released.
	done := make(chan error, 1)
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		adms, err := s.SubmitGroupWait(ctx, []Submission{laneSub(200, Interactive)})
		if err == nil {
			<-adms[0].Job.Done()
		}
		done <- err
	}()
	select {
	case err := <-done:
		t.Fatalf("SubmitGroupWait returned before a slot freed (err=%v)", err)
	case <-time.After(50 * time.Millisecond):
	}
	close(release)
	if err := <-done; err != nil {
		t.Fatalf("SubmitGroupWait: %v", err)
	}
}

package service

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strings"
	"sync"
	"testing"
	"time"

	"d2m"
	"d2m/internal/api"
)

// A replicated run is its seed runs: every test here drives one
// through the HTTP surface onto a counting Runner.

// countingRunner is a Runner stub answering stubResult, counting calls
// and the most it saw at once. A non-nil gate holds every call until
// it closes; fail, when set, fails the seeds it names.
type countingRunner struct {
	gate chan struct{}
	fail map[uint64]error

	mu             sync.Mutex
	calls, running int
	peak           int
}

func (r *countingRunner) run(ctx context.Context, kind d2m.Kind, bench string, opt d2m.Options) (d2m.Result, error) {
	r.mu.Lock()
	r.calls++
	r.running++
	r.peak = max(r.peak, r.running)
	r.mu.Unlock()
	defer func() {
		r.mu.Lock()
		r.running--
		r.mu.Unlock()
	}()
	if r.gate != nil {
		select {
		case <-r.gate:
		case <-ctx.Done():
			return d2m.Result{}, ctx.Err()
		}
	}
	if err := r.fail[opt.Seed]; err != nil {
		return d2m.Result{}, err
	}
	time.Sleep(time.Millisecond) // let overlapping calls show
	return stubResult(kind, bench, opt), nil
}

func (r *countingRunner) stats() (calls, peak int) {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.calls, r.peak
}

// listJobs returns GET /v1/jobs, filtered by state when one is given.
func listJobs(t *testing.T, ts string, state api.JobState) []api.JobStatus {
	t.Helper()
	url := ts + "/v1/jobs"
	if state != "" {
		url += "?state=" + string(state)
	}
	_, raw, _ := doJSON(t, "GET", url, "", "")
	var list JobList
	if err := json.Unmarshal(raw, &list); err != nil {
		t.Fatalf("decode %s: %v", raw, err)
	}
	return list.Jobs
}

// TestReplicatedRunCoalesces: concurrent identical replicated requests
// share one job, and their seeds run once.
func TestReplicatedRunCoalesces(t *testing.T) {
	r := &countingRunner{gate: make(chan struct{})}
	_, ts := newTestServer(t, Config{Workers: 2, Runner: r.run})
	body := `{"kind":"d2m-ns","benchmark":"tpc-c","nodes":2,"replicates":3,"async":true}`
	_, a, _ := postRun(t, ts, body)
	_, b, _ := postRun(t, ts, body)
	if a.ID == "" || a.ID != b.ID {
		t.Fatalf("identical replicated runs got jobs %q and %q, want one", a.ID, b.ID)
	}
	close(r.gate)
	st := waitJob(t, ts.URL, a.ID)
	if st.State != api.JobDone || st.Replicated == nil || st.Replicated.N != 3 {
		t.Fatalf("shared job = %+v", st)
	}
	if calls, _ := r.stats(); calls != 3 {
		t.Errorf("runner invoked %d times, want 3", calls)
	}
}

// TestReplicatedRunDelete: DELETE on a replicated run settles it
// canceled at once and abandons its queued seeds that no other request
// waits for: they settle canceled at once, without reaching the Runner.
func TestReplicatedRunDelete(t *testing.T) {
	r := &countingRunner{gate: make(chan struct{})}
	_, ts := newTestServer(t, Config{Workers: 1, Runner: r.run})
	// Occupy the only worker so the seeds stay queued. The blocker must
	// be inside the Runner before the replicated run is posted: while it
	// still waits in the queue, the run queues behind it at position 2.
	_, blocker, _ := postRun(t, ts, strings.TrimSuffix(tinyRun, "}")+`,"async":true}`)
	for deadline := time.Now().Add(5 * time.Second); ; time.Sleep(time.Millisecond) {
		if calls, _ := r.stats(); calls == 1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("the blocker never reached the Runner")
		}
	}
	_, rep, _ := postRun(t, ts, `{"kind":"d2m-ns","benchmark":"tpc-c","nodes":2,"replicates":3,"async":true}`)
	if rep.State != api.JobQueued || rep.QueuePosition != 1 {
		t.Errorf("replicated run behind a busy worker: %s at %d, want queued at 1", rep.State, rep.QueuePosition)
	}
	code, raw, _ := doJSON(t, "DELETE", ts.URL+"/v1/jobs/"+rep.ID, "", "")
	var st api.JobStatus
	if err := json.Unmarshal(raw, &st); err != nil || code != http.StatusOK || st.State != api.JobCanceled {
		t.Fatalf("DELETE = %d (%s), want 200 canceled", code, raw)
	}
	// The released seeds leave the queue at once, while the blocker
	// still holds the only worker.
	if canceled := listJobs(t, ts.URL, api.JobCanceled); len(canceled) != 4 {
		t.Errorf("canceled jobs = %+v, want 4 (the run and its 3 seeds)", listJobs(t, ts.URL, ""))
	}
	close(r.gate)
	if st := waitJob(t, ts.URL, blocker.ID); st.State != api.JobDone {
		t.Fatalf("blocker = %s", st.State)
	}
	if calls, _ := r.stats(); calls != 1 {
		t.Errorf("runner invoked %d times, want 1 (the blocker only)", calls)
	}
}

// TestReplicatedRunSSE: an async replicated run streams queued, running
// and settled like any job. Its seeds queue behind a blocker, and each
// stage is released only after the stream reported the one before.
func TestReplicatedRunSSE(t *testing.T) {
	blockerGate, seedGate := make(chan struct{}), make(chan struct{})
	_, ts := newTestServer(t, Config{Workers: 1, Runner: func(ctx context.Context, kind d2m.Kind, bench string, opt d2m.Options) (d2m.Result, error) {
		if kind == d2m.D2MNSR { // tinyRun, the blocker
			<-blockerGate
		} else {
			<-seedGate
		}
		return stubResult(kind, bench, opt), nil
	}})
	postRun(t, ts, strings.TrimSuffix(tinyRun, "}")+`,"async":true}`)
	_, rep, _ := postRun(t, ts, `{"kind":"d2m-ns","benchmark":"tpc-c","nodes":2,"replicates":2,"async":true}`)
	resp := openSSE(t, ts.URL+"/v1/jobs/"+rep.ID, 0)
	defer resp.Body.Close()
	next := func(id int, state api.JobState) api.JobStatus {
		t.Helper()
		events := readEvents(t, resp.Body, 1, "")
		var st api.JobStatus
		if len(events) == 1 {
			json.Unmarshal(events[0].data, &st)
		}
		if len(events) != 1 || events[0].id != id || st.State != state {
			t.Fatalf("event = %+v, want id %d %s", events, id, state)
		}
		return st
	}
	next(1, api.JobQueued)
	close(blockerGate)
	next(2, api.JobRunning)
	close(seedGate)
	if st := next(3, api.JobDone); st.Replicated == nil || st.Replicated.N != 2 {
		t.Errorf("terminal event lacks the aggregate: %+v", st)
	}
}

// TestReplicatedRunSeedFails: one failing seed fails the run with that
// seed's error.
func TestReplicatedRunSeedFails(t *testing.T) {
	r := &countingRunner{fail: map[uint64]error{2: errors.New("seed 2 exploded")}}
	_, ts := newTestServer(t, Config{Workers: 2, Runner: r.run})
	code, st, _ := postRun(t, ts, `{"kind":"d2m-ns","benchmark":"tpc-c","nodes":2,"replicates":3}`)
	if code != http.StatusInternalServerError || st.State != api.JobFailed || st.Error != "seed 2 exploded" {
		t.Errorf("POST = %d %s %q, want 500 failed with the seed's error", code, st.State, st.Error)
	}
	if st.Result != nil || st.Replicated != nil {
		t.Errorf("failed run carries a result: %+v", st)
	}
}

// TestReplicatedRunChargedPerSeed: a replicated run costs one rate
// token per seed — a burst below n refuses it — and so do a batch's
// runs and a sweep's cells.
func TestReplicatedRunChargedPerSeed(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1, Runner: (&countingRunner{}).run, Tenants: []TenantSpec{
		{Name: "alice", Key: "key-a", Rate: 0.001, Burst: 4},
		{Name: "bob", Key: "key-b", Rate: 0.001, Burst: 4},
		{Name: "carol", Key: "key-c", Rate: 0.001, Burst: 4},
	}})
	rep := func(n, seed int) string {
		return fmt.Sprintf(`{"kind":"d2m-ns","benchmark":"tpc-c","nodes":2,"seed":%d,"replicates":%d}`, seed, n)
	}
	code, raw, _ := doJSON(t, "POST", ts.URL+"/v1/run", "key-a", rep(5, 0))
	if code != http.StatusTooManyRequests || errEnvelope(t, raw).Code != api.ErrRateLimited {
		t.Fatalf("replicates 5 on burst 4 = %d (%s), want 429 rate_limited", code, raw)
	}
	if code, raw, _ = doJSON(t, "POST", ts.URL+"/v1/run", "key-a", rep(4, 0)); code != http.StatusOK {
		t.Fatalf("replicates 4 on burst 4 = %d (%s), want 200", code, raw)
	}
	if code, raw, _ = doJSON(t, "POST", ts.URL+"/v1/run", "key-a", tinyRun); code != http.StatusTooManyRequests {
		t.Errorf("run after 4 seeds drained the bucket = %d (%s), want 429", code, raw)
	}

	// A batch of two 2-seed runs costs 4; one more run is refused.
	batch := `{"runs":[` + rep(2, 10) + `,` + rep(2, 20) + `]}`
	if code, raw, _ = doJSON(t, "POST", ts.URL+"/v1/batch", "key-b", batch); code != http.StatusOK {
		t.Fatalf("batch of 2x2 seeds on burst 4 = %d (%s), want 200", code, raw)
	}
	if code, raw, _ = doJSON(t, "POST", ts.URL+"/v1/run", "key-b", tinyRun); code != http.StatusTooManyRequests {
		t.Errorf("run after the batch = %d (%s), want 429", code, raw)
	}

	// A sweep of 2 cells x 2 seeds costs 4; 2 x 3 is refused.
	sweep := `{"kinds":["base-2l","d2m-ns"],"benchmarks":["tpc-c"],"nodes":2,"replicates":%d}`
	if code, raw, _ = doJSON(t, "POST", ts.URL+"/v1/sweeps", "key-c", fmt.Sprintf(sweep, 3)); code != http.StatusTooManyRequests {
		t.Errorf("2x3-seed sweep on burst 4 = %d (%s), want 429", code, raw)
	}
	if code, raw, _ = doJSON(t, "POST", ts.URL+"/v1/sweeps", "key-c", fmt.Sprintf(sweep, 2)); code != http.StatusAccepted {
		t.Errorf("2x2-seed sweep on burst 4 = %d (%s), want 202", code, raw)
	}
}

// waitJob polls GET /v1/jobs/{id} until the job settles.
func waitJob(t *testing.T, ts, id string) api.JobStatus {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		_, raw, _ := doJSON(t, "GET", ts+"/v1/jobs/"+id, "", "")
		var st api.JobStatus
		if err := json.Unmarshal(raw, &st); err != nil {
			t.Fatalf("decode %s: %v", raw, err)
		}
		switch st.State {
		case api.JobDone, api.JobFailed, api.JobCanceled:
			return st
		}
		if time.Now().After(deadline) {
			t.Fatalf("job %s still %s", id, st.State)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

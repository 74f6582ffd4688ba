package service

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"d2m"
	"d2m/internal/api"
	"d2m/internal/service/sched"
)

// newTestServer builds a service with the given config and an HTTP
// front end; both are torn down with the test.
func newTestServer(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	s, err := New(cfg)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		ts.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		s.Shutdown(ctx)
	})
	return s, ts
}

// postRun posts a request body to /v1/run and decodes the response.
func postRun(t *testing.T, ts *httptest.Server, body string) (int, api.JobStatus, http.Header) {
	t.Helper()
	resp, err := http.Post(ts.URL+"/v1/run", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatalf("POST /v1/run: %v", err)
	}
	defer resp.Body.Close()
	raw, _ := io.ReadAll(resp.Body)
	var st api.JobStatus
	// Error responses carry the error envelope, not a api.JobStatus; tests
	// that care about the envelope decode it themselves.
	if resp.StatusCode < 400 || resp.StatusCode == http.StatusGatewayTimeout ||
		resp.StatusCode == http.StatusInternalServerError {
		if err := json.Unmarshal(raw, &st); err != nil {
			t.Fatalf("decode %q: %v", raw, err)
		}
	}
	return resp.StatusCode, st, resp.Header
}

// stubResult is what stub runners return: distinguishable per request.
func stubResult(kind d2m.Kind, bench string, opt d2m.Options) d2m.Result {
	return d2m.Result{Kind: kind, Benchmark: bench, Cycles: 1000 + opt.Seed}
}

// TestEndToEndMatchesRun posts a real simulation and checks the JSON
// result is byte-identical to what the library (and therefore
// d2msim -json) produces for the same parameters.
func TestEndToEndMatchesRun(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 2})
	body := `{"kind":"d2m-ns-r","benchmark":"tpc-c","nodes":2,"warmup":2000,"measure":8000,"seed":7}`
	code, st, _ := postRun(t, ts, body)
	if code != http.StatusOK {
		t.Fatalf("POST = %d, want 200 (%+v)", code, st)
	}
	if st.State != api.JobDone || st.Result == nil {
		t.Fatalf("state = %s, result nil = %v", st.State, st.Result == nil)
	}

	want, err := d2m.Run(context.Background(), d2m.RunSpec{
		Kind: d2m.D2MNSR, Benchmark: "tpc-c",
		Options: d2m.Options{Nodes: 2, Warmup: 2000, Measure: 8000, Seed: 7},
	})
	if err != nil {
		t.Fatal(err)
	}
	got, _ := json.Marshal(st.Result)
	wantJSON, _ := json.Marshal(want.Result)
	if !bytes.Equal(got, wantJSON) {
		t.Errorf("server result differs from d2m.Run:\n got %s\nwant %s", got, wantJSON)
	}
}

// TestKernelRunMatchesRun checks the kernels the capabilities document
// lists are runnable: "kernel:<name>" is a benchmark name like any
// other, and the server's result is byte-identical to d2m.Run's.
func TestKernelRunMatchesRun(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 2})
	body := `{"kind":"d2m-ns-r","benchmark":"kernel:stencil","nodes":2,"warmup":2000,"measure":8000}`
	code, st, _ := postRun(t, ts, body)
	if code != http.StatusOK {
		t.Fatalf("POST = %d, want 200 (%+v)", code, st)
	}
	if st.State != api.JobDone || st.Result == nil {
		t.Fatalf("state = %s, result nil = %v", st.State, st.Result == nil)
	}
	want, err := d2m.Run(context.Background(), d2m.RunSpec{
		Kind: d2m.D2MNSR, Benchmark: "kernel:stencil",
		Options: d2m.Options{Nodes: 2, Warmup: 2000, Measure: 8000},
	})
	if err != nil {
		t.Fatal(err)
	}
	got, _ := json.Marshal(st.Result)
	wantJSON, _ := json.Marshal(want.Result)
	if !bytes.Equal(got, wantJSON) {
		t.Errorf("server result differs from d2m.Run:\n got %s\nwant %s", got, wantJSON)
	}
	if code, _, _ := postRun(t, ts, `{"kind":"d2m-ns-r","benchmark":"kernel:no-such"}`); code != http.StatusBadRequest {
		t.Errorf("unknown kernel: POST = %d, want 400", code)
	}
}

// TestCacheHit checks a repeated identical request is served from the
// cache without a second simulation, and that spelling differences
// (kind case/dashes, explicit defaults) do not defeat the content
// address.
func TestCacheHit(t *testing.T) {
	var runs atomic.Int64
	s, ts := newTestServer(t, Config{
		Workers: 1,
		Runner: func(ctx context.Context, kind d2m.Kind, bench string, opt d2m.Options) (d2m.Result, error) {
			runs.Add(1)
			return stubResult(kind, bench, opt), nil
		},
	})
	first := `{"kind":"d2m-fs","benchmark":"canneal","nodes":4}`
	code, st, _ := postRun(t, ts, first)
	if code != http.StatusOK || st.Cached {
		t.Fatalf("first post: code %d cached %v", code, st.Cached)
	}
	// Same simulation, different spelling: kind case, explicit default.
	second := `{"kind":"D2MFS","benchmark":"canneal","nodes":4,"md_scale":1}`
	code, st, _ = postRun(t, ts, second)
	if code != http.StatusOK {
		t.Fatalf("second post: code %d", code)
	}
	if !st.Cached {
		t.Error("second identical request was not served from cache")
	}
	if got := runs.Load(); got != 1 {
		t.Errorf("runner invoked %d times, want 1", got)
	}
	if got := s.Metrics().CacheHits.Load(); got != 1 {
		t.Errorf("cache hits = %d, want 1", got)
	}
}

// TestReplicatedRun checks a replicated run executes as its seed runs
// — one Runner call per seed, never more at once than the worker pool —
// and settles with their aggregate and its mean projection. Its seeds
// are ordinary cache entries: a repeat is a cache hit that still
// carries the aggregate, eight replicates after four run only the four
// new seeds, and a single run at one of the seeds is a hit.
func TestReplicatedRun(t *testing.T) {
	r := &countingRunner{}
	s, ts := newTestServer(t, Config{Workers: 1, Runner: r.run})
	body := `{"kind":"d2m-ns","benchmark":"tpc-c","nodes":2,"replicates":4}`
	code, st, _ := postRun(t, ts, body)
	if code != http.StatusOK || st.State != api.JobDone {
		t.Fatalf("POST = %d state %s", code, st.State)
	}
	// stubResult's cycles are 1000 + seed, and the seeds are 1..4.
	if st.Replicated == nil || st.Replicated.N != 4 || st.Replicated.CyclesMean != 1002.5 {
		t.Fatalf("replicated aggregate missing or wrong: %+v", st.Replicated)
	}
	if st.Result == nil || st.Result.Cycles != 1002 || st.Result.Benchmark != "tpc-c" {
		t.Fatalf("mean-projected result wrong: %+v", st.Result)
	}
	if st.Cached || st.Engine != d2m.EngineScalar {
		t.Errorf("fresh replicated run: cached %v engine %q, want false and scalar", st.Cached, st.Engine)
	}
	if calls, peak := r.stats(); calls != 4 || peak != 1 {
		t.Errorf("runner saw %d calls at peak concurrency %d, want 4 at 1 (one worker)", calls, peak)
	}
	_, raw, _ := doJSON(t, "GET", ts.URL+"/v1/jobs", "", "")
	var list JobList
	if err := json.Unmarshal(raw, &list); err != nil {
		t.Fatal(err)
	}
	if len(list.Jobs) != 5 {
		t.Errorf("GET /v1/jobs lists %d jobs, want 5 (the run and its 4 seeds)", len(list.Jobs))
	}

	// Repeat: a cache hit that still carries the aggregate.
	code, st, _ = postRun(t, ts, body)
	if code != http.StatusOK || !st.Cached {
		t.Fatalf("repeat: code %d cached %v", code, st.Cached)
	}
	if st.Replicated == nil || st.Replicated.N != 4 || st.Result.Cycles != 1002 {
		t.Errorf("cached response lost the aggregate: %+v", st.Replicated)
	}

	// Eight replicates reuse the first four seeds.
	code, st, _ = postRun(t, ts, `{"kind":"d2m-ns","benchmark":"tpc-c","nodes":2,"replicates":8}`)
	if code != http.StatusOK || st.Replicated == nil || st.Replicated.N != 8 {
		t.Fatalf("replicates 8: code %d %+v", code, st.Replicated)
	}
	if calls, _ := r.stats(); calls != 8 {
		t.Errorf("runner saw %d calls after replicates 4 then 8, want 8", calls)
	}
	// A single run at a seed is one of the cached seed runs.
	code, st, _ = postRun(t, ts, `{"kind":"d2m-ns","benchmark":"tpc-c","nodes":2,"seed":3}`)
	if code != http.StatusOK || !st.Cached || st.Result.Cycles != 1003 || st.Replicated != nil {
		t.Errorf("single run at seed 3: code %d cached %v %+v", code, st.Cached, st.Result)
	}

	// replicates:1 means a single run with its own cache identity.
	code, st, _ = postRun(t, ts, `{"kind":"d2m-ns","benchmark":"tpc-c","nodes":2,"replicates":1}`)
	if code != http.StatusOK || st.Cached {
		t.Fatalf("single-run request: code %d cached %v", code, st.Cached)
	}
	if st.Replicated != nil {
		t.Errorf("single run carries an aggregate: %+v", st.Replicated)
	}
	if calls, _ := r.stats(); calls != 9 {
		t.Errorf("runner invoked %d times, want 9", calls)
	}
	// Jobs done: 4 seeds + their run, 4 seeds + their run, the single.
	if got := s.Metrics().JobsDone.Load(); got != 11 {
		t.Errorf("jobs done = %d, want 11", got)
	}
}

// TestCoalescing fires many concurrent identical requests while the
// simulation is held, then checks exactly one simulation ran and every
// client got the result.
func TestCoalescing(t *testing.T) {
	const clients = 8
	var runs atomic.Int64
	release := make(chan struct{})
	s, ts := newTestServer(t, Config{
		Workers: 2,
		Runner: func(ctx context.Context, kind d2m.Kind, bench string, opt d2m.Options) (d2m.Result, error) {
			runs.Add(1)
			<-release
			return stubResult(kind, bench, opt), nil
		},
	})
	body := `{"kind":"d2m-ns","benchmark":"tpc-c","nodes":2}`
	var wg sync.WaitGroup
	codes := make([]int, clients)
	results := make([]api.JobStatus, clients)
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			codes[i], results[i], _ = postRun(t, ts, body)
		}(i)
	}
	// Every request has passed the cache check once CacheMisses hits
	// the client count; only then is the single simulation released.
	deadline := time.Now().Add(5 * time.Second)
	for s.Metrics().CacheMisses.Load() < clients {
		if time.Now().After(deadline) {
			t.Fatal("timed out waiting for requests to reach admission")
		}
		time.Sleep(time.Millisecond)
	}
	close(release)
	wg.Wait()

	for i := 0; i < clients; i++ {
		if codes[i] != http.StatusOK {
			t.Fatalf("client %d: code %d (%+v)", i, codes[i], results[i])
		}
		if results[i].Result == nil || results[i].Result.Cycles != 1000 {
			t.Fatalf("client %d: bad result %+v", i, results[i].Result)
		}
	}
	if got := runs.Load(); got != 1 {
		t.Errorf("runner invoked %d times for %d identical requests, want 1", got, clients)
	}
	if got := s.Metrics().Coalesced.Load(); got != clients-1 {
		t.Errorf("coalesced = %d, want %d", got, clients-1)
	}
}

// TestBackpressure checks the bounded queue rejects overflow with 429
// and a Retry-After hint.
func TestBackpressure(t *testing.T) {
	started := make(chan struct{}, 8)
	release := make(chan struct{})
	s, ts := newTestServer(t, Config{
		Workers:    1,
		QueueDepth: 1,
		Runner: func(ctx context.Context, kind d2m.Kind, bench string, opt d2m.Options) (d2m.Result, error) {
			started <- struct{}{}
			<-release
			return stubResult(kind, bench, opt), nil
		},
	})
	defer close(release)

	// Distinct seeds keep the three requests from coalescing.
	post := func(seed int) (int, http.Header) {
		code, _, hdr := postRun(t, ts, fmt.Sprintf(
			`{"kind":"base-2l","benchmark":"tpc-c","seed":%d,"async":true}`, seed))
		return code, hdr
	}
	if code, _ := post(1); code != http.StatusAccepted {
		t.Fatalf("job 1: code %d, want 202", code)
	}
	<-started // job 1 occupies the only worker
	if code, _ := post(2); code != http.StatusAccepted {
		t.Fatalf("job 2: code %d, want 202", code)
	}
	code, hdr := post(3) // queue slot taken by job 2
	if code != http.StatusTooManyRequests {
		t.Fatalf("job 3: code %d, want 429", code)
	}
	if hdr.Get("Retry-After") == "" {
		t.Error("429 response missing Retry-After header")
	}
	if got := s.Metrics().JobsRejected.Load(); got != 1 {
		t.Errorf("rejected = %d, want 1", got)
	}
}

// TestDeadlineCancelFreesWorker posts a job with a 1ms deadline whose
// runner only ends on cancellation, then checks the job reports
// canceled and the (single) worker is free to run the next job.
func TestDeadlineCancelFreesWorker(t *testing.T) {
	s, ts := newTestServer(t, Config{
		Workers: 1,
		Runner: func(ctx context.Context, kind d2m.Kind, bench string, opt d2m.Options) (d2m.Result, error) {
			if opt.Seed == 1 { // the doomed job: runs until its deadline fires
				<-ctx.Done()
				return d2m.Result{}, ctx.Err()
			}
			return stubResult(kind, bench, opt), nil
		},
	})
	code, st, _ := postRun(t, ts, `{"kind":"base-3l","benchmark":"tpc-c","seed":1,"timeout_ms":1}`)
	if code != http.StatusGatewayTimeout || st.State != api.JobCanceled {
		t.Fatalf("doomed job: code %d state %s, want 504/canceled", code, st.State)
	}
	if got := s.Metrics().JobsCanceled.Load(); got != 1 {
		t.Errorf("canceled = %d, want 1", got)
	}
	// The worker must be free again: a normal job completes.
	code, st, _ = postRun(t, ts, `{"kind":"base-3l","benchmark":"tpc-c","seed":2}`)
	if code != http.StatusOK || st.State != api.JobDone {
		t.Fatalf("follow-up job: code %d state %s, want 200/done", code, st.State)
	}
}

// TestTimeoutBounds checks that a request cannot escape the server's
// default deadline: a negative timeout_ms, which the scheduler would
// read as "no deadline", and one whose duration overflows are 400s on
// run, batch and sweeps, while the default still cancels a slow job.
func TestTimeoutBounds(t *testing.T) {
	_, ts := newTestServer(t, Config{
		Workers:        1,
		DefaultTimeout: 50 * time.Millisecond,
		Runner: func(ctx context.Context, kind d2m.Kind, bench string, opt d2m.Options) (d2m.Result, error) {
			select {
			case <-ctx.Done():
				return d2m.Result{}, ctx.Err()
			case <-time.After(300 * time.Millisecond):
				return stubResult(kind, bench, opt), nil
			}
		},
	})
	code, st, _ := postRun(t, ts, `{"kind":"base-3l","benchmark":"tpc-c"}`)
	if code != http.StatusGatewayTimeout || st.State != api.JobCanceled {
		t.Fatalf("default deadline: code %d state %s, want 504/canceled", code, st.State)
	}
	for _, ms := range []string{"-1", "9223372036855"} {
		for path, body := range map[string]string{
			"/v1/run":    `{"kind":"base-3l","benchmark":"tpc-c","timeout_ms":` + ms + `}`,
			"/v1/batch":  `{"runs":[{"kind":"base-3l","benchmark":"tpc-c","timeout_ms":` + ms + `}]}`,
			"/v1/sweeps": `{"kinds":["base-3l"],"benchmarks":["tpc-c"],"timeout_ms":` + ms + `}`,
		} {
			resp, err := http.Post(ts.URL+path, "application/json", strings.NewReader(body))
			if err != nil {
				t.Fatal(err)
			}
			var eb api.ErrorBody
			err = json.NewDecoder(resp.Body).Decode(&eb)
			resp.Body.Close()
			if err != nil {
				t.Fatal(err)
			}
			if resp.StatusCode != http.StatusBadRequest || eb.Error.Code != api.ErrInvalidRequest {
				t.Errorf("%s timeout_ms %s: code %d %q, want 400 %q", path, ms, resp.StatusCode, eb.Error.Code, api.ErrInvalidRequest)
			}
		}
	}
}

// TestClientDisconnectCancels checks that when the only waiting client
// goes away, the job's context is cancelled and the simulation stops.
func TestClientDisconnectCancels(t *testing.T) {
	started := make(chan struct{})
	s, ts := newTestServer(t, Config{
		Workers: 1,
		Runner: func(ctx context.Context, kind d2m.Kind, bench string, opt d2m.Options) (d2m.Result, error) {
			close(started)
			<-ctx.Done()
			return d2m.Result{}, ctx.Err()
		},
	})
	reqCtx, cancelReq := context.WithCancel(context.Background())
	req, _ := http.NewRequestWithContext(reqCtx, "POST", ts.URL+"/v1/run",
		strings.NewReader(`{"kind":"d2m-ns-r","benchmark":"tpc-c"}`))
	errc := make(chan error, 1)
	go func() {
		_, err := ts.Client().Do(req)
		errc <- err
	}()
	<-started   // the simulation is running
	cancelReq() // the client hangs up
	if err := <-errc; err == nil {
		t.Error("expected the aborted request to error")
	}
	deadline := time.Now().Add(5 * time.Second)
	for s.Metrics().JobsCanceled.Load() != 1 {
		if time.Now().After(deadline) {
			t.Fatal("job was not cancelled after its only client disconnected")
		}
		time.Sleep(time.Millisecond)
	}
}

// TestGracefulShutdown drains a busy server and checks every admitted
// job finished and post-drain requests are refused.
func TestGracefulShutdown(t *testing.T) {
	const jobs = 4
	s, ts := newTestServer(t, Config{
		Workers: 2,
		Runner: func(ctx context.Context, kind d2m.Kind, bench string, opt d2m.Options) (d2m.Result, error) {
			time.Sleep(20 * time.Millisecond)
			return stubResult(kind, bench, opt), nil
		},
	})
	for i := 0; i < jobs; i++ {
		code, _, _ := postRun(t, ts, fmt.Sprintf(
			`{"kind":"d2m-fs","benchmark":"tpc-c","seed":%d,"async":true}`, i+1))
		if code != http.StatusAccepted {
			t.Fatalf("job %d: code %d", i, code)
		}
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := s.Shutdown(ctx); err != nil {
		t.Fatalf("Shutdown: %v", err)
	}
	if got := s.Metrics().JobsDone.Load(); got != jobs {
		t.Errorf("after drain, done = %d, want %d", got, jobs)
	}
	code, _, _ := postRun(t, ts, `{"kind":"d2m-fs","benchmark":"tpc-c","seed":99}`)
	if code != http.StatusServiceUnavailable {
		t.Errorf("post-drain POST = %d, want 503", code)
	}
}

// TestShutdownDeadline checks an expired drain budget cancels the
// outstanding jobs rather than hanging.
func TestShutdownDeadline(t *testing.T) {
	started := make(chan struct{})
	s, ts := newTestServer(t, Config{
		Workers: 1,
		Runner: func(ctx context.Context, kind d2m.Kind, bench string, opt d2m.Options) (d2m.Result, error) {
			close(started)
			<-ctx.Done()
			return d2m.Result{}, ctx.Err()
		},
	})
	code, _, _ := postRun(t, ts, `{"kind":"d2m-ns","benchmark":"tpc-c","async":true}`)
	if code != http.StatusAccepted {
		t.Fatalf("post: code %d", code)
	}
	<-started
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	if err := s.Shutdown(ctx); err != context.DeadlineExceeded {
		t.Fatalf("Shutdown = %v, want DeadlineExceeded", err)
	}
	if got := s.Metrics().JobsCanceled.Load(); got != 1 {
		t.Errorf("canceled = %d, want 1", got)
	}
}

// TestAsyncJobLifecycle submits async and polls GET /v1/jobs/{id}.
func TestAsyncJobLifecycle(t *testing.T) {
	_, ts := newTestServer(t, Config{
		Workers: 1,
		Runner: func(ctx context.Context, kind d2m.Kind, bench string, opt d2m.Options) (d2m.Result, error) {
			return stubResult(kind, bench, opt), nil
		},
	})
	code, st, _ := postRun(t, ts, `{"kind":"d2m-hybrid","benchmark":"tpc-c","async":true}`)
	if code != http.StatusAccepted || st.ID == "" {
		t.Fatalf("async post: code %d id %q", code, st.ID)
	}
	deadline := time.Now().Add(5 * time.Second)
	for {
		resp, err := http.Get(ts.URL + "/v1/jobs/" + st.ID)
		if err != nil {
			t.Fatal(err)
		}
		var cur api.JobStatus
		json.NewDecoder(resp.Body).Decode(&cur)
		resp.Body.Close()
		if cur.State == api.JobDone {
			if cur.Result == nil {
				t.Fatal("done job has no result")
			}
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("job stuck in state %s", cur.State)
		}
		time.Sleep(time.Millisecond)
	}
	if resp, _ := http.Get(ts.URL + "/v1/jobs/nonesuch"); resp.StatusCode != http.StatusNotFound {
		t.Errorf("unknown job id: code %d, want 404", resp.StatusCode)
	}
}

// TestRequestValidation checks malformed requests are rejected with
// 400 through the shared d2m parse helpers.
func TestRequestValidation(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1,
		Runner: func(ctx context.Context, kind d2m.Kind, bench string, opt d2m.Options) (d2m.Result, error) {
			t.Error("runner invoked for an invalid request")
			return d2m.Result{}, nil
		},
	})
	cases := []struct {
		name, body string
		code       api.ErrCode
	}{
		{"malformed json", `{"kind":`, api.ErrInvalidRequest},
		{"unknown field", `{"kind":"d2m-fs","benchmark":"tpc-c","bogus":1}`, api.ErrInvalidRequest},
		{"unknown kind", `{"kind":"d2m-xl","benchmark":"tpc-c"}`, api.ErrInvalidRequest},
		{"unknown benchmark", `{"kind":"d2m-fs","benchmark":"nonesuch"}`, api.ErrUnknownBenchmark},
		{"mix on odd nodes", `{"kind":"d2m-fs","benchmark":"mix:tpc-c+fft","nodes":5}`, api.ErrInvalidRequest},
		{"mix with no first program", `{"kind":"d2m-fs","benchmark":"mix:+fft"}`, api.ErrUnknownBenchmark},
		{"unknown topology", `{"kind":"d2m-fs","benchmark":"tpc-c","topology":"hypercube"}`, api.ErrInvalidRequest},
		{"unknown placement", `{"kind":"d2m-ns","benchmark":"tpc-c","placement":"random"}`, api.ErrInvalidRequest},
		{"nodes out of range", `{"kind":"d2m-fs","benchmark":"tpc-c","nodes":9}`, api.ErrInvalidRequest},
		{"removed mdscale alias", `{"kind":"d2m-fs","benchmark":"tpc-c","mdscale":3}`, api.ErrInvalidRequest},
		{"bad md_scale", `{"kind":"d2m-fs","benchmark":"tpc-c","md_scale":3}`, api.ErrInvalidRequest},
		{"mdscale next to md_scale", `{"kind":"d2m-fs","benchmark":"tpc-c","md_scale":2,"mdscale":4}`, api.ErrInvalidRequest},
		{"negative measure", `{"kind":"d2m-fs","benchmark":"tpc-c","measure":-5}`, api.ErrInvalidRequest},
		{"negative replicates", `{"kind":"d2m-fs","benchmark":"tpc-c","replicates":-1}`, api.ErrInvalidRequest},
		{"excessive replicates", `{"kind":"d2m-fs","benchmark":"tpc-c","replicates":65}`, api.ErrInvalidRequest},
		{"negative timeout", `{"kind":"d2m-fs","benchmark":"tpc-c","timeout_ms":-1}`, api.ErrInvalidRequest},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			resp, err := http.Post(ts.URL+"/v1/run", "application/json", strings.NewReader(tc.body))
			if err != nil {
				t.Fatal(err)
			}
			defer resp.Body.Close()
			if resp.StatusCode != http.StatusBadRequest {
				t.Errorf("code %d, want 400", resp.StatusCode)
			}
			var eb api.ErrorBody
			if err := json.NewDecoder(resp.Body).Decode(&eb); err != nil {
				t.Fatal(err)
			}
			if eb.Error.Code != tc.code {
				t.Errorf("error code %q, want %q", eb.Error.Code, tc.code)
			}
			if eb.Error.Message == "" {
				t.Error("400 response has no error message")
			}
		})
	}
}

// TestErrorEnvelopeStatuses checks the non-400 error codes map to
// their statuses through the shared envelope.
func TestErrorEnvelopeStatuses(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1})
	resp, err := http.Get(ts.URL + "/v1/jobs/nonesuch")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("code %d, want 404", resp.StatusCode)
	}
	var eb api.ErrorBody
	if err := json.NewDecoder(resp.Body).Decode(&eb); err != nil {
		t.Fatal(err)
	}
	if eb.Error.Code != api.ErrNotFound {
		t.Errorf("error code %q, want %q", eb.Error.Code, api.ErrNotFound)
	}
}

// TestRunRequestNewFields checks link_bandwidth reaches the simulation
// options and md_scale is accepted as the MDScale spelling.
func TestRunRequestNewFields(t *testing.T) {
	var got d2m.Options
	_, ts := newTestServer(t, Config{Workers: 1,
		Runner: func(ctx context.Context, kind d2m.Kind, bench string, opt d2m.Options) (d2m.Result, error) {
			got = opt
			return stubResult(kind, bench, opt), nil
		},
	})
	code, _, _ := postRun(t, ts,
		`{"kind":"d2m-ns-r","benchmark":"tpc-c","md_scale":2,"link_bandwidth":0.5}`)
	if code != http.StatusOK {
		t.Fatalf("POST = %d, want 200", code)
	}
	if got.MDScale != 2 {
		t.Errorf("MDScale = %d, want 2", got.MDScale)
	}
	if got.LinkBandwidth != 0.5 {
		t.Errorf("LinkBandwidth = %v, want 0.5", got.LinkBandwidth)
	}
	// The retired "mdscale" spelling is an unknown field, not silently
	// accepted.
	resp, err := http.Post(ts.URL+"/v1/run", "application/json", strings.NewReader(
		`{"kind":"d2m-ns-r","benchmark":"tpc-c","mdscale":2,"link_bandwidth":0.5}`))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("legacy-spelling request = %d, want 400", resp.StatusCode)
	}
	var eb api.ErrorBody
	if err := json.NewDecoder(resp.Body).Decode(&eb); err != nil {
		t.Fatal(err)
	}
	if eb.Error.Code != api.ErrInvalidRequest || !strings.Contains(eb.Error.Message, `unknown field "mdscale"`) {
		t.Errorf("legacy-spelling error = %+v, want invalid_request naming the unknown field mdscale", eb.Error)
	}
}

// TestJobsList exercises GET /v1/jobs: newest first, state filter,
// limit/cursor pagination, and result omission.
func TestJobsList(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1,
		Runner: func(ctx context.Context, kind d2m.Kind, bench string, opt d2m.Options) (d2m.Result, error) {
			if opt.Seed == 3 {
				return d2m.Result{}, fmt.Errorf("boom")
			}
			return stubResult(kind, bench, opt), nil
		},
	})
	for seed := 1; seed <= 3; seed++ {
		code, _, _ := postRun(t, ts, fmt.Sprintf(
			`{"kind":"base-2l","benchmark":"tpc-c","seed":%d}`, seed))
		want := http.StatusOK
		if seed == 3 {
			want = http.StatusInternalServerError
		}
		if code != want {
			t.Fatalf("seed %d: code %d, want %d", seed, code, want)
		}
	}
	getList := func(query string) JobList {
		t.Helper()
		resp, err := http.Get(ts.URL + "/v1/jobs" + query)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET /v1/jobs%s = %d", query, resp.StatusCode)
		}
		var body JobList
		if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
			t.Fatal(err)
		}
		return body
	}

	all := getList("")
	if len(all.Jobs) != 3 || all.NextCursor != "" {
		t.Fatalf("full list: %d jobs, cursor %q", len(all.Jobs), all.NextCursor)
	}
	for i := 1; i < len(all.Jobs); i++ {
		if all.Jobs[i-1].ID <= all.Jobs[i].ID {
			t.Errorf("list not newest first: %q before %q", all.Jobs[i-1].ID, all.Jobs[i].ID)
		}
	}
	for _, j := range all.Jobs {
		if j.Result != nil {
			t.Errorf("list entry %s carries a result payload", j.ID)
		}
	}

	page1 := getList("?limit=2")
	if len(page1.Jobs) != 2 || page1.NextCursor == "" {
		t.Fatalf("page 1: %d jobs, cursor %q", len(page1.Jobs), page1.NextCursor)
	}
	page2 := getList("?limit=2&cursor=" + page1.NextCursor)
	if len(page2.Jobs) != 1 || page2.NextCursor != "" {
		t.Fatalf("page 2: %d jobs, cursor %q", len(page2.Jobs), page2.NextCursor)
	}
	if page2.Jobs[0].ID >= page1.Jobs[1].ID {
		t.Errorf("page 2 job %q not older than page 1 tail %q", page2.Jobs[0].ID, page1.Jobs[1].ID)
	}

	failed := getList("?state=failed")
	if len(failed.Jobs) != 1 || failed.Jobs[0].State != api.JobFailed {
		t.Fatalf("failed filter: %+v", failed.Jobs)
	}

	for _, bad := range []string{"?state=bogus", "?limit=0", "?limit=x"} {
		resp, err := http.Get(ts.URL + "/v1/jobs" + bad)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("GET /v1/jobs%s = %d, want 400", bad, resp.StatusCode)
		}
	}
}

// TestCapabilitiesEndpoint checks the catalogue response on the
// canonical path, and that the /v1/benchmarks alias — deprecated in
// v1.2, stub dropped in v1.6 — is now an ordinary unrouted 404.
func TestCapabilitiesEndpoint(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1})

	resp, err := http.Get(ts.URL + "/v1/benchmarks")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("GET /v1/benchmarks = %d, want plain 404 (stub removed in v1.6)", resp.StatusCode)
	}

	for _, path := range []string{"/v1/capabilities"} {
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		var body api.Capabilities
		err = json.NewDecoder(resp.Body).Decode(&body)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		if body.APIRevision != api.Revision {
			t.Errorf("%s: api_revision %q, want %q", path, body.APIRevision, api.Revision)
		}
		if body.APIRevision != "v1.11" {
			t.Errorf("%s: api_revision %q, want v1.11", path, body.APIRevision)
		}
		if body.MaxLanes < 2 {
			t.Errorf("%s: max_lanes = %d, want >= 2", path, body.MaxLanes)
		}
		// The catalog's paper suites plus the Vector extras suite
		// advertised only through capabilities (API v1.7).
		if len(body.Suites) != len(d2m.Suites())+1 {
			t.Errorf("%s: suites = %d, want %d", path, len(body.Suites), len(d2m.Suites())+1)
		}
		if len(body.Suites[d2m.SuiteVector]) == 0 {
			t.Errorf("%s: capabilities missing Vector extras suite", path)
		}
		// The advertised kinds must match the registry-derived list
		// exactly — this is the wire-side guard against kind-list drift.
		if !reflect.DeepEqual(body.Kinds, api.KindNames()) {
			t.Errorf("%s: kinds %v, want registry list %v", path, body.Kinds, api.KindNames())
		}
		for _, want := range []string{"D2M-NS-R", "D2M-Adaptive", "D2M-LevelPred"} {
			found := false
			for _, k := range body.Kinds {
				if k == want {
					found = true
				}
			}
			if !found {
				t.Errorf("%s: kinds %v missing %s", path, body.Kinds, want)
			}
		}
		if len(body.Topologies) == 0 || len(body.Placements) == 0 {
			t.Errorf("%s: empty topology/placement lists", path)
		}
		if len(body.Kernels) == 0 {
			t.Errorf("%s: empty kernel list", path)
		}
		if body.MaxReplicates != api.MaxReplicates {
			t.Errorf("%s: max_replicates = %d, want %d", path, body.MaxReplicates, api.MaxReplicates)
		}
	}
}

// TestMetricsAndHealthz exercises the observability endpoints.
func TestMetricsAndHealthz(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1,
		Runner: func(ctx context.Context, kind d2m.Kind, bench string, opt d2m.Options) (d2m.Result, error) {
			return stubResult(kind, bench, opt), nil
		},
	})
	if code, _, _ := postRun(t, ts, `{"kind":"base-2l","benchmark":"tpc-c"}`); code != http.StatusOK {
		t.Fatalf("post: %d", code)
	}
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	raw, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	text := string(raw)
	for _, want := range []string{
		"d2m_jobs_done_total 1",
		"d2m_cache_misses_total 1",
		"d2m_run_seconds_bucket{le=\"+Inf\"} 1",
		"d2m_queue_wait_seconds_count{class=\"interactive\"} 1",
		"d2m_queue_wait_seconds_count{class=\"bulk\"} 0",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("/metrics missing %q", want)
		}
	}

	resp, err = http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Errorf("healthz = %d, want 200", resp.StatusCode)
	}
}

// TestResultCacheLRU checks the bound and eviction order of the cache.
func TestResultCacheLRU(t *testing.T) {
	c := NewResultCache(2)
	c.Put("a", d2m.Result{Cycles: 1})
	c.Put("b", d2m.Result{Cycles: 2})
	if _, ok := c.Get("a"); !ok { // refresh a; b is now LRU
		t.Fatal("a missing")
	}
	c.Put("c", d2m.Result{Cycles: 3})
	if _, ok := c.Get("b"); ok {
		t.Error("b should have been evicted")
	}
	if _, ok := c.Get("a"); !ok {
		t.Error("a should have survived (recently used)")
	}
	if c.Len() != 2 {
		t.Errorf("len = %d, want 2", c.Len())
	}
}

// TestCacheKeyCanonical checks the content address ignores spelling
// and handling knobs but distinguishes simulation parameters.
func TestCacheKeyCanonical(t *testing.T) {
	base := d2m.Options{Nodes: 4}.WithDefaults()
	k1 := sched.CacheKey(d2m.D2MNSR, "tpc-c", d2m.Options{Nodes: 4}, 0)
	k2 := sched.CacheKey(d2m.D2MNSR, "tpc-c", base, 0)
	if k1 != k2 {
		t.Error("defaulted and explicit options hash differently")
	}
	if sched.CacheKey(d2m.D2MNSR, "tpc-c", base, 0) == sched.CacheKey(d2m.D2MNS, "tpc-c", base, 0) {
		t.Error("different kinds share a key")
	}
	seeded := base
	seeded.Seed = 1
	if sched.CacheKey(d2m.D2MNSR, "tpc-c", base, 0) == sched.CacheKey(d2m.D2MNSR, "tpc-c", seeded, 0) {
		t.Error("different seeds share a key")
	}
	if sched.CacheKey(d2m.D2MNSR, "tpc-c", base, 0) == sched.CacheKey(d2m.D2MNSR, "tpc-c", base, 8) {
		t.Error("replicated and single-run jobs share a key")
	}
	// Persisted journals are keyed by these bytes: a change to them
	// orphans every stored result.
	for _, pin := range []struct {
		bench string
		opt   d2m.Options
		reps  int
		want  string
	}{
		{"tpc-c", d2m.Options{}, 0, "222379e420156a6aa8a64e6f5d6d9df5"},
		{"tpc-c", d2m.Options{Topology: "crossbar"}, 0, "222379e420156a6aa8a64e6f5d6d9df5"},
		{"tpc-c", d2m.Options{Placement: "pressure"}, 0, "222379e420156a6aa8a64e6f5d6d9df5"},
		{"tpc-c", d2m.Options{Seed: 7}, 0, "4ab008a3f8cd103a2af090a71af4613e"},
		{"tpc-c", d2m.Options{}, 8, "f925d075ce39cd936ce5e09cea8d1575"},
		{"kernel:stencil", d2m.Options{}, 0, "37d2c5da4efa8e0591ebc5cffbacbf11"},
	} {
		if got := sched.CacheKey(d2m.D2MNSR, pin.bench, pin.opt, pin.reps); got != pin.want {
			t.Errorf("CacheKey(%s, %+v, reps %d) = %s, want %s", pin.bench, pin.opt, pin.reps, got, pin.want)
		}
	}
}

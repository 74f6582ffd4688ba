package service

import (
	"bytes"
	"context"
	"d2m/internal/api"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"d2m"
)

// postSweep posts a body to /v1/sweeps and decodes the status (error
// responses are left to the caller's envelope decoding).
func postSweep(t *testing.T, ts *httptest.Server, body string) (int, SweepStatus) {
	t.Helper()
	resp, err := http.Post(ts.URL+"/v1/sweeps", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatalf("POST /v1/sweeps: %v", err)
	}
	defer resp.Body.Close()
	var st SweepStatus
	if resp.StatusCode < 400 {
		if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
			t.Fatalf("decode sweep status: %v", err)
		}
	}
	return resp.StatusCode, st
}

// getSweep fetches GET /v1/sweeps/{id}.
func getSweep(t *testing.T, ts *httptest.Server, id string) SweepStatus {
	t.Helper()
	resp, err := http.Get(ts.URL + "/v1/sweeps/" + id)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /v1/sweeps/%s = %d", id, resp.StatusCode)
	}
	var st SweepStatus
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	return st
}

// waitSweep polls until the sweep leaves the running state.
func waitSweep(t *testing.T, ts *httptest.Server, id string, timeout time.Duration) SweepStatus {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for {
		st := getSweep(t, ts, id)
		if st.State != SweepRunning {
			return st
		}
		if time.Now().After(deadline) {
			t.Fatalf("sweep %s still running after %s: %+v", id, timeout, st)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// TestSweepEndToEndMatchesPerRun runs a real 2-kinds x 3-benchmarks
// grid through POST /v1/sweeps and checks (a) every cell landed in the
// shared result cache, so the equivalent per-cell POST /v1/run is a
// cache hit, and (b) the sweep's aggregate is byte-identical to
// d2m.SummarizeSweep over those per-cell results.
func TestSweepEndToEndMatchesPerRun(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 4})
	body := `{"kinds":["base-2l","d2m-ns-r"],"benchmarks":["tpc-c","canneal","facesim"],` +
		`"nodes":2,"warmup":2000,"measure":8000}`
	code, st := postSweep(t, ts, body)
	if code != http.StatusAccepted || st.ID == "" {
		t.Fatalf("POST /v1/sweeps = %d id %q", code, st.ID)
	}
	if st.Total != 6 {
		t.Fatalf("total = %d, want 6", st.Total)
	}
	final := waitSweep(t, ts, st.ID, 60*time.Second)
	if final.State != SweepDone || final.Done != 6 || final.Failed != 0 {
		t.Fatalf("final sweep: %+v", final)
	}
	if final.Summary == nil || final.Summary.Baseline != "Base-2L" {
		t.Fatalf("summary: %+v", final.Summary)
	}
	if got := s.Metrics().JobsDone.Load(); got != 6 {
		t.Errorf("jobs done = %d, want 6 (each cell simulated exactly once)", got)
	}

	// Replay the same grid cell by cell through POST /v1/run: every cell
	// must be a cache hit (same content address, same simulation).
	spec := d2m.SweepSpec{
		Kinds: []string{"base-2l", "d2m-ns-r"}, Benchmarks: []string{"tpc-c", "canneal", "facesim"},
		Nodes: 2, Warmup: 2000, Measure: 8000,
	}
	cells, err := spec.Expand()
	if err != nil {
		t.Fatal(err)
	}
	results := make([]*d2m.Result, len(cells))
	for i, cell := range cells {
		req := api.RunRequest{
			Kind: cell.Kind.String(), Benchmark: cell.Benchmark,
			Nodes: cell.Options.Nodes, Warmup: cell.Options.Warmup, Measure: cell.Options.Measure,
			Seed: cell.Options.Seed, MDScale: cell.Options.MDScale,
			Bypass: cell.Options.Bypass, Prefetch: cell.Options.Prefetch,
			Topology: cell.Options.Topology, Placement: cell.Options.Placement,
			LinkBandwidth: cell.Options.LinkBandwidth,
		}
		b, _ := json.Marshal(req)
		code, jst, _ := postRun(t, ts, string(b))
		if code != http.StatusOK || !jst.Cached || jst.Result == nil {
			t.Fatalf("cell %d (%s/%s): code %d cached %v", i, req.Kind, req.Benchmark, code, jst.Cached)
		}
		results[i] = jst.Result
	}

	want := d2m.SummarizeSweep(d2m.Base2L, cells, results)
	gotJSON, _ := json.Marshal(final.Summary.Kinds)
	wantJSON, _ := json.Marshal(want)
	if !bytes.Equal(gotJSON, wantJSON) {
		t.Errorf("sweep summary differs from per-cell aggregation:\n got %s\nwant %s", gotJSON, wantJSON)
	}
	for _, row := range final.Summary.Kinds {
		if row.Cells != 3 {
			t.Errorf("kind %s: %d cells, want 3", row.Kind, row.Cells)
		}
		if row.Kind == "Base-2L" && row.SpeedupPct != 0 {
			t.Errorf("baseline speedup = %v, want 0", row.SpeedupPct)
		}
	}
}

// TestSweepReplicates checks a replicated sweep runs every cell as its
// seed runs and reports each cell's mean, and that those seeds are the
// cache entries an equivalently replicated POST /v1/run and the single
// runs at each seed read.
func TestSweepReplicates(t *testing.T) {
	r := &countingRunner{}
	_, ts := newTestServer(t, Config{Workers: 2, Runner: r.run})
	body := `{"kinds":["base-2l","d2m-ns"],"benchmarks":["tpc-c"],"nodes":2,"replicates":3}`
	code, st := postSweep(t, ts, body)
	if code != http.StatusAccepted {
		t.Fatalf("POST /v1/sweeps = %d", code)
	}
	st = waitSweep(t, ts, st.ID, 5*time.Second)
	if st.State != SweepDone || st.Done != 2 || st.Failed != 0 {
		t.Fatalf("sweep settled %+v", st)
	}
	if calls, _ := r.stats(); calls != 6 {
		t.Errorf("runner invoked %d times, want 6 (2 cells x 3 seeds)", calls)
	}
	var full SweepStatus
	_, raw, _ := doJSON(t, "GET", ts.URL+"/v1/sweeps/"+st.ID+"?cells=1", "", "")
	if err := json.Unmarshal(raw, &full); err != nil {
		t.Fatal(err)
	}
	for i, c := range full.Cells {
		if c.Result == nil || c.Result.Cycles != 1002 {
			t.Errorf("cell %d = %+v, want the mean of seeds 1..3 (1002 cycles)", i, c)
		}
	}
	// The matching replicated run is a cache hit with its aggregate...
	code, run, _ := postRun(t, ts, `{"kind":"d2m-ns","benchmark":"tpc-c","nodes":2,"replicates":3}`)
	if code != http.StatusOK || !run.Cached || run.Replicated == nil || run.Replicated.N != 3 {
		t.Errorf("replicated run after sweep: code %d cached %v replicated %+v",
			code, run.Cached, run.Replicated)
	}
	// ...as is a single run at one of its seeds...
	code, run, _ = postRun(t, ts, `{"kind":"base-2l","benchmark":"tpc-c","nodes":2,"seed":2}`)
	if code != http.StatusOK || !run.Cached {
		t.Errorf("single run at seed 2 after sweep: code %d cached %v, want a hit", code, run.Cached)
	}
	// ...while the unseeded single run is a distinct simulation.
	code, run, _ = postRun(t, ts, `{"kind":"d2m-ns","benchmark":"tpc-c","nodes":2}`)
	if code != http.StatusOK || run.Cached {
		t.Errorf("single run after sweep: code %d cached %v, want a fresh job", code, run.Cached)
	}
	if calls, _ := r.stats(); calls != 7 {
		t.Errorf("runner invoked %d times, want 7", calls)
	}
}

// TestSweepCancellationFreesWorkers deletes a sweep whose cells block
// until cancelled, then checks the pool's only worker is free again
// and the sweep settled as canceled.
func TestSweepCancellationFreesWorkers(t *testing.T) {
	s, ts := newTestServer(t, Config{
		Workers: 1,
		Runner: func(ctx context.Context, kind d2m.Kind, bench string, opt d2m.Options) (d2m.Result, error) {
			if kind == d2m.Base2L { // sweep cells: run until cancelled
				<-ctx.Done()
				return d2m.Result{}, ctx.Err()
			}
			return stubResult(kind, bench, opt), nil
		},
	})
	code, st := postSweep(t, ts,
		`{"kinds":["base-2l"],"benchmarks":["tpc-c","canneal","facesim"]}`)
	if code != http.StatusAccepted {
		t.Fatalf("POST /v1/sweeps = %d", code)
	}
	// Wait for the first cell to occupy the worker.
	deadline := time.Now().Add(5 * time.Second)
	for s.Metrics().Running.Load() != 1 {
		if time.Now().After(deadline) {
			t.Fatal("no cell reached the worker")
		}
		time.Sleep(time.Millisecond)
	}

	req, _ := http.NewRequest("DELETE", ts.URL+"/v1/sweeps/"+st.ID, nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("DELETE = %d", resp.StatusCode)
	}

	final := waitSweep(t, ts, st.ID, 5*time.Second)
	if final.State != SweepCanceled || final.Canceled == 0 || final.Done != 0 {
		t.Fatalf("after DELETE: %+v", final)
	}
	if got := s.Metrics().SweepsCanceled.Load(); got != 1 {
		t.Errorf("sweeps canceled = %d, want 1", got)
	}

	// The worker must be free: an ordinary run (different kind, so the
	// stub returns immediately) completes.
	code2, jst, _ := postRun(t, ts, `{"kind":"d2m-fs","benchmark":"tpc-c"}`)
	if code2 != http.StatusOK || jst.State != api.JobDone {
		t.Fatalf("follow-up run after cancel: code %d state %s", code2, jst.State)
	}

	// Deleting a settled sweep is a no-op that returns its status.
	req, _ = http.NewRequest("DELETE", ts.URL+"/v1/sweeps/"+st.ID, nil)
	resp, err = http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	var again SweepStatus
	json.NewDecoder(resp.Body).Decode(&again)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || again.State != SweepCanceled {
		t.Errorf("second DELETE: code %d state %s", resp.StatusCode, again.State)
	}
}

// TestSweepOverloadQueues runs a sweep several times larger than the
// queue on a one-worker pool: the feeder must park and drip cells in
// as slots free, completing the sweep without a single rejection.
func TestSweepOverloadQueues(t *testing.T) {
	s, ts := newTestServer(t, Config{
		Workers: 1, QueueDepth: 1,
		Runner: func(ctx context.Context, kind d2m.Kind, bench string, opt d2m.Options) (d2m.Result, error) {
			time.Sleep(time.Millisecond)
			return stubResult(kind, bench, opt), nil
		},
	})
	code, st := postSweep(t, ts,
		`{"kinds":["base-2l","d2m-ns"],"benchmarks":["tpc-c","canneal","facesim"]}`)
	if code != http.StatusAccepted {
		t.Fatalf("POST /v1/sweeps = %d", code)
	}
	final := waitSweep(t, ts, st.ID, 30*time.Second)
	if final.State != SweepDone || final.Done != 6 || final.Failed != 0 {
		t.Fatalf("final: %+v", final)
	}
	if got := s.Metrics().JobsRejected.Load(); got != 0 {
		t.Errorf("rejected = %d, want 0 (sweeps queue, they don't error)", got)
	}
}

// TestSweepRestartResume kills a server mid-sweep and restarts it with
// the same store path: the completed cells must be served from the
// replayed store (visible in /metrics) and only the unfinished ones
// simulated again.
func TestSweepRestartResume(t *testing.T) {
	path := filepath.Join(t.TempDir(), "results.jsonl")
	sweepBody := `{"kinds":["base-2l","d2m-ns-r"],"benchmarks":["tpc-c","canneal","facesim"]}`

	// Phase 1: tpc-c and canneal cells finish instantly; facesim cells
	// block until the shutdown deadline cancels them.
	s1, err := New(Config{
		Workers: 2, StorePath: path,
		Runner: func(ctx context.Context, kind d2m.Kind, bench string, opt d2m.Options) (d2m.Result, error) {
			if bench == "facesim" {
				<-ctx.Done()
				return d2m.Result{}, ctx.Err()
			}
			return stubResult(kind, bench, opt), nil
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	ts1 := httptest.NewServer(s1.Handler())
	code, _ := postSweep(t, ts1, sweepBody)
	if code != http.StatusAccepted {
		t.Fatalf("phase 1 POST /v1/sweeps = %d", code)
	}
	deadline := time.Now().Add(10 * time.Second)
	for s1.Metrics().StoreAppended.Load() != 4 {
		if time.Now().After(deadline) {
			t.Fatalf("phase 1: %d cells persisted, want 4", s1.Metrics().StoreAppended.Load())
		}
		time.Sleep(time.Millisecond)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	s1.Shutdown(ctx) // deadline expires: the two blocked facesim cells are cancelled
	cancel()
	ts1.Close()

	// Phase 2: same store path, unblocked runner. The resubmitted sweep
	// must resume: four cells cached from the store, two simulated.
	var runs atomic.Int64
	s2, err := New(Config{
		Workers: 2, StorePath: path,
		Runner: func(ctx context.Context, kind d2m.Kind, bench string, opt d2m.Options) (d2m.Result, error) {
			runs.Add(1)
			if bench == "facesim" {
				return stubResult(kind, bench, opt), nil
			}
			t.Errorf("persisted cell %s/%s was simulated again", kind, bench)
			return stubResult(kind, bench, opt), nil
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	ts2 := httptest.NewServer(s2.Handler())
	t.Cleanup(func() {
		ts2.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		s2.Shutdown(ctx)
	})
	select {
	case <-s2.Ready(): // journal replay is asynchronous since v1.4
	case <-time.After(10 * time.Second):
		t.Fatal("server never became ready")
	}
	if got := s2.Metrics().StoreLoaded.Load(); got != 4 {
		t.Fatalf("store loaded = %d, want 4", got)
	}
	code, st := postSweep(t, ts2, sweepBody)
	if code != http.StatusAccepted {
		t.Fatalf("phase 2 POST /v1/sweeps = %d", code)
	}
	final := waitSweep(t, ts2, st.ID, 10*time.Second)
	if final.State != SweepDone || final.Done != 6 || final.Cached != 4 {
		t.Fatalf("resumed sweep: %+v", final)
	}
	if got := runs.Load(); got != 2 {
		t.Errorf("phase 2 simulations = %d, want 2 (only the unfinished cells)", got)
	}
	if final.Summary == nil || len(final.Summary.Kinds) != 2 {
		t.Fatalf("resumed summary: %+v", final.Summary)
	}

	// The acceptance check reads the cell-run counters off /metrics.
	resp, err := http.Get(ts2.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	raw := new(bytes.Buffer)
	raw.ReadFrom(resp.Body)
	resp.Body.Close()
	for _, want := range []string{
		"d2m_store_loaded_total 4",
		"d2m_sweep_cells_cached_total 4",
		"d2m_jobs_done_total 2",
	} {
		if !strings.Contains(raw.String(), want) {
			t.Errorf("/metrics missing %q", want)
		}
	}
}

// TestSweepValidation checks the request-level error envelope on
// POST /v1/sweeps and 404s for unknown sweep ids.
// overflowSweepBody is a ~40 KB grid with 1,024 entries on each of the
// seven axes: 1024^7 = 2^70 cells, a product that wraps a 64-bit int
// to exactly 0.
func overflowSweepBody() string {
	axis := func(v string) string {
		return "[" + strings.TrimSuffix(strings.Repeat(v+",", 1024), ",") + "]"
	}
	return `{"kinds":` + axis(`"base-2l"`) + `,"benchmarks":` + axis(`"fft"`) +
		`,"seeds":` + axis("0") + `,"topologies":` + axis(`"ring"`) + `,"placements":` + axis(`"local"`) +
		`,"md_scales":` + axis("1") + `,"link_bandwidths":` + axis("0") + `}`
}

func TestSweepValidation(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1,
		Runner: func(ctx context.Context, kind d2m.Kind, bench string, opt d2m.Options) (d2m.Result, error) {
			t.Error("runner invoked for an invalid sweep")
			return d2m.Result{}, nil
		},
	})
	cases := []struct {
		name, body string
		code       api.ErrCode
	}{
		{"no kinds", `{"kinds":[],"benchmarks":["tpc-c"]}`, api.ErrInvalidRequest},
		{"no benchmarks", `{"kinds":["base-2l"],"benchmarks":[]}`, api.ErrInvalidRequest},
		{"unknown kind", `{"kinds":["d2m-xl"],"benchmarks":["tpc-c"]}`, api.ErrInvalidRequest},
		{"unknown benchmark", `{"kinds":["base-2l"],"benchmarks":["nonesuch"]}`, api.ErrUnknownBenchmark},
		{"mix on odd nodes", `{"kinds":["base-2l"],"benchmarks":["mix:tpc-c+fft"],"nodes":3}`, api.ErrInvalidRequest},
		{"mix cell on odd nodes", `{"cells":[{"kind":"base-2l","benchmark":"mix:tpc-c+fft","options":{"Nodes":3}}]}`, api.ErrInvalidRequest},
		{"unknown field", `{"kinds":["base-2l"],"benchmarks":["tpc-c"],"bogus":1}`, api.ErrInvalidRequest},
		{"baseline outside kinds", `{"kinds":["d2m-ns"],"benchmarks":["tpc-c"],"baseline":"base-2l"}`, api.ErrInvalidRequest},
		{"over cell cap", `{"kinds":["base-2l","d2m-ns"],"benchmarks":["tpc-c"],"seeds":[1,2,3],"max_cells":4}`, api.ErrInvalidRequest},
		{"bad option axis", `{"kinds":["base-2l"],"benchmarks":["tpc-c"],"md_scales":[3]}`, api.ErrInvalidRequest},
		{"overflowing axes", overflowSweepBody(), api.ErrInvalidRequest},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			resp, err := http.Post(ts.URL+"/v1/sweeps", "application/json", strings.NewReader(tc.body))
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
		})
	}

	for _, method := range []string{"GET", "DELETE"} {
		req, _ := http.NewRequest(method, ts.URL+"/v1/sweeps/nonesuch", nil)
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		var eb api.ErrorBody
		json.NewDecoder(resp.Body).Decode(&eb)
		resp.Body.Close()
		if resp.StatusCode != http.StatusNotFound || eb.Error.Code != api.ErrNotFound {
			t.Errorf("%s unknown sweep: code %d envelope %q", method, resp.StatusCode, eb.Error.Code)
		}
	}
}

// TestSweepSharesCacheWithRuns pre-runs one cell through POST /v1/run
// and checks the sweep picks it up from the cache instead of
// simulating it again.
func TestSweepSharesCacheWithRuns(t *testing.T) {
	var runs atomic.Int64
	s, ts := newTestServer(t, Config{Workers: 1,
		Runner: func(ctx context.Context, kind d2m.Kind, bench string, opt d2m.Options) (d2m.Result, error) {
			runs.Add(1)
			return stubResult(kind, bench, opt), nil
		},
	})
	if code, _, _ := postRun(t, ts, `{"kind":"base-2l","benchmark":"tpc-c"}`); code != http.StatusOK {
		t.Fatalf("warm-up run failed: %d", code)
	}
	code, st := postSweep(t, ts, `{"kinds":["base-2l"],"benchmarks":["tpc-c","canneal"]}`)
	if code != http.StatusAccepted {
		t.Fatalf("POST /v1/sweeps = %d", code)
	}
	final := waitSweep(t, ts, st.ID, 10*time.Second)
	if final.State != SweepDone || final.Done != 2 || final.Cached != 1 {
		t.Fatalf("final: %+v", final)
	}
	if got := runs.Load(); got != 2 { // warm-up + the one uncached cell
		t.Errorf("runner invoked %d times, want 2", got)
	}
	if got := s.Metrics().SweepCellsCached.Load(); got != 1 {
		t.Errorf("cached cells = %d, want 1", got)
	}
}

// TestSweepDrainingRefused checks POST /v1/sweeps during a drain gets
// the draining envelope, like POST /v1/run.
func TestSweepDrainingRefused(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 1})
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := s.Shutdown(ctx); err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(ts.URL+"/v1/sweeps", "application/json",
		strings.NewReader(`{"kinds":["base-2l"],"benchmarks":["tpc-c"]}`))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var eb api.ErrorBody
	if err := json.NewDecoder(resp.Body).Decode(&eb); err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusServiceUnavailable || eb.Error.Code != api.ErrDraining {
		t.Errorf("draining sweep POST: code %d envelope %q", resp.StatusCode, eb.Error.Code)
	}
}

// TestSweepETAProgress checks the in-flight status report: done counts
// climb and an ETA appears once a cell latency has been observed.
func TestSweepETAProgress(t *testing.T) {
	release := make(chan struct{})
	var gate atomic.Int64
	_, ts := newTestServer(t, Config{Workers: 1,
		Runner: func(ctx context.Context, kind d2m.Kind, bench string, opt d2m.Options) (d2m.Result, error) {
			if gate.Add(1) > 2 { // hold the third cell so the sweep stays running
				select {
				case <-release:
				case <-ctx.Done():
				}
			}
			return stubResult(kind, bench, opt), nil
		},
	})
	defer close(release)
	code, st := postSweep(t, ts,
		`{"kinds":["base-2l"],"benchmarks":["tpc-c","canneal","facesim"]}`)
	if code != http.StatusAccepted {
		t.Fatalf("POST /v1/sweeps = %d", code)
	}
	deadline := time.Now().Add(5 * time.Second)
	for {
		cur := getSweep(t, ts, st.ID)
		if cur.State == SweepRunning && cur.Done == 2 {
			if cur.ETAMS <= 0 {
				t.Errorf("running sweep with %d done cells has no ETA: %+v", cur.Done, cur)
			}
			if cur.ElapsedMS <= 0 {
				t.Errorf("running sweep has no elapsed time: %+v", cur)
			}
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("sweep never reached 2 done cells while running: %+v", cur)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestSweepSpecTimeout checks timeout_ms applies per cell: a sweep of
// never-finishing cells settles with every cell canceled.
func TestSweepSpecTimeout(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 2,
		Runner: func(ctx context.Context, kind d2m.Kind, bench string, opt d2m.Options) (d2m.Result, error) {
			<-ctx.Done()
			return d2m.Result{}, ctx.Err()
		},
	})
	code, st := postSweep(t, ts,
		`{"kinds":["base-2l"],"benchmarks":["tpc-c","canneal"],"timeout_ms":5}`)
	if code != http.StatusAccepted {
		t.Fatalf("POST /v1/sweeps = %d", code)
	}
	final := waitSweep(t, ts, st.ID, 10*time.Second)
	// Cells timed out individually; the sweep itself ran to completion.
	if final.State != SweepDone || final.Done != 0 || final.Canceled != 2 {
		t.Fatalf("final: %+v", final)
	}
}

// TestFinalizeSweepRetiresFirst: a sweep enters the bounded history
// before its settled state is published, so a caller that sees the
// newest sweep settle never still finds the oldest one listed. The test
// holds the history lock while the sweep finalizes; the settle must
// wait for it rather than publish first. A settle that publishes before
// retiring fails here whenever it reaches close(doneCh) within the
// grace period; a correct one can never fail.
func TestFinalizeSweepRetiresFirst(t *testing.T) {
	f := newFront(nil, &Metrics{}, 1, 1)
	defer f.baseCancel()
	mk := func(id string) *sweep {
		sw := &sweep{id: id, doneCh: make(chan struct{}), eventsCh: make(chan struct{}), state: SweepRunning}
		sw.ctx, sw.cancel = context.WithCancel(f.baseCtx)
		f.sweeps[id] = sw
		return sw
	}
	mk("s1")
	f.sweepRetired = []string{"s1"}
	sw := mk("s2")

	f.mu.Lock()
	go f.finalizeSweep(sw)
	select {
	case <-sw.doneCh:
		f.mu.Unlock()
		t.Fatal("sweep published as settled before it entered the history")
	case <-time.After(50 * time.Millisecond):
	}
	f.mu.Unlock()
	<-sw.doneCh
	f.mu.Lock()
	_, listed := f.sweeps["s1"]
	f.mu.Unlock()
	if listed || sw.status(1).State != SweepDone {
		t.Fatalf("after s2 settled: s1 listed = %v, s2 state %q", listed, sw.status(1).State)
	}
}

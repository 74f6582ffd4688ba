package cluster

import (
	"bytes"
	"context"
	"d2m/internal/api"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"d2m"
	"d2m/internal/service"
)

// newShard starts one real scheduler shard over httptest and returns
// it as a cluster peer.
func newShard(t *testing.T, name string, cfg service.Config) (Peer, *service.Server, *httptest.Server) {
	t.Helper()
	s, err := service.New(cfg)
	if err != nil {
		t.Fatalf("shard %s: %v", name, err)
	}
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		ts.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		s.Shutdown(ctx)
	})
	select {
	case <-s.Ready():
	case <-time.After(5 * time.Second):
		t.Fatalf("shard %s never became ready", name)
	}
	return Peer{Name: name, URL: ts.URL}, s, ts
}

// newGatewayServer starts a gateway over the given peers with a
// test-friendly probe cadence.
func newGatewayServer(t *testing.T, cfg Config) (*Gateway, *httptest.Server) {
	t.Helper()
	if cfg.ProbeInterval == 0 {
		cfg.ProbeInterval = 100 * time.Millisecond
	}
	g, err := New(cfg)
	if err != nil {
		t.Fatalf("gateway: %v", err)
	}
	ts := httptest.NewServer(g.Handler())
	t.Cleanup(func() {
		ts.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		g.Shutdown(ctx)
	})
	return g, ts
}

func postJSON(t *testing.T, url, body string) (int, []byte, http.Header) {
	t.Helper()
	resp, err := http.Post(url, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatalf("POST %s: %v", url, err)
	}
	defer resp.Body.Close()
	raw, _ := io.ReadAll(resp.Body)
	return resp.StatusCode, raw, resp.Header
}

func getJSON(t *testing.T, url string) (int, []byte) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	defer resp.Body.Close()
	raw, _ := io.ReadAll(resp.Body)
	return resp.StatusCode, raw
}

// stubRunner returns a deterministic fake result after an optional
// delay, counting invocations.
func stubRunner(count *atomic.Int64, delay time.Duration) func(context.Context, d2m.Kind, string, d2m.Options) (d2m.Result, error) {
	return func(ctx context.Context, kind d2m.Kind, bench string, opt d2m.Options) (d2m.Result, error) {
		count.Add(1)
		if delay > 0 {
			select {
			case <-time.After(delay):
			case <-ctx.Done():
				return d2m.Result{}, ctx.Err()
			}
		}
		return d2m.Result{Kind: kind, Benchmark: bench, Cycles: 1000 + opt.Seed}, nil
	}
}

// TestClusterRunMatchesSingle: results forwarded through a 2-shard
// gateway are byte-identical to the same simulations on a standalone
// server (determinism survives the extra hop and the sharding).
func TestClusterRunMatchesSingle(t *testing.T) {
	pa, _, _ := newShard(t, "a", service.Config{Workers: 1})
	pb, _, _ := newShard(t, "b", service.Config{Workers: 1})
	_, gts := newGatewayServer(t, Config{Peers: []Peer{pa, pb}})

	bodies := []string{
		`{"kind":"d2m-ns-r","benchmark":"tpc-c","nodes":2,"warmup":2000,"measure":8000,"seed":7}`,
		`{"kind":"base-2l","benchmark":"tpc-c","nodes":2,"warmup":2000,"measure":8000,"seed":7}`,
		`{"kind":"d2m-fs","benchmark":"canneal","nodes":2,"warmup":2000,"measure":6000,"seed":3}`,
	}
	for _, body := range bodies {
		code, gotRaw, _ := postJSON(t, gts.URL+"/v1/run", body)
		if code != http.StatusOK {
			t.Fatalf("gateway POST = %d (%s)", code, gotRaw)
		}
		var got api.JobStatus
		if err := json.Unmarshal(gotRaw, &got); err != nil {
			t.Fatal(err)
		}

		var req api.RunRequest
		if err := json.Unmarshal([]byte(body), &req); err != nil {
			t.Fatal(err)
		}
		kind, bench, opt, _, _, err := req.Normalize()
		if err != nil {
			t.Fatal(err)
		}
		want, err := d2m.Run(context.Background(), d2m.RunSpec{Kind: kind, Benchmark: bench, Options: opt})
		if err != nil {
			t.Fatal(err)
		}
		gotJSON, _ := json.Marshal(got.Result)
		wantJSON, _ := json.Marshal(want.Result)
		if !bytes.Equal(gotJSON, wantJSON) {
			t.Errorf("gateway result differs from library run:\n got %s\nwant %s", gotJSON, wantJSON)
		}
	}
}

// TestClusterWarmIdentityRouting: every run of one warm identity lands
// on the same shard, and a repeated submission is served from the
// gateway cache without another forward.
func TestClusterWarmIdentityRouting(t *testing.T) {
	var runsA, runsB atomic.Int64
	pa, _, _ := newShard(t, "a", service.Config{Workers: 1, Runner: stubRunner(&runsA, 0)})
	pb, _, _ := newShard(t, "b", service.Config{Workers: 1, Runner: stubRunner(&runsB, 0)})
	g, gts := newGatewayServer(t, Config{Peers: []Peer{pa, pb}})

	// Same warm identity (seed varies only the cache key's replicate
	// count... seed is part of warm identity, so vary link_bandwidth
	// instead: outside the warm key, distinct cache keys).
	for i := 0; i < 4; i++ {
		body := fmt.Sprintf(`{"kind":"d2m-ns-r","benchmark":"tpc-c","nodes":2,"link_bandwidth":%.9f}`, 0.001+float64(i+1)*1e-9)
		code, raw, _ := postJSON(t, gts.URL+"/v1/run", body)
		if code != http.StatusOK {
			t.Fatalf("POST = %d (%s)", code, raw)
		}
	}
	a, b := runsA.Load(), runsB.Load()
	if a != 0 && b != 0 {
		t.Errorf("one warm identity split across shards: a=%d b=%d", a, b)
	}
	if a+b != 4 {
		t.Errorf("runs = %d, want 4", a+b)
	}

	// Exact repeat: gateway cache, no new forward.
	before := g.metrics.RunsForwarded.Load()
	body := `{"kind":"d2m-ns-r","benchmark":"tpc-c","nodes":2,"link_bandwidth":0.001000001}`
	code, raw, _ := postJSON(t, gts.URL+"/v1/run", body)
	var st api.JobStatus
	json.Unmarshal(raw, &st)
	if code != http.StatusOK || !st.Cached {
		t.Fatalf("repeat POST = %d cached=%v (%s)", code, st.Cached, raw)
	}
	if got := g.metrics.RunsForwarded.Load(); got != before {
		t.Errorf("repeat submission forwarded anyway (%d -> %d)", before, got)
	}
}

// TestGatewayCachesNoReplicatedRun: the gateway cache holds single runs
// only. A replicated run is forwarded every time, and the owning shard
// answers the repeat from its seed cache; a replicated sweep's cells
// are not cached either.
func TestGatewayCachesNoReplicatedRun(t *testing.T) {
	var runs atomic.Int64
	pa, _, _ := newShard(t, "a", service.Config{Workers: 1, Runner: stubRunner(&runs, 0)})
	pb, _, _ := newShard(t, "b", service.Config{Workers: 1, Runner: stubRunner(&runs, 0)})
	g, gts := newGatewayServer(t, Config{Peers: []Peer{pa, pb}})

	const body = `{"kind":"d2m-ns-r","benchmark":"tpc-c","nodes":2,"seed":4,"replicates":3}`
	for i := 0; i < 2; i++ {
		before := g.metrics.RunsForwarded.Load()
		code, raw, _ := postJSON(t, gts.URL+"/v1/run", body)
		var st api.JobStatus
		json.Unmarshal(raw, &st)
		if code != http.StatusOK || st.Replicated == nil || st.Replicated.N != 3 || st.Cached != (i == 1) {
			t.Fatalf("POST %d = %d cached=%v (%s)", i, code, st.Cached, raw)
		}
		if g.metrics.RunsForwarded.Load() != before+1 {
			t.Errorf("POST %d was not forwarded", i)
		}
	}
	if got := runs.Load(); got != 3 {
		t.Errorf("shards ran %d simulations, want 3 (one per seed)", got)
	}
	code, raw, _ := postJSON(t, gts.URL+"/v1/sweeps", `{"kinds":["d2m-ns-r"],"benchmarks":["canneal"],"nodes":2,"replicates":2}`)
	if code != http.StatusAccepted {
		t.Fatalf("sweep = %d (%s)", code, raw)
	}
	var sw service.SweepStatus
	json.Unmarshal(raw, &sw)
	if final := waitGatewaySweep(t, gts.URL+"/v1/sweeps/"+sw.ID, ""); final.Done != 1 {
		t.Fatalf("sweep settled %+v", final)
	}
	if n := g.cache.Len(); n != 0 {
		t.Errorf("gateway cache holds %d entries after replicated traffic only, want 0", n)
	}
}

// TestClusterAsyncJobRouting: async submissions come back with a
// routable <id>@<shard> id that GET and DELETE resolve through the
// gateway.
func TestClusterAsyncJobRouting(t *testing.T) {
	var runs atomic.Int64
	pa, _, _ := newShard(t, "a", service.Config{Workers: 1, Runner: stubRunner(&runs, 20*time.Millisecond)})
	_, gts := newGatewayServer(t, Config{Peers: []Peer{pa}})

	code, raw, _ := postJSON(t, gts.URL+"/v1/run",
		`{"kind":"d2m-ns-r","benchmark":"tpc-c","nodes":2,"async":true}`)
	if code != http.StatusAccepted {
		t.Fatalf("async POST = %d (%s)", code, raw)
	}
	var st api.JobStatus
	if err := json.Unmarshal(raw, &st); err != nil {
		t.Fatal(err)
	}
	if !strings.HasSuffix(st.ID, "@a") {
		t.Fatalf("async id %q not routed", st.ID)
	}
	deadline := time.Now().Add(5 * time.Second)
	for {
		code, raw = getJSON(t, gts.URL+"/v1/jobs/"+st.ID)
		if code != http.StatusOK {
			t.Fatalf("GET job = %d (%s)", code, raw)
		}
		var cur api.JobStatus
		json.Unmarshal(raw, &cur)
		if cur.State == api.JobDone {
			if cur.ID != st.ID {
				t.Errorf("status id %q, want %q", cur.ID, st.ID)
			}
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("job never finished: %s", raw)
		}
		time.Sleep(5 * time.Millisecond)
	}

	// Unknown and unroutable ids 404.
	if code, _ := getJSON(t, gts.URL+"/v1/jobs/j999"); code != http.StatusNotFound {
		t.Errorf("unrouted id = %d, want 404", code)
	}
	if code, _ := getJSON(t, gts.URL+"/v1/jobs/j1@nosuch"); code != http.StatusNotFound {
		t.Errorf("unknown shard id = %d, want 404", code)
	}

	// The merged listing shows the routed id.
	code, raw = getJSON(t, gts.URL+"/v1/jobs")
	if code != http.StatusOK {
		t.Fatalf("GET /v1/jobs = %d", code)
	}
	if !strings.Contains(string(raw), "@a") {
		t.Errorf("merged listing lacks routed ids: %s", raw)
	}
}

// TestClusterJobsPageAcrossShards: walking the gateway's merged job
// listing by next_cursor at a small limit yields every job of a
// two-shard fleet exactly once, newest first, whether a page ends on
// either shard's job.
func TestClusterJobsPageAcrossShards(t *testing.T) {
	var runs atomic.Int64
	pa, _, tsa := newShard(t, "a", service.Config{Workers: 1, Runner: stubRunner(&runs, 0)})
	pb, _, tsb := newShard(t, "b", service.Config{Workers: 1, Runner: stubRunner(&runs, 0)})
	_, gts := newGatewayServer(t, Config{Peers: []Peer{pa, pb}})

	// Five jobs on a and three on b, submitted to the shards directly.
	for i, url := range []string{tsa.URL, tsa.URL, tsa.URL, tsa.URL, tsa.URL, tsb.URL, tsb.URL, tsb.URL} {
		body := fmt.Sprintf(`{"kind":"d2m-ns-r","benchmark":"tpc-c","nodes":2,"seed":%d}`, i+1)
		if code, raw, _ := postJSON(t, url+"/v1/run", body); code != http.StatusOK {
			t.Fatalf("POST = %d (%s)", code, raw)
		}
	}
	want := []string{"j00000005@a", "j00000004@a", "j00000003@b", "j00000003@a",
		"j00000002@b", "j00000002@a", "j00000001@b", "j00000001@a"}
	for _, limit := range []int{1, 2, 3, 8} {
		var got []string
		cursor := ""
		for page := 0; page <= len(want); page++ {
			code, raw := getJSON(t, fmt.Sprintf("%s/v1/jobs?limit=%d&cursor=%s", gts.URL, limit, cursor))
			if code != http.StatusOK {
				t.Fatalf("limit %d: GET /v1/jobs = %d (%s)", limit, code, raw)
			}
			var list service.JobList
			if err := json.Unmarshal(raw, &list); err != nil {
				t.Fatal(err)
			}
			for _, j := range list.Jobs {
				got = append(got, j.ID)
			}
			if cursor = list.NextCursor; cursor == "" {
				break
			}
		}
		if strings.Join(got, " ") != strings.Join(want, " ") {
			t.Errorf("limit %d: pages listed %v, want %v", limit, got, want)
		}
	}
}

// TestClusterBatchAcrossShards: a batch splits into shard-local
// sub-batches and reassembles in request order, with cached slots
// served at the gateway.
func TestClusterBatchAcrossShards(t *testing.T) {
	var runsA, runsB atomic.Int64
	pa, _, _ := newShard(t, "a", service.Config{Workers: 1, Runner: stubRunner(&runsA, 0)})
	pb, _, _ := newShard(t, "b", service.Config{Workers: 1, Runner: stubRunner(&runsB, 0)})
	_, gts := newGatewayServer(t, Config{Peers: []Peer{pa, pb}})

	var runs []string
	for i := 0; i < 8; i++ {
		runs = append(runs, fmt.Sprintf(
			`{"kind":"d2m-ns-r","benchmark":"tpc-c","nodes":2,"seed":%d}`, i+1))
	}
	body := `{"runs":[` + strings.Join(runs, ",") + `]}`
	code, raw, _ := postJSON(t, gts.URL+"/v1/batch", body)
	if code != http.StatusOK {
		t.Fatalf("batch POST = %d (%s)", code, raw)
	}
	var out struct {
		Results []api.JobStatus `json:"results"`
	}
	if err := json.Unmarshal(raw, &out); err != nil {
		t.Fatal(err)
	}
	if len(out.Results) != 8 {
		t.Fatalf("batch results = %d, want 8", len(out.Results))
	}
	for i, st := range out.Results {
		if st.State != api.JobDone || st.Result == nil {
			t.Fatalf("results[%d]: state %s", i, st.State)
		}
		if st.Result.Cycles != uint64(1000+i+1) {
			t.Errorf("results[%d] out of order: cycles %d", i, st.Result.Cycles)
		}
	}
	if runsA.Load() == 0 || runsB.Load() == 0 {
		t.Logf("batch landed entirely on one shard (a=%d b=%d) — legal but unusual", runsA.Load(), runsB.Load())
	}

	// Resubmitting the same batch is served wholly from the gateway
	// cache: no new simulations anywhere.
	a0, b0 := runsA.Load(), runsB.Load()
	code, raw, _ = postJSON(t, gts.URL+"/v1/batch", body)
	if code != http.StatusOK {
		t.Fatalf("repeat batch = %d", code)
	}
	json.Unmarshal(raw, &out)
	for i, st := range out.Results {
		if !st.Cached {
			t.Errorf("repeat results[%d] not cached", i)
		}
	}
	if runsA.Load() != a0 || runsB.Load() != b0 {
		t.Errorf("repeat batch re-simulated: a %d->%d, b %d->%d", a0, runsA.Load(), b0, runsB.Load())
	}

	// Batch validation is all-or-nothing at the gateway: one bad run
	// rejects the whole batch before anything is forwarded.
	code, raw, _ = postJSON(t, gts.URL+"/v1/batch",
		`{"runs":[{"kind":"d2m-ns-r","benchmark":"tpc-c","nodes":2},{"kind":"bogus","benchmark":"tpc-c"}]}`)
	if code != http.StatusBadRequest {
		t.Errorf("bad batch = %d, want 400 (%s)", code, raw)
	}
}

// TestClusterBatchOverloadRelays429: a shard rejecting its sub-batch
// under backpressure surfaces as a 429 with Retry-After at the
// gateway — the all-or-nothing contract composes across the fleet.
func TestClusterBatchOverloadRelays429(t *testing.T) {
	var runs atomic.Int64
	pa, _, _ := newShard(t, "a", service.Config{
		Workers: 1, QueueDepth: 1, Runner: stubRunner(&runs, 200*time.Millisecond),
	})
	_, gts := newGatewayServer(t, Config{Peers: []Peer{pa}})

	// Occupy the worker and the queue slot.
	for i := 0; i < 2; i++ {
		code, raw, _ := postJSON(t, gts.URL+"/v1/run",
			fmt.Sprintf(`{"kind":"d2m-ns-r","benchmark":"tpc-c","nodes":2,"seed":%d,"async":true}`, 100+i))
		if code != http.StatusAccepted {
			t.Fatalf("setup POST = %d (%s)", code, raw)
		}
	}
	var runsJSON []string
	for i := 0; i < 4; i++ {
		runsJSON = append(runsJSON, fmt.Sprintf(
			`{"kind":"d2m-ns-r","benchmark":"tpc-c","nodes":2,"seed":%d}`, 200+i))
	}
	code, raw, hdr := postJSON(t, gts.URL+"/v1/batch", `{"runs":[`+strings.Join(runsJSON, ",")+`]}`)
	if code != http.StatusTooManyRequests {
		t.Fatalf("overloaded batch = %d, want 429 (%s)", code, raw)
	}
	if hdr.Get("Retry-After") == "" {
		t.Error("429 lost its Retry-After through the gateway")
	}
	var eb api.ErrorBody
	if err := json.Unmarshal(raw, &eb); err != nil || eb.Error.Code != api.ErrOverloaded {
		t.Errorf("429 body = %s", raw)
	}
}

// TestClusterSweepMatchesSingle: a fleet sweep's summary is
// byte-identical to the same sweep on a standalone server — the grid
// expands once at the gateway and the aggregation runs over the same
// cell grid in the same order.
func TestClusterSweepMatchesSingle(t *testing.T) {
	sweepBody := `{"kinds":["base-2l","d2m-ns-r"],"benchmarks":["tpc-c"],"nodes":2,"warmup":2000,"measure":6000}`

	runSweep := func(base string) []byte {
		code, raw, _ := postJSON(t, base+"/v1/sweeps", sweepBody)
		if code != http.StatusAccepted {
			t.Fatalf("sweep POST = %d (%s)", code, raw)
		}
		var st service.SweepStatus
		if err := json.Unmarshal(raw, &st); err != nil {
			t.Fatal(err)
		}
		deadline := time.Now().Add(30 * time.Second)
		for {
			code, raw = getJSON(t, base+"/v1/sweeps/"+st.ID)
			if code != http.StatusOK {
				t.Fatalf("sweep GET = %d (%s)", code, raw)
			}
			var cur service.SweepStatus
			if err := json.Unmarshal(raw, &cur); err != nil {
				t.Fatal(err)
			}
			if cur.State == service.SweepDone {
				if cur.Failed != 0 || cur.Canceled != 0 {
					t.Fatalf("sweep settled with failures: %s", raw)
				}
				out, _ := json.Marshal(cur.Summary)
				return out
			}
			if cur.State == service.SweepCanceled {
				t.Fatalf("sweep canceled: %s", raw)
			}
			if time.Now().After(deadline) {
				t.Fatalf("sweep never settled: %s", raw)
			}
			time.Sleep(10 * time.Millisecond)
		}
	}

	_, _, singleTS := newShard(t, "single", service.Config{Workers: 1})
	want := runSweep(singleTS.URL)

	pa, _, _ := newShard(t, "a", service.Config{Workers: 1})
	pb, _, _ := newShard(t, "b", service.Config{Workers: 1})
	_, gts := newGatewayServer(t, Config{Peers: []Peer{pa, pb}})
	got := runSweep(gts.URL)

	if !bytes.Equal(got, want) {
		t.Errorf("fleet sweep summary differs from single-process:\n got %s\nwant %s", got, want)
	}
}

// TestClusterSweepSurvivesDrain: draining a shard mid-sweep remaps its
// unfinished cells onto the remaining fleet and the sweep completes.
func TestClusterSweepSurvivesDrain(t *testing.T) {
	var runsA, runsB atomic.Int64
	pa, _, tsA := newShard(t, "a", service.Config{Workers: 1, Runner: stubRunner(&runsA, 30*time.Millisecond)})
	pb, _, tsB := newShard(t, "b", service.Config{Workers: 1, Runner: stubRunner(&runsB, 30*time.Millisecond)})
	g, gts := newGatewayServer(t, Config{Peers: []Peer{pa, pb}, ProbeInterval: 50 * time.Millisecond})

	// 12 cells across both shards, ~30ms each on a single worker: the
	// sweep stays in flight long enough to drain under it.
	sweepBody := `{"kinds":["base-2l","d2m-ns-r"],"benchmarks":["tpc-c","canneal","streamcluster"],"seeds":[1,2],"nodes":2,"warmup":2000,"measure":4000}`
	code, raw, _ := postJSON(t, gts.URL+"/v1/sweeps", sweepBody)
	if code != http.StatusAccepted {
		t.Fatalf("sweep POST = %d (%s)", code, raw)
	}
	var st service.SweepStatus
	json.Unmarshal(raw, &st)

	time.Sleep(40 * time.Millisecond) // let the first cells start
	drained := tsA
	if code, _, _ := postJSON(t, drained.URL+"/admin/drain", ""); code != http.StatusOK {
		t.Fatalf("drain POST = %d", code)
	}
	_ = tsB

	deadline := time.Now().Add(30 * time.Second)
	for {
		code, raw = getJSON(t, gts.URL+"/v1/sweeps/"+st.ID)
		if code != http.StatusOK {
			t.Fatalf("sweep GET = %d", code)
		}
		var cur service.SweepStatus
		json.Unmarshal(raw, &cur)
		if cur.State != service.SweepRunning {
			if cur.State != service.SweepDone || cur.Done != cur.Total {
				t.Fatalf("sweep settled %s with %d/%d done (%d failed, %d canceled): %s",
					cur.State, cur.Done, cur.Total, cur.Failed, cur.Canceled, raw)
			}
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("sweep never settled after drain: %s", raw)
		}
		time.Sleep(10 * time.Millisecond)
	}
	if g.peers.stateOf("a") != PeerDraining {
		t.Errorf("drained shard state = %s, want draining", g.peers.stateOf("a"))
	}
	if runsB.Load() == 0 {
		t.Error("surviving shard ran nothing")
	}
}

// TestClusterJournalMerge: two shard journals — one of them appended
// by a second process and then torn mid-record — merge at gateway
// startup into one warm result cache.
func TestClusterJournalMerge(t *testing.T) {
	dir := t.TempDir()
	pathA, pathB := dir+"/a.jsonl", dir+"/b.jsonl"

	var runs atomic.Int64
	runBodies := []string{
		`{"kind":"d2m-ns-r","benchmark":"tpc-c","nodes":2,"seed":1}`,
		`{"kind":"d2m-ns-r","benchmark":"tpc-c","nodes":2,"seed":2}`,
	}
	// First process on journal A.
	{
		pa, _, tsA := newShard(t, "a1", service.Config{Workers: 1, StorePath: pathA, Runner: stubRunner(&runs, 0)})
		_ = pa
		if code, raw, _ := postJSON(t, tsA.URL+"/v1/run", runBodies[0]); code != http.StatusOK {
			t.Fatalf("POST = %d (%s)", code, raw)
		}
	}
	// Second process appends to the same journal (replay + append-open).
	{
		pa, _, tsA := newShard(t, "a2", service.Config{Workers: 1, StorePath: pathA, Runner: stubRunner(&runs, 0)})
		_ = pa
		if code, raw, _ := postJSON(t, tsA.URL+"/v1/run", runBodies[1]); code != http.StatusOK {
			t.Fatalf("POST = %d (%s)", code, raw)
		}
	}
	// Shard B's journal, then a torn tail on A (a crash mid-append).
	{
		pb, _, tsB := newShard(t, "b1", service.Config{Workers: 1, StorePath: pathB, Runner: stubRunner(&runs, 0)})
		_ = pb
		if code, raw, _ := postJSON(t, tsB.URL+"/v1/run",
			`{"kind":"base-2l","benchmark":"tpc-c","nodes":2,"seed":3}`); code != http.StatusOK {
			t.Fatalf("POST = %d (%s)", code, raw)
		}
	}
	appendRaw(t, pathA, `{"key":"torn`)

	// The gateway merges both journals; its only peer is dead, so any
	// hit below is served purely from the merged cache.
	dead := Peer{Name: "dead", URL: "http://127.0.0.1:1"}
	g, gts := newGatewayServer(t, Config{Peers: []Peer{dead}, MergeStores: []string{pathA, pathB}})
	if got := g.metrics.StoreLoaded.Load(); got != 3 {
		t.Fatalf("StoreLoaded = %d, want 3 (torn tail must not count)", got)
	}
	for i, body := range append(runBodies, `{"kind":"base-2l","benchmark":"tpc-c","nodes":2,"seed":3}`) {
		code, raw, _ := postJSON(t, gts.URL+"/v1/run", body)
		var st api.JobStatus
		json.Unmarshal(raw, &st)
		if code != http.StatusOK || !st.Cached {
			t.Errorf("replayed run %d: code %d cached %v (%s)", i, code, st.Cached, raw)
		}
	}
	// A key nobody journaled cannot be served: no shard is alive.
	code, raw, _ := postJSON(t, gts.URL+"/v1/run",
		`{"kind":"d2m-ns-r","benchmark":"tpc-c","nodes":2,"seed":99}`)
	if code != http.StatusServiceUnavailable {
		t.Errorf("uncached run with dead fleet = %d, want 503 (%s)", code, raw)
	}
}

func appendRaw(t *testing.T, path, line string) {
	t.Helper()
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteString(line); err != nil {
		t.Fatal(err)
	}
	f.Close()
}

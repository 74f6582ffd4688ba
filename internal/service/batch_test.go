package service

import (
	"context"
	"d2m/internal/api"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"d2m"
)

// postBatch posts a body to /v1/batch and decodes the response (batch
// envelope on success, error envelope otherwise).
func postBatch(t *testing.T, ts *httptest.Server, body string) (int, batchBody, api.ErrorBody) {
	t.Helper()
	resp, err := http.Post(ts.URL+"/v1/batch", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatalf("POST /v1/batch: %v", err)
	}
	defer resp.Body.Close()
	var ok batchBody
	var bad api.ErrorBody
	if resp.StatusCode == http.StatusOK {
		if err := json.NewDecoder(resp.Body).Decode(&ok); err != nil {
			t.Fatalf("decode batch response: %v", err)
		}
	} else {
		if err := json.NewDecoder(resp.Body).Decode(&bad); err != nil {
			t.Fatalf("decode error response: %v", err)
		}
	}
	return resp.StatusCode, ok, bad
}

// TestBatchMixedCachedAndFresh posts a batch mixing a result-cache hit,
// two identical fresh runs (which must coalesce into one simulation),
// and a distinct fresh run — and checks the response preserves request
// order and runs each unique simulation once.
func TestBatchMixedCachedAndFresh(t *testing.T) {
	var runs atomic.Int64
	s, ts := newTestServer(t, Config{
		Workers: 2,
		Runner: func(ctx context.Context, kind d2m.Kind, bench string, opt d2m.Options) (d2m.Result, error) {
			runs.Add(1)
			return stubResult(kind, bench, opt), nil
		},
	})

	// Seed the result cache with one simulation.
	if code, _, _ := postRun(t, ts, `{"kind":"base-2l","benchmark":"tpc-c","nodes":2}`); code != http.StatusOK {
		t.Fatalf("warm-up post: %d", code)
	}

	body := `{"runs":[
		{"kind":"base-2l","benchmark":"tpc-c","nodes":2},
		{"kind":"d2m-fs","benchmark":"canneal","nodes":2},
		{"kind":"d2m-fs","benchmark":"canneal","nodes":2},
		{"kind":"d2m-ns","benchmark":"tpc-c","nodes":2}
	]}`
	code, ok, _ := postBatch(t, ts, body)
	if code != http.StatusOK {
		t.Fatalf("POST /v1/batch = %d", code)
	}
	if len(ok.Results) != 4 {
		t.Fatalf("results = %d, want 4", len(ok.Results))
	}
	wantBench := []string{"tpc-c", "canneal", "canneal", "tpc-c"}
	for i, st := range ok.Results {
		if st.Benchmark != wantBench[i] {
			t.Errorf("results[%d].benchmark = %q, want %q (order must match the request)", i, st.Benchmark, wantBench[i])
		}
		if st.State != api.JobDone || st.Result == nil {
			t.Errorf("results[%d]: state %s, result nil = %v", i, st.State, st.Result == nil)
		}
	}
	if !ok.Results[0].Cached {
		t.Error("results[0] was pre-cached but not marked cached")
	}
	if got := runs.Load(); got != 3 {
		t.Errorf("runner invoked %d times, want 3 (warm-up + two unique batch runs)", got)
	}
	if got := s.Metrics().Coalesced.Load(); got != 1 {
		t.Errorf("coalesced = %d, want 1 (duplicate within the batch)", got)
	}
	if got := s.Metrics().BatchesAccepted.Load(); got != 1 {
		t.Errorf("batches accepted = %d, want 1", got)
	}
	if got := s.Metrics().BatchRuns.Load(); got != 4 {
		t.Errorf("batch runs = %d, want 4", got)
	}
}

// TestBatchValidation covers the request-level rejections: empty and
// oversized batches, async runs, and invalid run parameters (which
// must identify the offending index).
func TestBatchValidation(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1})

	cases := []struct {
		name, body, wantFragment string
		wantCode                 int
	}{
		{"empty", `{"runs":[]}`, "no runs", http.StatusBadRequest},
		{"async", `{"runs":[{"kind":"base-2l","benchmark":"tpc-c","async":true}]}`,
			"runs[0]", http.StatusBadRequest},
		{"bad kind", `{"runs":[{"kind":"base-2l","benchmark":"tpc-c"},{"kind":"nope","benchmark":"tpc-c"}]}`,
			"runs[1]", http.StatusBadRequest},
		{"bad benchmark", `{"runs":[{"kind":"base-2l","benchmark":"nope"}]}`,
			"/v1/capabilities", http.StatusBadRequest},
	}
	for _, tc := range cases {
		code, _, bad := postBatch(t, ts, tc.body)
		if code != tc.wantCode {
			t.Errorf("%s: code = %d, want %d", tc.name, code, tc.wantCode)
		}
		if !strings.Contains(bad.Error.Message, tc.wantFragment) {
			t.Errorf("%s: error %q missing %q", tc.name, bad.Error.Message, tc.wantFragment)
		}
	}

	var sb strings.Builder
	sb.WriteString(`{"runs":[`)
	for i := 0; i <= MaxBatchRuns; i++ {
		if i > 0 {
			sb.WriteString(",")
		}
		fmt.Fprintf(&sb, `{"kind":"base-2l","benchmark":"tpc-c","seed":%d}`, i)
	}
	sb.WriteString(`]}`)
	code, _, bad := postBatch(t, ts, sb.String())
	if code != http.StatusBadRequest || !strings.Contains(bad.Error.Message, "limit") {
		t.Errorf("oversized batch: %d %q, want 400 mentioning the limit", code, bad.Error.Message)
	}
}

// TestBatchAllOrNothing fills the queue and checks a batch that does
// not fit whole is rejected without admitting any of its runs.
func TestBatchAllOrNothing(t *testing.T) {
	block := make(chan struct{})
	s, ts := newTestServer(t, Config{
		Workers: 1, QueueDepth: 1,
		Runner: func(ctx context.Context, kind d2m.Kind, bench string, opt d2m.Options) (d2m.Result, error) {
			<-block
			return stubResult(kind, bench, opt), nil
		},
	})
	defer close(block)

	// Occupy the worker and the single queue slot. A filler can race
	// the worker's claim and bounce 429 off the momentarily-full
	// one-slot queue, so keep feeding fresh seeds until both are held.
	seed := 0
	launch := func() {
		body := fmt.Sprintf(`{"kind":"base-2l","benchmark":"tpc-c","seed":%d}`, seed)
		seed++
		go func() {
			resp, err := http.Post(ts.URL+"/v1/run", "application/json", strings.NewReader(body))
			if err == nil {
				resp.Body.Close()
			}
		}()
	}
	launch()
	launch()
	deadline := time.Now().Add(5 * time.Second)
	for s.Metrics().Queued.Load() < 1 || s.Metrics().Running.Load() < 1 {
		if time.Now().After(deadline) {
			t.Fatal("queue never filled")
		}
		time.Sleep(5 * time.Millisecond)
		if s.Metrics().Queued.Load() < 1 {
			launch()
		}
	}

	accepted := s.Metrics().JobsAccepted.Load()
	code, _, bad := postBatch(t, ts, `{"runs":[
		{"kind":"d2m-fs","benchmark":"tpc-c","seed":100},
		{"kind":"d2m-fs","benchmark":"tpc-c","seed":101}
	]}`)
	if code != http.StatusTooManyRequests || bad.Error.Code != api.ErrOverloaded {
		t.Fatalf("batch over full queue = %d/%q, want 429/overloaded", code, bad.Error.Code)
	}
	if got := s.Metrics().JobsAccepted.Load(); got != accepted {
		t.Errorf("rejected batch admitted jobs: accepted %d -> %d (must be all-or-nothing)", accepted, got)
	}
}

// TestBatchSnapshotReuse runs a real batch through the server:
// three simulations differing only in measurement length must share
// one warmup. Since API v1.5 the worker gathers the three runs into a
// vector lane group, so the warmup is shared in-process — one
// snapshot miss, zero restores — and every result reports the vector
// engine.
func TestBatchSnapshotReuse(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 2})
	code, ok, _ := postBatch(t, ts, `{"runs":[
		{"kind":"d2m-ns-r","benchmark":"tpc-c","nodes":2,"warmup":4000,"measure":2000},
		{"kind":"d2m-ns-r","benchmark":"tpc-c","nodes":2,"warmup":4000,"measure":4000},
		{"kind":"d2m-ns-r","benchmark":"tpc-c","nodes":2,"warmup":4000,"measure":6000}
	]}`)
	if code != http.StatusOK || len(ok.Results) != 3 {
		t.Fatalf("batch = %d, %d results", code, len(ok.Results))
	}
	if hits, misses := s.Metrics().SnapshotHits.Load(), s.Metrics().SnapshotMisses.Load(); hits != 0 || misses != 1 {
		t.Errorf("snapshot hits/misses = %d/%d, want 0/1 (lane group shares the warmup in-process)", hits, misses)
	}
	for i, st := range ok.Results {
		if st.Engine != d2m.EngineVector {
			t.Errorf("results[%d].engine = %q, want %q", i, st.Engine, d2m.EngineVector)
		}
	}

	// The restored runs must match fresh library runs exactly.
	for i, measure := range []int{2000, 4000, 6000} {
		want, err := d2m.Run(context.Background(), d2m.RunSpec{
			Kind: d2m.D2MNSR, Benchmark: "tpc-c",
			Options: d2m.Options{Nodes: 2, Warmup: 4000, Measure: measure},
		})
		if err != nil {
			t.Fatal(err)
		}
		got, _ := json.Marshal(ok.Results[i].Result)
		wantJSON, _ := json.Marshal(want.Result)
		if string(got) != string(wantJSON) {
			t.Errorf("results[%d] differs from fresh run:\n got  %s\n want %s", i, got, wantJSON)
		}
	}
}

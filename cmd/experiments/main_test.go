package main

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"d2m"
	"d2m/internal/service"
)

// recordingServer serves a real service.Server and records the job
// submissions it receives.
type recordingServer struct {
	mu         sync.Mutex
	sweeps     []service.SweepRequest // bodies of POST /v1/sweeps
	otherPosts []string               // paths of every other POST
}

func newRecordingServer(t *testing.T) (*recordingServer, string) {
	t.Helper()
	s, err := service.New(service.Config{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	rec := &recordingServer{}
	h := s.Handler()
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.Method == http.MethodPost {
			body, _ := io.ReadAll(r.Body)
			r.Body = io.NopCloser(bytes.NewReader(body))
			rec.mu.Lock()
			if r.URL.Path == "/v1/sweeps" {
				var req service.SweepRequest
				if err := json.Unmarshal(body, &req); err != nil {
					t.Errorf("sweep body: %v", err)
				}
				rec.sweeps = append(rec.sweeps, req)
			} else {
				rec.otherPosts = append(rec.otherPosts, r.URL.Path)
			}
			rec.mu.Unlock()
		}
		h.ServeHTTP(w, r)
	}))
	t.Cleanup(func() {
		ts.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		s.Shutdown(ctx)
	})
	return rec, ts.URL
}

func selectExperiments(ids ...string) []experiment {
	var out []experiment
	for _, e := range registry() {
		for _, id := range ids {
			if e.id == id {
				out = append(out, e)
			}
		}
	}
	return out
}

// TestServerPlanOneSweep checks -server: a multi-experiment plan is one
// POST /v1/sweeps of distinct cells (Figures 5-7 at one Options share
// their 5 kinds x 45 benchmarks), no per-run request is sent, and the
// rows and text equal the in-process ones. It first counts the cells
// of -exp all at the defaults without running them: the ablations
// re-read Figure 5-7 cells with the default topology or placement
// spelled out, and those dedup with their "" twins.
func TestServerPlanOneSweep(t *testing.T) {
	var all []d2m.SweepCell
	for _, e := range registry() {
		if e.cells != nil {
			all = append(all, e.cells(d2m.Options{})...)
		}
	}
	if n, distinct := len(all), len(d2m.DistinctCells(all)); n != 1419 || distinct != 409 {
		t.Errorf("-exp all declares %d cells, %d distinct; want 1419, 409", n, distinct)
	}

	rec, url := newRecordingServer(t)
	opt := d2m.Options{Nodes: 2, Warmup: 500, Measure: 1500}
	exps := selectExperiments("fig5", "fig6", "fig7")
	for _, asJSON := range []bool{true, false} {
		local, err := generate(exps, opt, asJSON, runLocal)
		if err != nil {
			t.Fatal(err)
		}
		remote, err := generate(exps, opt, asJSON, remoteCells(url))
		if err != nil {
			t.Fatal(err)
		}
		if remote != local {
			t.Errorf("json=%v: server output differs from in-process output", asJSON)
		}
	}

	rec.mu.Lock()
	defer rec.mu.Unlock()
	if len(rec.otherPosts) != 0 {
		t.Errorf("POSTs besides sweeps: %v", rec.otherPosts)
	}
	if len(rec.sweeps) != 2 {
		t.Fatalf("%d sweeps for two plans, want one each", len(rec.sweeps))
	}
	cells := rec.sweeps[0].Cells
	if len(cells) != 225 {
		t.Errorf("sweep has %d cells, want 225 (5 kinds x 45 benchmarks)", len(cells))
	}
	if n := len(d2m.DistinctCells(cells)); n != len(cells) {
		t.Errorf("sweep cells repeat: %d distinct of %d", n, len(cells))
	}
}

// TestSweepExecutors checks that -sweep summarizes identically through
// both executors, and that a baseline outside the grid is rejected
// before anything runs.
func TestSweepExecutors(t *testing.T) {
	rec, url := newRecordingServer(t)
	spec := `{"kinds":["d2m-ns-r","base-2l"],"benchmarks":["tpc-c","fft"],"seeds":[0,3],"nodes":2,"warmup":500,"measure":1500}`
	local, err := runSweep(runLocal, spec, "", false)
	if err != nil {
		t.Fatal(err)
	}
	remote, err := runSweep(remoteCells(url), spec, "", false)
	if err != nil {
		t.Fatal(err)
	}
	if local != remote {
		t.Errorf("summaries differ:\nlocal\n%s\nserver\n%s", local, remote)
	}
	for _, exec := range []func([]d2m.SweepCell) (results, error){runLocal, remoteCells(url)} {
		if _, err := runSweep(exec, spec, "d2m-fs", false); err == nil {
			t.Error("baseline outside the sweep's kinds was accepted")
		}
	}
	rec.mu.Lock()
	defer rec.mu.Unlock()
	if len(rec.sweeps) != 1 || len(rec.otherPosts) != 0 {
		t.Errorf("server saw %d sweeps and %v, want one sweep", len(rec.sweeps), rec.otherPosts)
	}
}

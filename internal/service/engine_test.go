package service

import (
	"context"
	"d2m/internal/api"
	"encoding/json"
	"net/http"
	"strings"
	"testing"
	"time"

	"d2m"
)

// runLibrary runs one simulation through the library and returns its
// marshalled Result for byte comparison.
func runLibrary(t *testing.T, spec d2m.RunSpec) []byte {
	t.Helper()
	out, err := d2m.Run(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	raw, _ := json.Marshal(out.Result)
	return raw
}

// TestRunReportsEngine: a job status reports the execution path that
// produced its result; a lone run executes scalar.
func TestRunReportsEngine(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1})

	code, st, _ := postRun(t, ts,
		`{"kind":"d2m-ns-r","benchmark":"tpc-c","nodes":2,"warmup":2000,"measure":4000}`)
	if code != http.StatusOK || st.State != api.JobDone {
		t.Fatalf("run = %d/%s", code, st.State)
	}
	if st.Engine != d2m.EngineScalar {
		t.Errorf("engine = %q, want scalar", st.Engine)
	}
}

// TestEngineHintRejected: the engine hint was removed in API v1.10, so
// a body naming it is an unknown field, answered invalid_request on
// every submission surface.
func TestEngineHintRejected(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1})

	for path, body := range map[string]string{
		"/v1/run":    `{"kind":"d2m-ns-r","benchmark":"tpc-c","nodes":2,"measure":4000,"engine":"scalar"}`,
		"/v1/batch":  `{"runs":[{"kind":"d2m-ns-r","benchmark":"tpc-c","nodes":2,"measure":4000,"engine":"auto"}]}`,
		"/v1/sweeps": `{"kinds":["d2m-ns-r"],"benchmarks":["tpc-c"],"nodes":2,"engine":"vector"}`,
	} {
		resp, err := http.Post(ts.URL+path, "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		var eb api.ErrorBody
		err = json.NewDecoder(resp.Body).Decode(&eb)
		resp.Body.Close()
		if err != nil {
			t.Fatalf("%s: decode: %v", path, err)
		}
		if resp.StatusCode != http.StatusBadRequest || eb.Error.Code != api.ErrInvalidRequest ||
			!strings.Contains(eb.Error.Message, `unknown field "engine"`) {
			t.Errorf("%s = %d %+v, want 400 invalid_request naming the unknown field engine", path, resp.StatusCode, eb.Error)
		}
	}
}

// TestSweepVectorLaneGroups: a sweep over a link-bandwidth axis (one
// warm identity, many cells) flows through the lane-group feeder — the
// lane metrics move, and every cell's result matches a scalar run.
func TestSweepVectorLaneGroups(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 1})

	body := `{"kinds":["d2m-ns-r"],"benchmarks":["tpc-c"],"nodes":2,
		"warmup":2000,"measure":4000,
		"link_bandwidths":[0.9,1.0,1.1,1.2]}`
	resp, err := http.Post(ts.URL+"/v1/sweeps", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	var st SweepStatus
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("POST /v1/sweeps = %d", resp.StatusCode)
	}
	waitSweep(t, ts, st.ID, 30*time.Second)

	if groups := s.Metrics().LaneGroups.Load(); groups == 0 {
		t.Errorf("lane_groups = 0, want > 0 (sweep cells share one warm identity)")
	}
	if jobs := s.Metrics().LaneJobs.Load(); jobs < 4 {
		t.Errorf("lane_jobs = %d, want >= 4", jobs)
	}

	// Every cell must be byte-identical to its scalar library run.
	resp, err = http.Get(ts.URL + "/v1/sweeps/" + st.ID + "?cells=1")
	if err != nil {
		t.Fatal(err)
	}
	var full SweepStatus
	if err := json.NewDecoder(resp.Body).Decode(&full); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if len(full.Cells) != 4 {
		t.Fatalf("cells = %d, want 4", len(full.Cells))
	}
	for i, lb := range []float64{0.9, 1.0, 1.1, 1.2} {
		want := runLibrary(t, d2m.RunSpec{
			Kind: d2m.D2MNSR, Benchmark: "tpc-c",
			Options: d2m.Options{Nodes: 2, Warmup: 2000, Measure: 4000, LinkBandwidth: lb},
		})
		got, _ := json.Marshal(full.Cells[i].Result)
		if string(got) != string(want) {
			t.Errorf("cell %d differs from scalar run:\n got  %s\n want %s", i, got, want)
		}
	}
}

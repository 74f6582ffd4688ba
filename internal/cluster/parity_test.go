package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"d2m"
	"d2m/internal/api"
	"d2m/internal/service"
)

// parityPair is one single-process server and one 2-shard gateway
// whose shards share its configuration.
type parityPair struct{ single, gateway string }

func newParityPair(t *testing.T, cfg service.Config) parityPair {
	t.Helper()
	var runs atomic.Int64
	cfg.Workers = 1
	cfg.Runner = stubRunner(&runs, 0)
	_, _, single := newShard(t, "single", cfg)
	pa, _, _ := newShard(t, "a", cfg)
	pb, _, _ := newShard(t, "b", cfg)
	_, gts := newGatewayServer(t, Config{Peers: []Peer{pa, pb}})
	return parityPair{single: single.URL, gateway: gts.URL}
}

// parityReply is what TestGatewayParity compares across the two
// deployments.
type parityReply struct {
	status     int
	code       api.ErrCode
	retryAfter bool
	results    string // compacted result objects, in response order
}

func parityDo(t *testing.T, method, url, key, body string) parityReply {
	t.Helper()
	req, err := http.NewRequest(method, url, strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	if key != "" {
		req.Header.Set("X-API-Key", key)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var raw bytes.Buffer
	raw.ReadFrom(resp.Body)
	out := parityReply{status: resp.StatusCode, retryAfter: resp.Header.Get("Retry-After") != ""}
	type payload struct {
		Result     json.RawMessage `json:"result"`
		Replicated json.RawMessage `json:"replicated"`
		Cached     bool            `json:"cached"`
	}
	var doc struct {
		Error *api.ErrorInfo `json:"error"`
		payload
		Results []payload `json:"results"`
	}
	if json.Unmarshal(raw.Bytes(), &doc) == nil {
		if doc.Error != nil {
			out.code = doc.Error.Code
		}
		var results []json.RawMessage
		for _, r := range append([]payload{doc.payload}, doc.Results...) {
			cached, _ := json.Marshal(r.Cached)
			results = append(results, r.Result, r.Replicated, cached)
		}
		for _, r := range results {
			var c bytes.Buffer
			if len(r) > 0 && json.Compact(&c, r) == nil {
				out.results += c.String() + "\n"
			}
		}
	}
	return out
}

// TestGatewayParity sends one table of requests to a single-process
// server and to a 2-shard gateway and checks that both answer alike:
// the same status, error code, Retry-After presence, and result,
// aggregate and cached bytes. A replicated sweep is compared cell by
// cell.
func TestGatewayParity(t *testing.T) {
	share := func(n int) *int { return &n }
	open := newParityPair(t, service.Config{})
	tenants := newParityPair(t, service.Config{Tenants: []service.TenantSpec{
		{Name: "alice", Key: "ka", Rate: 1000},
		{Name: "muted", Key: "km", Share: share(0)},
	}})

	const run = `{"kind":"d2m-ns-r","benchmark":"tpc-c","nodes":2,"seed":5}`
	const repRun = `{"kind":"d2m-ns","benchmark":"canneal","nodes":2,"seed":40,"replicates":3}`
	const sweep = `{"kinds":["d2m-ns-r"],"benchmarks":["tpc-c"],"nodes":2,"seeds":[1,2]}`
	var many []string
	for i := 0; i <= service.MaxBatchRuns; i++ {
		many = append(many, run)
	}

	rows := []struct {
		name         string
		tenancy      bool
		method, path string
		key, body    string
	}{
		{name: "run bad json", method: "POST", path: "/v1/run", body: `{`},
		{name: "run unknown field", method: "POST", path: "/v1/run", body: `{"kind":"d2m-ns-r","benchmark":"tpc-c","bogus":1}`},
		{name: "batch bad json", method: "POST", path: "/v1/batch", body: `{"runs":[`},
		{name: "batch unknown field", method: "POST", path: "/v1/batch", body: `{"runs":[` + run + `],"bogus":1}`},
		{name: "batch run unknown field", method: "POST", path: "/v1/batch", body: `{"runs":[{"kind":"d2m-ns-r","benchmark":"tpc-c","bogus":1}]}`},
		{name: "sweep bad json", method: "POST", path: "/v1/sweeps", body: `{"kinds":`},
		{name: "sweep unknown field", method: "POST", path: "/v1/sweeps", body: `{"kinds":["d2m-ns-r"],"benchmarks":["tpc-c"],"bogus":1}`},
		{name: "run unknown benchmark", method: "POST", path: "/v1/run", body: `{"kind":"d2m-ns-r","benchmark":"nope"}`},
		{name: "batch unknown benchmark", method: "POST", path: "/v1/batch", body: `{"runs":[{"kind":"d2m-ns-r","benchmark":"nope"}]}`},
		{name: "sweep unknown benchmark", method: "POST", path: "/v1/sweeps", body: `{"kinds":["d2m-ns-r"],"benchmarks":["nope"]}`},
		{name: "batch async", method: "POST", path: "/v1/batch", body: `{"runs":[{"kind":"d2m-ns-r","benchmark":"tpc-c","async":true}]}`},
		{name: "batch of 257", method: "POST", path: "/v1/batch", body: `{"runs":[` + strings.Join(many, ",") + `]}`},
		{name: "batch empty", method: "POST", path: "/v1/batch", body: `{"runs":[]}`},
		{name: "sweep cells with axes", method: "POST", path: "/v1/sweeps",
			body: `{"kinds":["d2m-ns-r"],"benchmarks":["tpc-c"],"cells":[{"kind":"d2m-ns-r","benchmark":"tpc-c","options":{}}]}`},
		{name: "unknown job", method: "GET", path: "/v1/jobs/j99999999"},
		{name: "cancel unknown job", method: "DELETE", path: "/v1/jobs/j99999999"},
		{name: "unknown sweep", method: "GET", path: "/v1/sweeps/s99999999"},
		{name: "cancel unknown sweep", method: "DELETE", path: "/v1/sweeps/s99999999"},
		{name: "routed id unknown shard", method: "GET", path: "/v1/jobs/j1@nosuch"},
		{name: "routed id empty shard", method: "GET", path: "/v1/jobs/j1@"},
		{name: "routed id empty job", method: "GET", path: "/v1/jobs/@a"},
		{name: "jobs bad limit", method: "GET", path: "/v1/jobs?limit=abc"},
		{name: "jobs zero limit", method: "GET", path: "/v1/jobs?limit=0"},
		{name: "jobs bad state", method: "GET", path: "/v1/jobs?state=bogus"},
		{name: "sweeps bad limit", method: "GET", path: "/v1/sweeps?limit=abc"},
		{name: "sweeps bad state", method: "GET", path: "/v1/sweeps?state=bogus"},
		{name: "run", method: "POST", path: "/v1/run", body: run},
		{name: "batch", method: "POST", path: "/v1/batch", body: `{"runs":[` + run + `,{"kind":"base-2l","benchmark":"canneal","nodes":2}]}`},
		{name: "replicated run cold", method: "POST", path: "/v1/run", body: repRun},
		{name: "replicated run cached", method: "POST", path: "/v1/run", body: repRun},
		{name: "single run at a seed", method: "POST", path: "/v1/run", body: `{"kind":"d2m-ns","benchmark":"canneal","nodes":2,"seed":42}`},
		{name: "replicated batch", method: "POST", path: "/v1/batch", body: `{"runs":[` + repRun + `,{"kind":"base-2l","benchmark":"canneal","nodes":2,"replicates":2}]}`},

		{name: "keyless run", tenancy: true, method: "POST", path: "/v1/run", body: run},
		{name: "unknown-key run", tenancy: true, method: "POST", path: "/v1/run", key: "nope", body: run},
		{name: "keyless bad json", tenancy: true, method: "POST", path: "/v1/run", body: `{`},
		{name: "keyless batch", tenancy: true, method: "POST", path: "/v1/batch", body: `{"runs":[` + run + `]}`},
		{name: "unknown-key batch", tenancy: true, method: "POST", path: "/v1/batch", key: "nope", body: `{"runs":[` + run + `]}`},
		{name: "keyless sweep", tenancy: true, method: "POST", path: "/v1/sweeps", body: sweep},
		{name: "unknown-key sweep", tenancy: true, method: "POST", path: "/v1/sweeps", key: "nope", body: sweep},
		{name: "keyless sweep list", tenancy: true, method: "GET", path: "/v1/sweeps"},
		{name: "unknown-key sweep list", tenancy: true, method: "GET", path: "/v1/sweeps", key: "nope"},
		{name: "keyless sweep get", tenancy: true, method: "GET", path: "/v1/sweeps/s00000001"},
		{name: "keyless sweep delete", tenancy: true, method: "DELETE", path: "/v1/sweeps/s00000001"},
		{name: "keyless job list", tenancy: true, method: "GET", path: "/v1/jobs"},
		{name: "unknown-key job list", tenancy: true, method: "GET", path: "/v1/jobs", key: "nope"},
		{name: "keyless job get", tenancy: true, method: "GET", path: "/v1/jobs/j99999999"},
		{name: "keyless job cancel", tenancy: true, method: "DELETE", path: "/v1/jobs/j99999999"},
		{name: "keyless trace list", tenancy: true, method: "GET", path: "/v1/traces"},
		{name: "zero-share run", tenancy: true, method: "POST", path: "/v1/run", key: "km", body: run},
		{name: "keyed run", tenancy: true, method: "POST", path: "/v1/run", key: "ka", body: run},
		{name: "keyed unknown job", tenancy: true, method: "GET", path: "/v1/jobs/j99999999", key: "ka"},
		{name: "keyed jobs bad state", tenancy: true, method: "GET", path: "/v1/jobs?state=bogus", key: "ka"},
	}
	for _, row := range rows {
		pair := open
		if row.tenancy {
			pair = tenants
		}
		want := parityDo(t, row.method, pair.single+row.path, row.key, row.body)
		got := parityDo(t, row.method, pair.gateway+row.path, row.key, row.body)
		if got != want {
			t.Errorf("%s: gateway %s, single process %s", row.name, fmtReply(got), fmtReply(want))
		}
	}

	const repSweep = `{"kinds":["base-2l","d2m-ns"],"benchmarks":["tpc-c","canneal"],"nodes":2,"seeds":[60],"replicates":2}`
	if got, want := paritySweepCells(t, open.gateway, repSweep), paritySweepCells(t, open.single, repSweep); got != want {
		t.Errorf("replicated sweep cells: gateway %s, single process %s", got, want)
	}
}

// paritySweepCells runs a sweep to completion and returns its cells'
// states and results.
func paritySweepCells(t *testing.T, base, body string) string {
	t.Helper()
	code, raw, _ := postJSON(t, base+"/v1/sweeps", body)
	if code != http.StatusAccepted {
		t.Fatalf("POST %s/v1/sweeps = %d (%s)", base, code, raw)
	}
	var st service.SweepStatus
	if err := json.Unmarshal(raw, &st); err != nil {
		t.Fatal(err)
	}
	waitGatewaySweep(t, base+"/v1/sweeps/"+st.ID, "")
	_, raw = getJSON(t, base+"/v1/sweeps/"+st.ID+"?cells=1")
	if err := json.Unmarshal(raw, &st); err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	for _, c := range st.Cells {
		b, _ := json.Marshal([]interface{}{c.State, c.Result})
		out.Write(b)
	}
	return out.String()
}

func fmtReply(r parityReply) string {
	return fmt.Sprintf("{%d %q retry-after=%v results=%q}", r.status, r.code, r.retryAfter, r.results)
}

// waitGatewaySweep polls a gateway sweep with key until it settles.
func waitGatewaySweep(t *testing.T, url, key string) service.SweepStatus {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for {
		code, raw := doKey(t, "GET", url, key, "")
		if code != http.StatusOK {
			t.Fatalf("GET %s = %d (%s)", url, code, raw)
		}
		var st service.SweepStatus
		if err := json.Unmarshal(raw, &st); err != nil {
			t.Fatal(err)
		}
		if st.State != service.SweepRunning {
			return st
		}
		if time.Now().After(deadline) {
			t.Fatalf("sweep never settled: %s", raw)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestGatewaySweepTenancy: on a tenant-configured fleet the gateway
// authenticates its own sweep endpoints like a shard does, so a
// keyless caller can neither list, create nor cancel another
// tenant's fleet sweep.
func TestGatewaySweepTenancy(t *testing.T) {
	var runs atomic.Int64
	tenants := []service.TenantSpec{{Name: "alice", Key: "ka", Rate: 1000}}
	pa, _, _ := newShard(t, "a", service.Config{Workers: 1, Tenants: tenants, Runner: stubRunner(&runs, 20*time.Millisecond)})
	pb, _, _ := newShard(t, "b", service.Config{Workers: 1, Tenants: tenants, Runner: stubRunner(&runs, 20*time.Millisecond)})
	_, gts := newGatewayServer(t, Config{Peers: []Peer{pa, pb}})

	const sweep = `{"kinds":["base-2l","d2m-ns-r"],"benchmarks":["tpc-c"],"nodes":2,"seeds":[1,2,3]}`
	code, raw := doKey(t, "POST", gts.URL+"/v1/sweeps", "ka", sweep)
	if code != http.StatusAccepted {
		t.Fatalf("keyed sweep = %d (%s)", code, raw)
	}
	var st service.SweepStatus
	if err := json.Unmarshal(raw, &st); err != nil {
		t.Fatal(err)
	}
	for _, key := range []string{"", "nope"} {
		if code, raw := doKey(t, "DELETE", gts.URL+"/v1/sweeps/"+st.ID, key, ""); code != http.StatusUnauthorized {
			t.Errorf("DELETE with key %q = %d (%s), want 401", key, code, raw)
		}
		if code, raw := doKey(t, "POST", gts.URL+"/v1/sweeps", key, sweep); code != http.StatusUnauthorized {
			t.Errorf("POST with key %q = %d (%s), want 401", key, code, raw)
		}
		if code, raw := doKey(t, "GET", gts.URL+"/v1/sweeps", key, ""); code != http.StatusUnauthorized {
			t.Errorf("list with key %q = %d (%s), want 401", key, code, raw)
		}
	}
	final := waitGatewaySweep(t, gts.URL+"/v1/sweeps/"+st.ID, "ka")
	if final.State != service.SweepDone || final.Done != final.Total {
		t.Errorf("sweep settled %s with %d/%d done, want done", final.State, final.Done, final.Total)
	}
}

// TestGatewaySweepRetention: fleet sweeps share the shard's bounded
// history, so the oldest of 257 settled sweeps is retired.
func TestGatewaySweepRetention(t *testing.T) {
	var runs atomic.Int64
	pa, _, _ := newShard(t, "a", service.Config{Workers: 1, Runner: stubRunner(&runs, 0)})
	_, gts := newGatewayServer(t, Config{Peers: []Peer{pa}})

	var ids []string
	for i := 0; i < 257; i++ {
		code, raw, _ := postJSON(t, gts.URL+"/v1/sweeps", `{"kinds":["d2m-ns-r"],"benchmarks":["tpc-c"],"nodes":2}`)
		if code != http.StatusAccepted {
			t.Fatalf("sweep %d = %d (%s)", i, code, raw)
		}
		var st service.SweepStatus
		if err := json.Unmarshal(raw, &st); err != nil {
			t.Fatal(err)
		}
		waitGatewaySweep(t, gts.URL+"/v1/sweeps/"+st.ID, "")
		ids = append(ids, st.ID)
	}
	if code, raw := getJSON(t, gts.URL+"/v1/sweeps/"+ids[0]); code != http.StatusNotFound {
		t.Errorf("oldest of 257 settled sweeps = %d (%s), want 404", code, raw)
	}
	if code, raw := getJSON(t, gts.URL+"/v1/sweeps/"+ids[1]); code != http.StatusOK {
		t.Errorf("second-oldest sweep = %d (%s), want 200", code, raw)
	}
}

// TestGatewayShutdownCancelsSweep: Shutdown waits for in-flight fleet
// sweep work and leaves the sweep canceled, every cell settled.
func TestGatewayShutdownCancelsSweep(t *testing.T) {
	var runs atomic.Int64
	pa, _, _ := newShard(t, "a", service.Config{Workers: 1, Runner: stubRunner(&runs, 50*time.Millisecond)})
	g, gts := newGatewayServer(t, Config{Peers: []Peer{pa}})

	code, raw, _ := postJSON(t, gts.URL+"/v1/sweeps", `{"kinds":["d2m-ns-r"],"benchmarks":["tpc-c"],"nodes":2,"seeds":[1,2,3,4,5,6]}`)
	if code != http.StatusAccepted {
		t.Fatalf("sweep = %d (%s)", code, raw)
	}
	var st service.SweepStatus
	if err := json.Unmarshal(raw, &st); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := g.Shutdown(ctx); err != nil {
		t.Fatalf("Shutdown: %v", err)
	}
	final := waitGatewaySweep(t, gts.URL+"/v1/sweeps/"+st.ID, "")
	if final.State != service.SweepCanceled || final.Done+final.Canceled != final.Total {
		t.Errorf("after Shutdown: %s with %d done + %d canceled of %d", final.State, final.Done, final.Canceled, final.Total)
	}
}

// TestGatewayTraceRoundTrip uploads a CSV trace through the gateway
// (fanned out to every shard), then reads it back: the listing, the
// metadata and the raw file match what a shard serves directly.
func TestGatewayTraceRoundTrip(t *testing.T) {
	dir := t.TempDir()
	t.Cleanup(func() { d2m.SetTraceDir("") })
	pa, _, _ := newShard(t, "a", service.Config{Workers: 1, TraceDir: dir})
	pb, _, _ := newShard(t, "b", service.Config{Workers: 1, TraceDir: dir})
	_, gts := newGatewayServer(t, Config{Peers: []Peer{pa, pb}})

	resp, err := http.Post(gts.URL+"/v1/traces?name=tiny", "text/csv",
		strings.NewReader("0,r,0x40\n1,w,0x80\n0,i,0x1000\n"))
	if err != nil {
		t.Fatal(err)
	}
	var info d2m.TraceInfo
	json.NewDecoder(resp.Body).Decode(&info)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || info.ID == "" || info.Name != "tiny" || info.Accesses != 3 {
		t.Fatalf("upload = %d %+v", resp.StatusCode, info)
	}
	for _, path := range []string{"/v1/traces", "/v1/traces/" + info.ID, "/v1/traces/" + info.ID + "/raw"} {
		code, got := getJSON(t, gts.URL+path)
		_, want := getJSON(t, pa.URL+path)
		if code != http.StatusOK || len(got) == 0 || !bytes.Equal(got, want) {
			t.Errorf("GET %s via gateway = %d, %d bytes; differs from the shard's %d bytes", path, code, len(got), len(want))
		}
	}
	if code, raw := getJSON(t, gts.URL+"/v1/traces/nope/raw"); code != http.StatusNotFound {
		t.Errorf("unknown raw trace = %d (%s), want 404", code, raw)
	}
}

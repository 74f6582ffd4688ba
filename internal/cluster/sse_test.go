package cluster

import (
	"bufio"
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"strconv"
	"strings"
	"testing"

	"d2m/internal/api"
	"d2m/internal/service"
)

// Gateway-side v1.6 tests: tenant-header forwarding, the job SSE
// proxy's id rewrite, and the gateway sweep stream's identity with the
// gateway polling view.

// doKey issues a request with an optional X-API-Key.
func doKey(t *testing.T, method, url, key, body string) (int, []byte) {
	t.Helper()
	var rd io.Reader
	if body != "" {
		rd = strings.NewReader(body)
	}
	req, err := http.NewRequest(method, url, rd)
	if err != nil {
		t.Fatal(err)
	}
	if body != "" {
		req.Header.Set("Content-Type", "application/json")
	}
	if key != "" {
		req.Header.Set("X-API-Key", key)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, _ := io.ReadAll(resp.Body)
	return resp.StatusCode, raw
}

// sseEvent / openSSE / readEvents mirror the service-side SSE test
// helpers (test packages cannot share them).
type sseEvent struct {
	id    int
	event string
	data  []byte
}

func openSSE(t *testing.T, url string, lastID int) *http.Response {
	t.Helper()
	return openSSEKey(t, url, "", lastID)
}

// openSSEKey is openSSE with an optional X-API-Key.
func openSSEKey(t *testing.T, url, key string, lastID int) *http.Response {
	t.Helper()
	req, err := http.NewRequest(http.MethodGet, url, nil)
	if err != nil {
		t.Fatal(err)
	}
	if key != "" {
		req.Header.Set("X-API-Key", key)
	}
	req.Header.Set("Accept", "text/event-stream")
	if lastID >= 1 {
		req.Header.Set("Last-Event-ID", strconv.Itoa(lastID))
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		raw, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		t.Fatalf("SSE GET %s = %d (%s)", url, resp.StatusCode, raw)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("SSE Content-Type = %q", ct)
	}
	return resp
}

func readEvents(t *testing.T, body io.Reader, max int, terminal string) []sseEvent {
	t.Helper()
	var (
		out []sseEvent
		ev  sseEvent
	)
	sc := bufio.NewScanner(body)
	sc.Buffer(make([]byte, 0, 64<<10), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		switch {
		case line == "":
			if ev.event != "" || len(ev.data) > 0 {
				out = append(out, ev)
				if len(out) >= max || ev.event == terminal {
					return out
				}
			}
			ev = sseEvent{}
		case strings.HasPrefix(line, "id: "):
			n, err := strconv.Atoi(line[len("id: "):])
			if err != nil {
				t.Fatalf("bad SSE id line %q", line)
			}
			ev.id = n
		case strings.HasPrefix(line, "event: "):
			ev.event = line[len("event: "):]
		case strings.HasPrefix(line, "data: "):
			ev.data = []byte(line[len("data: "):])
		default:
			t.Fatalf("unexpected SSE line %q", line)
		}
	}
	return out
}

const clusterTinyRun = `{"kind":"d2m-ns-r","benchmark":"tpc-c","nodes":2,"warmup":200,"measure":500}`

// TestGatewayForwardsTenantKey runs a tenant-enforcing shard behind
// the gateway: the shard's 401/429 decisions must pass through every
// submission path unchanged, and a valid key must reach the shard on
// run, batch, and sweep hops.
func TestGatewayForwardsTenantKey(t *testing.T) {
	share := func(n int) *int { return &n }
	pa, _, _ := newShard(t, "a", service.Config{
		Workers: 1,
		Tenants: []service.TenantSpec{
			{Name: "alice", Key: "ka", Rate: 1000, Share: share(2)},
		},
	})
	_, gts := newGatewayServer(t, Config{Peers: []Peer{pa}})

	relayed401 := func(code int, raw []byte) {
		t.Helper()
		if code != http.StatusUnauthorized {
			t.Fatalf("status = %d (%s), want 401", code, raw)
		}
		var eb api.ErrorBody
		if err := json.Unmarshal(raw, &eb); err != nil || eb.Error.Code != api.ErrUnauthorized {
			t.Fatalf("relayed envelope = %s (err %v)", raw, err)
		}
	}

	// Keyless submissions are rejected by the shard and relayed as-is.
	code, raw := doKey(t, "POST", gts.URL+"/v1/run", "", clusterTinyRun)
	relayed401(code, raw)
	code, raw = doKey(t, "POST", gts.URL+"/v1/batch", "",
		`{"runs":[`+clusterTinyRun+`]}`)
	relayed401(code, raw)

	// With the key every submission path reaches the shard.
	code, raw = doKey(t, "POST", gts.URL+"/v1/run", "ka", clusterTinyRun)
	if code != http.StatusOK {
		t.Fatalf("keyed run via gateway = %d (%s)", code, raw)
	}
	code, raw = doKey(t, "POST", gts.URL+"/v1/batch", "ka",
		`{"runs":[`+clusterTinyRun+`]}`)
	if code != http.StatusOK {
		t.Fatalf("keyed batch via gateway = %d (%s)", code, raw)
	}
	code, raw = doKey(t, "POST", gts.URL+"/v1/sweeps", "ka",
		`{"kinds":["d2m-ns-r"],"benchmarks":["tpc-c"],"nodes":2,"warmup":200,"measure":500,"seeds":[1,2]}`)
	if code != http.StatusAccepted {
		t.Fatalf("keyed sweep via gateway = %d (%s)", code, raw)
	}
	var st service.SweepStatus
	if err := json.Unmarshal(raw, &st); err != nil {
		t.Fatal(err)
	}
	// The sub-sweep hops carry the key too — the sweep completes
	// instead of dying on shard-side 401s.
	resp := openSSEKey(t, gts.URL+"/v1/sweeps/"+st.ID, "ka", 0)
	defer resp.Body.Close()
	events := readEvents(t, resp.Body, st.Total+2, "sweep")
	if len(events) == 0 || events[len(events)-1].event != "sweep" {
		t.Fatalf("gateway sweep with tenant key never settled: %+v", events)
	}
	var final service.SweepStatus
	if err := json.Unmarshal(events[len(events)-1].data, &final); err != nil {
		t.Fatal(err)
	}
	if final.State != service.SweepDone || final.Done != st.Total {
		t.Fatalf("keyed sweep final = %s done=%d/%d", final.State, final.Done, st.Total)
	}

	// A routed job read is proxied with the key; without it the shard
	// refuses.
	code, raw = doKey(t, "POST", gts.URL+"/v1/run", "ka",
		strings.TrimSuffix(clusterTinyRun, "}")+`,"seed":9,"async":true}`)
	if code != http.StatusAccepted {
		t.Fatalf("async keyed run = %d (%s)", code, raw)
	}
	var js api.JobStatus
	if err := json.Unmarshal(raw, &js); err != nil {
		t.Fatal(err)
	}
	if code, raw = doKey(t, "GET", gts.URL+"/v1/jobs/"+js.ID, "", ""); code != http.StatusUnauthorized {
		t.Fatalf("keyless routed read = %d (%s), want 401", code, raw)
	}
	if code, raw = doKey(t, "GET", gts.URL+"/v1/jobs/"+js.ID, "ka", ""); code != http.StatusOK {
		t.Fatalf("keyed routed read = %d (%s)", code, raw)
	}
}

// TestGatewayJobSSEProxy streams a routed job through the gateway: the
// frames are the shard's, with the job id rewritten to its routed
// form.
func TestGatewayJobSSEProxy(t *testing.T) {
	pa, _, _ := newShard(t, "a", service.Config{Workers: 1})
	_, gts := newGatewayServer(t, Config{Peers: []Peer{pa}})

	code, raw, _ := postJSON(t, gts.URL+"/v1/run",
		strings.TrimSuffix(clusterTinyRun, "}")+`,"async":true}`)
	if code != http.StatusAccepted {
		t.Fatalf("submit = %d (%s)", code, raw)
	}
	var js api.JobStatus
	if err := json.Unmarshal(raw, &js); err != nil {
		t.Fatal(err)
	}
	if !strings.HasSuffix(js.ID, "@a") {
		t.Fatalf("routed id = %q", js.ID)
	}

	resp := openSSE(t, gts.URL+"/v1/jobs/"+js.ID, 0)
	defer resp.Body.Close()
	events := readEvents(t, resp.Body, 4, "")
	if len(events) == 0 {
		t.Fatal("no proxied events")
	}
	last := events[len(events)-1]
	if last.id != 3 || last.event != "state" {
		t.Fatalf("terminal frame = id %d event %q", last.id, last.event)
	}
	var st api.JobStatus
	if err := json.Unmarshal(last.data, &st); err != nil {
		t.Fatal(err)
	}
	if st.ID != js.ID {
		t.Errorf("streamed id = %q, want routed %q", st.ID, js.ID)
	}
	if st.State != api.JobDone || st.Result == nil {
		t.Errorf("terminal state = %s result?=%v", st.State, st.Result != nil)
	}

	// The proxied terminal frame agrees with the gateway polling view.
	code, raw = doKey(t, "GET", gts.URL+"/v1/jobs/"+js.ID, "", "")
	if code != http.StatusOK {
		t.Fatalf("poll = %d", code)
	}
	var polled api.JobStatus
	if err := json.Unmarshal(raw, &polled); err != nil {
		t.Fatal(err)
	}
	streamed, _ := json.Marshal(st)
	repolled, _ := json.Marshal(polled)
	if !bytes.Equal(streamed, repolled) {
		t.Errorf("proxied stream diverges from polling:\n%s\n%s", streamed, repolled)
	}
}

// TestGatewaySweepSSE streams a fanned-out sweep from the gateway's
// own event log, with a mid-stream Last-Event-ID reconnect, and checks
// the streamed cells against the gateway's ?cells=1 polling view
// byte for byte.
func TestGatewaySweepSSE(t *testing.T) {
	pa, _, _ := newShard(t, "a", service.Config{Workers: 1})
	pb, _, _ := newShard(t, "b", service.Config{Workers: 1})
	_, gts := newGatewayServer(t, Config{Peers: []Peer{pa, pb}})

	code, raw, _ := postJSON(t, gts.URL+"/v1/sweeps",
		`{"kinds":["d2m-ns-r"],"benchmarks":["tpc-c"],"nodes":2,"warmup":200,"measure":500,
		  "seeds":[1,2,3],"link_bandwidths":[0.001,0.002]}`)
	if code != http.StatusAccepted {
		t.Fatalf("sweep = %d (%s)", code, raw)
	}
	var st service.SweepStatus
	if err := json.Unmarshal(raw, &st); err != nil {
		t.Fatal(err)
	}
	total := st.Total

	type cellEvent struct {
		Index int             `json:"index"`
		Cell  json.RawMessage `json:"cell"`
	}
	cells := map[int]json.RawMessage{}
	record := func(ev sseEvent) {
		var ce cellEvent
		if err := json.Unmarshal(ev.data, &ce); err != nil {
			t.Fatalf("bad cell event %s: %v", ev.data, err)
		}
		if _, dup := cells[ce.Index]; dup {
			t.Fatalf("cell %d streamed twice", ce.Index)
		}
		cells[ce.Index] = ce.Cell
	}

	// Take one event, drop the stream, resume.
	resp := openSSE(t, gts.URL+"/v1/sweeps/"+st.ID, 0)
	first := readEvents(t, resp.Body, 1, "sweep")
	resp.Body.Close()
	lastID := 0
	for _, ev := range first {
		if ev.event != "cell" {
			t.Fatalf("early terminal %q", ev.event)
		}
		record(ev)
		lastID = ev.id
	}

	resp = openSSE(t, gts.URL+"/v1/sweeps/"+st.ID, lastID)
	defer resp.Body.Close()
	for _, ev := range readEvents(t, resp.Body, total+2, "sweep") {
		if ev.id <= lastID {
			t.Errorf("resumed event id %d <= Last-Event-ID %d", ev.id, lastID)
		}
		lastID = ev.id
		if ev.event == "cell" {
			record(ev)
			continue
		}
		if ev.event != "sweep" || ev.id != total+1 {
			t.Fatalf("terminal = %q id %d, want sweep id %d", ev.event, ev.id, total+1)
		}
		var final service.SweepStatus
		if err := json.Unmarshal(ev.data, &final); err != nil {
			t.Fatal(err)
		}
		if final.State != service.SweepDone || final.Done != total || final.Summary == nil {
			t.Errorf("terminal sweep = %s done=%d summary?=%v",
				final.State, final.Done, final.Summary != nil)
		}
	}
	if len(cells) != total {
		t.Fatalf("streamed %d distinct cells, want %d", len(cells), total)
	}

	code, raw = doKey(t, "GET", gts.URL+"/v1/sweeps/"+st.ID+"?cells=1", "", "")
	if code != http.StatusOK {
		t.Fatalf("poll = %d", code)
	}
	var polled service.SweepStatus
	if err := json.Unmarshal(raw, &polled); err != nil {
		t.Fatal(err)
	}
	if len(polled.Cells) != total {
		t.Fatalf("polled %d cells", len(polled.Cells))
	}
	for i, cell := range polled.Cells {
		want, _ := json.Marshal(cell)
		if !bytes.Equal(cells[i], want) {
			t.Errorf("cell %d streamed %s, polled %s", i, cells[i], want)
		}
	}
}

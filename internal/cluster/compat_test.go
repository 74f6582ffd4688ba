package cluster

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"d2m/internal/api"
	"d2m/internal/service"
)

// fakeShard serves /readyz 200 and /v1/capabilities at an arbitrary
// API revision and kind list — a stand-in for a shard running a
// different build.
func fakeShard(t *testing.T, revision string, kinds []string) (*httptest.Server, *atomic.Int64) {
	t.Helper()
	var runs atomic.Int64
	mux := http.NewServeMux()
	mux.HandleFunc("GET /readyz", func(w http.ResponseWriter, r *http.Request) {
		fmt.Fprint(w, `{"status":"ok"}`)
	})
	mux.HandleFunc("GET /v1/capabilities", func(w http.ResponseWriter, r *http.Request) {
		json.NewEncoder(w).Encode(api.Capabilities{APIRevision: revision, Kinds: kinds})
	})
	mux.HandleFunc("POST /v1/run", func(w http.ResponseWriter, r *http.Request) {
		runs.Add(1)
		fmt.Fprint(w, `{"id":"j00000001","state":"done"}`)
	})
	ts := httptest.NewServer(mux)
	t.Cleanup(ts.Close)
	return ts, &runs
}

// TestGatewayRejectsRevisionMismatch: the prober fetches each shard's
// /v1/capabilities once; a shard speaking a different API revision is
// marked Down and never routed to, even though its /readyz says 200.
func TestGatewayRejectsRevisionMismatch(t *testing.T) {
	old, oldRuns := fakeShard(t, "v1.4", api.KindNames())
	pGood, _, _ := newShard(t, "good", service.Config{Workers: 1})

	var (
		logMu sync.Mutex
		logs  []string
	)
	g, gts := newGatewayServer(t, Config{
		Peers: []Peer{{Name: "old", URL: old.URL}, pGood},
		Logf: func(format string, args ...interface{}) {
			logMu.Lock()
			logs = append(logs, fmt.Sprintf(format, args...))
			logMu.Unlock()
		},
	})

	if st := g.peers.stateOf("old"); st != PeerDown {
		t.Fatalf("mismatched peer state = %s, want down", st)
	}
	if st := g.peers.stateOf("good"); st != PeerUp {
		t.Fatalf("matching peer state = %s, want up", st)
	}
	want := fmt.Sprintf("peer old is incompatible: api_revision %q != gateway %q; marking down",
		"v1.4", api.Revision)
	logMu.Lock()
	found := false
	for _, line := range logs {
		if line == want {
			found = true
		}
	}
	if !found {
		t.Errorf("no incompatibility log line; got %q", logs)
	}
	logMu.Unlock()

	// Everything routes to the compatible shard: the mismatched one
	// never sees a run, whatever the warm key hashes to.
	for seed := 0; seed < 4; seed++ {
		body := fmt.Sprintf(
			`{"kind":"d2m-ns-r","benchmark":"tpc-c","nodes":2,"warmup":2000,"measure":4000,"seed":%d}`, seed)
		code, raw, _ := postJSON(t, gts.URL+"/v1/run", body)
		if code != http.StatusOK {
			t.Fatalf("POST /v1/run = %d (%s)", code, raw)
		}
	}
	if n := oldRuns.Load(); n != 0 {
		t.Errorf("mismatched shard received %d runs, want 0", n)
	}

	// The verdict is cached: later probe rounds keep the shard Down
	// without flapping it back Up off its healthy /readyz.
	time.Sleep(250 * time.Millisecond)
	if st := g.peers.stateOf("old"); st != PeerDown {
		t.Errorf("mismatched peer state after re-probe = %s, want down", st)
	}
}

// TestGatewayRejectsStaleKindList: a shard speaking the right API
// revision but advertising an older mechanism registry (missing
// kinds) is marked Down — the gateway would otherwise route adaptive
// jobs to a shard that 400s them.
func TestGatewayRejectsStaleKindList(t *testing.T) {
	stale := api.KindNames()[:4] // pre-registry build: first four kinds only
	old, _ := fakeShard(t, api.Revision, stale)
	pGood, _, _ := newShard(t, "good", service.Config{Workers: 1})

	g, _ := newGatewayServer(t, Config{
		Peers: []Peer{{Name: "old", URL: old.URL}, pGood},
	})
	if st := g.peers.stateOf("old"); st != PeerDown {
		t.Errorf("stale-kind peer state = %s, want down", st)
	}
	if st := g.peers.stateOf("good"); st != PeerUp {
		t.Errorf("full-registry peer state = %s, want up", st)
	}
}

// TestGatewayCapabilitiesRevision: the gateway relays a v1.5
// capabilities payload from a live shard.
func TestGatewayCapabilitiesRevision(t *testing.T) {
	p, _, _ := newShard(t, "a", service.Config{Workers: 1})
	_, gts := newGatewayServer(t, Config{Peers: []Peer{p}})

	code, raw := getJSON(t, gts.URL+"/v1/capabilities")
	if code != http.StatusOK {
		t.Fatalf("GET /v1/capabilities = %d", code)
	}
	var caps api.Capabilities
	if err := json.Unmarshal(raw, &caps); err != nil {
		t.Fatal(err)
	}
	if caps.APIRevision != api.Revision {
		t.Errorf("api_revision = %q, want %q", caps.APIRevision, api.Revision)
	}
	if caps.MaxLanes < 1 {
		t.Errorf("max_lanes = %d, want populated", caps.MaxLanes)
	}
}

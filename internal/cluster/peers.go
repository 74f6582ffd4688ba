package cluster

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"strings"
	"sync"
	"time"

	"d2m/internal/api"
)

// PeerState is a shard's health as seen by the gateway's prober.
type PeerState int32

const (
	// PeerUp: /readyz answered 200; the peer is in the hash ring.
	PeerUp PeerState = iota
	// PeerDraining: the peer answers HTTP but refuses new admissions
	// (/readyz 503). It is out of the ring — its hash range is remapped
	// to ring successors — but still serves status and cancel for jobs
	// it already holds, so in-flight work finishes where it started.
	PeerDraining
	// PeerDown: the peer is unreachable (or has not been probed yet).
	PeerDown
)

func (s PeerState) String() string {
	switch s {
	case PeerUp:
		return "up"
	case PeerDraining:
		return "draining"
	default:
		return "down"
	}
}

// Peer is one scheduler shard: a name (stable across restarts — it
// keys the hash ring and labels the shard's metrics) and the base URL
// of its v1 API.
type Peer struct {
	Name string
	URL  string // http://host:port, no trailing slash
}

// ParsePeers parses the -peers flag format: comma-separated
// "name=url" entries, or bare URLs that are assigned the names
// shard0, shard1, ... in order.
func ParsePeers(spec string) ([]Peer, error) {
	var peers []Peer
	seen := map[string]bool{}
	for i, entry := range strings.Split(spec, ",") {
		entry = strings.TrimSpace(entry)
		if entry == "" {
			continue
		}
		var p Peer
		if name, url, ok := strings.Cut(entry, "="); ok && !strings.Contains(name, "/") {
			p = Peer{Name: strings.TrimSpace(name), URL: strings.TrimSpace(url)}
		} else {
			p = Peer{Name: fmt.Sprintf("shard%d", i), URL: entry}
		}
		p.URL = strings.TrimRight(p.URL, "/")
		if !strings.HasPrefix(p.URL, "http://") && !strings.HasPrefix(p.URL, "https://") {
			return nil, fmt.Errorf("cluster: peer %q: URL %q must be http(s)", p.Name, p.URL)
		}
		if seen[p.Name] {
			return nil, fmt.Errorf("cluster: duplicate peer name %q", p.Name)
		}
		seen[p.Name] = true
		peers = append(peers, p)
	}
	if len(peers) == 0 {
		return nil, fmt.Errorf("cluster: no peers in %q", spec)
	}
	return peers, nil
}

// peerSet tracks the fleet's membership and health and derives the
// hash ring from the peers that are currently Up. The ring is rebuilt
// on every state change and read through an atomic-ish snapshot under
// the same mutex (membership changes are rare; lookups cheap).
type peerSet struct {
	peers []Peer // fixed at construction, ring order irrelevant

	mu    sync.Mutex
	state map[string]PeerState
	ring  *Ring // over Up peers only
}

func newPeerSet(peers []Peer) *peerSet {
	ps := &peerSet{peers: peers, state: make(map[string]PeerState, len(peers))}
	for _, p := range peers {
		ps.state[p.Name] = PeerDown // unknown until probed
	}
	ps.rebuildLocked()
	return ps
}

// rebuildLocked recomputes the ring from the Up peers. Callers hold mu.
func (ps *peerSet) rebuildLocked() {
	var up []string
	for _, p := range ps.peers {
		if ps.state[p.Name] == PeerUp {
			up = append(up, p.Name)
		}
	}
	ps.ring = NewRing(up)
}

// setState records a peer's probed (or observed) state, rebuilding the
// ring when it changed. Returns true when the state changed.
func (ps *peerSet) setState(name string, st PeerState) bool {
	ps.mu.Lock()
	defer ps.mu.Unlock()
	if ps.state[name] == st {
		return false
	}
	ps.state[name] = st
	ps.rebuildLocked()
	return true
}

// stateOf returns a peer's current state.
func (ps *peerSet) stateOf(name string) PeerState {
	ps.mu.Lock()
	defer ps.mu.Unlock()
	return ps.state[name]
}

// owners resolves key to up to n live candidate peers: the ring owner
// first, then its failover successors.
func (ps *peerSet) owners(key string, n int) []Peer {
	ps.mu.Lock()
	names := ps.ring.Owners(key, n)
	ps.mu.Unlock()
	out := make([]Peer, 0, len(names))
	for _, name := range names {
		if p, ok := ps.byName(name); ok {
			out = append(out, p)
		}
	}
	return out
}

// byName finds a peer by name regardless of state (status and cancel
// for already-routed jobs must reach draining peers too).
func (ps *peerSet) byName(name string) (Peer, bool) {
	for _, p := range ps.peers {
		if p.Name == name {
			return p, true
		}
	}
	return Peer{}, false
}

// counts returns how many peers are in each state.
func (ps *peerSet) counts() (up, draining, down int) {
	ps.mu.Lock()
	defer ps.mu.Unlock()
	for _, st := range ps.state {
		switch st {
		case PeerUp:
			up++
		case PeerDraining:
			draining++
		default:
			down++
		}
	}
	return
}

// snapshot lists every peer with its state, in configuration order.
func (ps *peerSet) snapshot() []struct {
	Peer
	State PeerState
} {
	ps.mu.Lock()
	defer ps.mu.Unlock()
	out := make([]struct {
		Peer
		State PeerState
	}, len(ps.peers))
	for i, p := range ps.peers {
		out[i].Peer = p
		out[i].State = ps.state[p.Name]
	}
	return out
}

// live lists the peers that answer HTTP (Up or Draining), in
// configuration order.
func (ps *peerSet) live() []Peer {
	var out []Peer
	for _, entry := range ps.snapshot() {
		if entry.State != PeerDown {
			out = append(out, entry.Peer)
		}
	}
	return out
}

// probe checks one peer's /readyz: 200 is Up, any other HTTP answer is
// Draining (the shard is alive but not admitting — draining or still
// replaying its journal), and a transport error is Down.
func probe(ctx context.Context, p Peer) PeerState {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, p.URL+"/readyz", nil)
	if err != nil {
		return PeerDown
	}
	resp, err := client.Do(req)
	if err != nil {
		return PeerDown
	}
	resp.Body.Close()
	if resp.StatusCode == http.StatusOK {
		return PeerUp
	}
	return PeerDraining
}

// verifyPeer checks an Up peer's compatibility once: the gateway
// fetches its /v1/capabilities and compares api_revision against its
// own, and checks the peer advertises every kind the gateway routes
// (a shard built against an older mechanism registry would 400 any
// request for a kind it does not know, after the gateway already
// admitted it). A mismatched shard is kept out of the ring (Down) —
// routing to it would relay responses in a shape the gateway does not
// speak — and the mismatch is logged. The same fetch records whether
// the peer enforces tenants (see Auth). The verdict is cached per
// peer, so the fleet pays one capabilities fetch per shard, not one
// per probe round; a fetch that fails outright reads as Down and is
// retried on the next round.
func (g *Gateway) verifyPeer(ctx context.Context, p Peer) PeerState {
	g.compatMu.Lock()
	pc, seen := g.compat[p.Name]
	g.compatMu.Unlock()
	if seen {
		if pc.ok {
			return PeerUp
		}
		return PeerDown
	}
	fr, err := do(ctx, p, http.MethodGet, "/v1/capabilities", nil, "")
	if err != nil || fr.status != http.StatusOK {
		return PeerDown
	}
	var caps api.Capabilities
	if err := json.Unmarshal(fr.body, &caps); err != nil {
		return PeerDown
	}
	compatible := caps.APIRevision == api.Revision
	if !compatible {
		g.logf("peer %s is incompatible: api_revision %q != gateway %q; marking down",
			p.Name, caps.APIRevision, api.Revision)
	} else if missing := missingKinds(caps.Kinds); len(missing) > 0 {
		compatible = false
		g.logf("peer %s is incompatible: kinds %v not advertised; marking down",
			p.Name, missing)
	}
	g.compatMu.Lock()
	g.compat[p.Name] = peerCaps{ok: compatible, tenancy: caps.Tenancy != nil}
	g.compatMu.Unlock()
	if !compatible {
		return PeerDown
	}
	return PeerUp
}

// tenancy reports whether any compatible peer enforces tenants.
func (g *Gateway) tenancy() bool {
	g.compatMu.Lock()
	defer g.compatMu.Unlock()
	for _, pc := range g.compat {
		if pc.ok && pc.tenancy {
			return true
		}
	}
	return false
}

// missingKinds returns the gateway's kinds that a peer's advertised
// list lacks (empty when the peer covers all of them; extra peer-side
// kinds are fine — the gateway simply never routes them).
func missingKinds(peerKinds []string) []string {
	have := make(map[string]bool, len(peerKinds))
	for _, k := range peerKinds {
		have[k] = true
	}
	var missing []string
	for _, k := range api.KindNames() {
		if !have[k] {
			missing = append(missing, k)
		}
	}
	return missing
}

// probeAll probes every peer once, concurrently, and applies the
// results. Returns true when any state changed.
func (g *Gateway) probeAll(ctx context.Context) bool {
	type res struct {
		name string
		st   PeerState
	}
	ch := make(chan res, len(g.peers.peers))
	for _, p := range g.peers.peers {
		go func(p Peer) {
			pctx, cancel := context.WithTimeout(ctx, probeTimeout)
			defer cancel()
			st := probe(pctx, p)
			if st == PeerUp {
				st = g.verifyPeer(pctx, p)
			}
			ch <- res{p.Name, st}
		}(p)
	}
	changed := false
	for range g.peers.peers {
		r := <-ch
		if g.peers.setState(r.name, r.st) {
			changed = true
			g.logf("peer %s is %s", r.name, r.st)
		}
	}
	return changed
}

// prober re-probes the fleet at the configured interval until the
// gateway shuts down.
func (g *Gateway) prober() {
	defer g.wg.Done()
	t := time.NewTicker(g.probeInterval)
	defer t.Stop()
	for {
		select {
		case <-g.ctx.Done():
			return
		case <-t.C:
			g.probeAll(g.ctx)
		}
	}
}

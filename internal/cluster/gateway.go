package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"d2m/internal/api"
	"d2m/internal/service"
)

// Config sizes the gateway. Peers is mandatory; everything else has a
// production-sane default.
type Config struct {
	// Peers is the fixed fleet membership: each entry names one
	// scheduler shard and its base URL. Names key the hash ring, the
	// job-id routing suffix, and log/metric attribution — keep them
	// stable across restarts or warm identities remap away from their
	// accumulated snapshot state.
	Peers []Peer
	// ProbeInterval is the readiness-probe period. Zero means 2s.
	ProbeInterval time.Duration
	// MergeStores lists shard journal paths to replay into the gateway
	// cache at startup (one JSONL journal per shard): a fleet restart
	// then resumes from the union of what any shard completed, even for
	// keys the ring now assigns to a different shard.
	MergeStores []string
	// Logf, when non-nil, receives gateway lifecycle log lines (peer
	// state changes, sweep remaps).
	Logf func(format string, args ...interface{})
}

const (
	// probeTimeout bounds one readiness probe and capabilities fetch.
	probeTimeout = 2 * time.Second
	// maxAttempts bounds how many distinct shards one submission may be
	// offered: the ring owner plus failover successors.
	maxAttempts = 3
	// cacheEntries is the gateway result-cache capacity.
	cacheEntries = 4096
)

// client forwards and probes. It has no overall timeout: synchronous
// runs are legitimately long, and cancellation flows through request
// contexts.
var client = &http.Client{}

// Gateway fronts a fleet of scheduler shards behind the single-server
// v1 API. It is the cluster-mode service.Backend under the service's
// own HTTP layer: submissions are consistent-hashed by warm-identity
// key onto shards, replies come back with job ids rewritten to the
// routable <localid>@<shard> form, and sweep cells are partitioned by
// ring owner into shard-local sub-sweeps, so snapshot reuse and
// coalescing never split across processes. The shards stay the
// admission authority: the caller's X-API-Key rides along on every
// hop.
type Gateway struct {
	peers         *peerSet
	cache         *service.ResultCache
	handler       http.Handler
	probeInterval time.Duration
	logf          func(string, ...interface{})

	// ctx ends at Shutdown, stopping the prober and every fleet sweep;
	// wg tracks both, and mu keeps sweep work from joining wg once ctx
	// has ended.
	ctx    context.Context
	cancel context.CancelFunc
	mu     sync.Mutex
	wg     sync.WaitGroup

	metrics gatewayMetrics

	// compatMu guards compat: the per-peer verdict of the one-time
	// capabilities check the prober runs.
	compatMu sync.Mutex
	compat   map[string]peerCaps
}

// peerCaps is what the prober learned from a peer's capabilities.
type peerCaps struct {
	ok      bool // same API revision and every gateway kind
	tenancy bool // the peer enforces X-API-Key tenants
}

// gatewayMetrics are the gateway's own counters, rendered on
// GET /metrics next to the per-shard peer-state gauges.
type gatewayMetrics struct {
	RunsForwarded    atomic.Uint64 // POST /v1/run forwarded to a shard
	BatchesForwarded atomic.Uint64 // sub-batches forwarded to shards
	SweepsAccepted   atomic.Uint64 // fleet sweeps accepted
	CacheHits        atomic.Uint64 // requests served from the gateway cache
	Failovers        atomic.Uint64 // forwards that left the ring owner for a successor
	StoreLoaded      atomic.Uint64 // journal records merged at startup
	CellsRemapped    atomic.Uint64 // sweep cells remapped off a lost or draining shard
	TracesForwarded  atomic.Uint64 // trace uploads fanned out to the fleet
}

// New builds the gateway, merges the configured shard journals into
// its result cache, runs one synchronous probe round (so the first
// request after startup sees real ring membership), and starts the
// background prober.
func New(cfg Config) (*Gateway, error) {
	if len(cfg.Peers) == 0 {
		return nil, fmt.Errorf("cluster: gateway needs at least one peer")
	}
	if cfg.ProbeInterval <= 0 {
		cfg.ProbeInterval = 2 * time.Second
	}
	g := &Gateway{
		peers:         newPeerSet(cfg.Peers),
		cache:         service.NewResultCache(cacheEntries),
		probeInterval: cfg.ProbeInterval,
		logf:          cfg.Logf,
		compat:        make(map[string]peerCaps),
	}
	if g.logf == nil {
		g.logf = func(string, ...interface{}) {}
	}
	for _, path := range cfg.MergeStores {
		recs, err := service.ReplayJournal(path)
		if err != nil {
			return nil, fmt.Errorf("cluster: merge store %s: %w", path, err)
		}
		for _, rec := range recs {
			g.cache.Put(rec.Key, rec.Result)
		}
		g.metrics.StoreLoaded.Add(uint64(len(recs)))
	}
	g.ctx, g.cancel = context.WithCancel(context.Background())
	g.probeAll(g.ctx)
	g.wg.Add(1)
	go g.prober()
	g.handler = service.NewHandler(g)
	return g, nil
}

// Handler returns the gateway's HTTP handler: the v1 surface a shard
// serves, minus the shard-only /admin routes.
func (g *Gateway) Handler() http.Handler { return g.handler }

// Shutdown stops the prober and cancels outstanding fleet sweeps,
// waiting for both. Runs and batches already forwarded are not
// touched: the shards finish them and land them in their journals.
func (g *Gateway) Shutdown(ctx context.Context) error {
	g.mu.Lock()
	g.cancel()
	g.mu.Unlock()
	done := make(chan struct{})
	go func() { g.wg.Wait(); close(done) }()
	select {
	case <-done:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// begin registers sweep work with Shutdown's wait; it returns false
// once Shutdown has begun.
func (g *Gateway) begin() bool {
	g.mu.Lock()
	defer g.mu.Unlock()
	if g.ctx.Err() != nil {
		return false
	}
	g.wg.Add(1)
	return true
}

// ---------------------------------------------------------------------------
// Forwarding.

// forwardResult is one buffered shard response.
type forwardResult struct {
	status int
	body   []byte
	peer   Peer
}

// errNoShard answers requests no live shard could take.
var errNoShard = api.Errorf(api.ErrDraining, "no scheduler shard available")

// newRequest builds a request to p carrying the caller's API key: with
// a tenant-configured fleet the shard is the authority on admission,
// so the key is forwarded on every hop.
func newRequest(ctx context.Context, p Peer, method, path string, body []byte, apiKey string) (*http.Request, error) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequestWithContext(ctx, method, p.URL+path, rd)
	if err != nil {
		return nil, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	if apiKey != "" {
		req.Header.Set("X-API-Key", apiKey)
	}
	return req, nil
}

// send issues req to p and buffers the answer.
func send(req *http.Request, p Peer) (forwardResult, error) {
	resp, err := client.Do(req)
	if err != nil {
		return forwardResult{}, err
	}
	defer resp.Body.Close()
	buf, err := io.ReadAll(io.LimitReader(resp.Body, 64<<20))
	if err != nil {
		return forwardResult{}, err
	}
	return forwardResult{status: resp.StatusCode, body: buf, peer: p}, nil
}

// do issues one forwarded request to a specific peer.
func do(ctx context.Context, p Peer, method, path string, body []byte, apiKey string) (forwardResult, error) {
	req, err := newRequest(ctx, p, method, path, body, apiKey)
	if err != nil {
		return forwardResult{}, err
	}
	return send(req, p)
}

// shardError is the error a shard's non-success answer renders as: its
// own envelope, so status, code and Retry-After relay unchanged.
func shardError(fr forwardResult) *api.Error {
	var eb api.ErrorBody
	if json.Unmarshal(fr.body, &eb) != nil || eb.Error.Code == "" {
		return api.Errorf(api.ErrInternal, "shard %s answered HTTP %d", fr.peer.Name, fr.status)
	}
	return eb.Error.Err()
}

// shardReply decodes a shard's job-shaped answer: a status comes back
// with its id routed, and anything else (an error envelope does not
// decode as a status) as the shard's error.
func shardReply(fr forwardResult) (api.JobStatus, error) {
	var st api.JobStatus
	if json.Unmarshal(fr.body, &st) != nil {
		return st, shardError(fr)
	}
	if st.ID != "" {
		st.ID = routedID(st.ID, fr.peer)
	}
	return st, nil
}

// try forwards one request to p. A transport failure marks p Down and
// a draining rejection marks it Draining; both are errors after which
// the caller offers the request to another shard (safe:
// submissions are content-addressed and idempotent).
func (g *Gateway) try(ctx context.Context, p Peer, method, path string, body []byte, apiKey string) (forwardResult, error) {
	fr, err := do(ctx, p, method, path, body, apiKey)
	switch {
	case err != nil && ctx.Err() != nil:
		return fr, ctx.Err()
	case err != nil:
		g.peers.setState(p.Name, PeerDown)
		g.logf("peer %s is down (%v)", p.Name, err)
		return fr, err
	case fr.status == http.StatusServiceUnavailable && shardError(fr).Code == api.ErrDraining:
		g.peers.setState(p.Name, PeerDraining)
		g.logf("peer %s is draining", p.Name)
		return fr, errNoShard
	}
	return fr, nil
}

// forwardKey routes one request by warm-identity key: the ring owner
// first, then failover successors, at most maxAttempts distinct
// shards. Every answer but a lost or draining shard — including 429
// with its Retry-After — is returned as-is.
func (g *Gateway) forwardKey(ctx context.Context, key, method, path string, body []byte, apiKey string) (forwardResult, error) {
	for attempt := 0; attempt < maxAttempts; attempt++ {
		owners := g.peers.owners(key, maxAttempts)
		if len(owners) == 0 {
			return forwardResult{}, errNoShard
		}
		if attempt > 0 {
			g.metrics.Failovers.Add(1)
		}
		fr, err := g.try(ctx, owners[min(attempt, len(owners)-1)], method, path, body, apiKey)
		if err == nil || ctx.Err() != nil {
			return fr, err
		}
	}
	return forwardResult{}, errNoShard
}

// read decodes GET path from the first reachable shard into v; a
// homogeneous fleet answers alike everywhere.
func (g *Gateway) read(ctx context.Context, path, apiKey string, v interface{}) error {
	for _, p := range g.peers.live() {
		fr, err := do(ctx, p, http.MethodGet, path, nil, apiKey)
		if err != nil {
			continue
		}
		if fr.status != http.StatusOK {
			return shardError(fr)
		}
		return json.Unmarshal(fr.body, v)
	}
	return errNoShard
}

// ---------------------------------------------------------------------------
// Job-id routing.

// routedID renders a shard-local job id in the gateway's routable
// form, and splitRouted parses it back.
func routedID(local string, p Peer) string { return local + "@" + p.Name }

func splitRouted(id string) (local, peer string, ok bool) {
	i := strings.LastIndexByte(id, '@')
	if i <= 0 || i == len(id)-1 {
		return "", "", false
	}
	return id[:i], id[i+1:], true
}

// route resolves a routed job id to its shard. Draining and down
// shards still resolve: status and cancel for in-flight jobs on a
// draining shard must keep working.
func (g *Gateway) route(id string) (Peer, string, error) {
	local, name, ok := splitRouted(id)
	if !ok {
		return Peer{}, "", api.Errorf(api.ErrNotFound, "unknown job id %q", id)
	}
	p, ok := g.peers.byName(name)
	if !ok {
		return Peer{}, "", api.Errorf(api.ErrNotFound, "unknown shard %q in job id %q", name, id)
	}
	return p, local, nil
}

// ---------------------------------------------------------------------------
// The remote Backend.

var _ service.Backend = (*Gateway)(nil)

// Auth leaves admission to the shards, which hold the tenant registry
// and charge every forwarded submission, so n is not charged here. On
// a tenant-configured fleet it still checks the key against one shard
// — its capabilities name a tenant only for a valid key — so what the
// gateway answers by itself (sweeps, listings, cached results) gets
// the 401 a shard would give. The caller value is the raw key.
func (g *Gateway) Auth(ctx context.Context, apiKey string, n int) (string, error) {
	if !g.tenancy() {
		return apiKey, nil
	}
	if apiKey == "" {
		return "", api.Unauthorized(apiKey)
	}
	caps, err := g.Capabilities(ctx, apiKey)
	if err != nil {
		return "", err
	}
	if caps.Tenancy != nil && caps.Tenancy.Tenant == "" {
		return "", api.Unauthorized(apiKey)
	}
	return apiKey, nil
}

// Draining is false: a gateway has no admission of its own to close.
func (g *Gateway) Draining() bool { return false }

// Run serves a single run from the gateway cache or forwards it to the
// ring owner of its warm identity. The cache holds single runs only: a
// replicated run is always forwarded, and the shard answers it from
// its seeds.
func (g *Gateway) Run(ctx context.Context, apiKey string, run service.Run) (api.JobStatus, error) {
	key := run.CacheKey()
	if res, ok := g.cache.Get(key); ok && run.Reps < 2 {
		g.metrics.CacheHits.Add(1)
		return run.CachedStatus(res, nil), nil
	}
	body, _ := json.Marshal(run.Req) // plain fields: cannot fail
	fr, err := g.forwardKey(ctx, run.Key().String(), http.MethodPost, "/v1/run", body, apiKey)
	if err != nil {
		return api.JobStatus{}, err
	}
	g.metrics.RunsForwarded.Add(1)
	st, err := shardReply(fr)
	if err == nil && run.Reps < 2 && st.State == api.JobDone && st.Result != nil {
		g.cache.Put(key, *st.Result)
	}
	return st, err
}

func (g *Gateway) Job(ctx context.Context, apiKey, id string) (api.JobStatus, error) {
	return g.jobCall(ctx, http.MethodGet, apiKey, id)
}

func (g *Gateway) CancelJob(ctx context.Context, apiKey, id string) (api.JobStatus, error) {
	return g.jobCall(ctx, http.MethodDelete, apiKey, id)
}

// jobCall forwards a job status or cancel request to the shard named
// in the routed id.
func (g *Gateway) jobCall(ctx context.Context, method, apiKey, id string) (api.JobStatus, error) {
	p, local, err := g.route(id)
	if err != nil {
		return api.JobStatus{}, err
	}
	fr, err := do(ctx, p, method, "/v1/jobs/"+local, nil, apiKey)
	if err != nil {
		return api.JobStatus{}, api.Errorf(api.ErrInternal, "shard %s unreachable: %v", p.Name, err)
	}
	return shardReply(fr)
}

// Jobs merges the fleet's job listings: every Up or Draining shard is
// asked for its newest jobs, ids are rewritten to routable form, and
// the merged list is sorted by routed id (j%08d@shard), newest first.
// A routed cursor L@S pages across shards: the jobs after it in that
// order are those below L on S and on every shard named after S, and
// those up to and including L on every shard named before S. The next
// cursor is set when the merge was truncated or a shard had more.
func (g *Gateway) Jobs(ctx context.Context, apiKey string, q service.JobQuery) (service.JobList, error) {
	v := url.Values{"limit": {strconv.Itoa(q.Limit)}}
	if q.State != "" {
		v.Set("state", string(q.State))
	}
	local, cursorShard, paged := splitRouted(q.Cursor)
	merged := service.JobList{Jobs: []api.JobStatus{}}
	more := false
	for _, p := range g.peers.live() {
		if paged {
			// A shard lists ids strictly below its cursor; the
			// smallest string above local lets it list local itself.
			c := local
			if p.Name < cursorShard {
				c += "\x00"
			}
			v.Set("cursor", c)
		}
		fr, err := do(ctx, p, http.MethodGet, "/v1/jobs?"+v.Encode(), nil, apiKey)
		if err != nil || fr.status != http.StatusOK {
			continue
		}
		var page service.JobList
		if json.Unmarshal(fr.body, &page) != nil {
			continue
		}
		for i := range page.Jobs {
			page.Jobs[i].ID = routedID(page.Jobs[i].ID, p)
		}
		merged.Jobs = append(merged.Jobs, page.Jobs...)
		more = more || page.NextCursor != ""
	}
	sort.SliceStable(merged.Jobs, func(a, b int) bool { return merged.Jobs[a].ID > merged.Jobs[b].ID })
	if len(merged.Jobs) > q.Limit {
		merged.Jobs, more = merged.Jobs[:q.Limit], true
	}
	if more && len(merged.Jobs) > 0 {
		merged.NextCursor = merged.Jobs[len(merged.Jobs)-1].ID
	}
	return merged, nil
}

// Capabilities relays the catalog of the first reachable shard (it is
// identical across a homogeneous fleet).
func (g *Gateway) Capabilities(ctx context.Context, apiKey string) (api.Capabilities, error) {
	var caps api.Capabilities
	err := g.read(ctx, "/v1/capabilities", apiKey, &caps)
	return caps, err
}

func (g *Gateway) Health() interface{} {
	up, draining, down := g.peers.counts()
	return map[string]interface{}{
		"status": "ok",
		"mode":   "gateway",
		"peers":  map[string]int{"up": up, "draining": draining, "down": down},
		"cached": g.cache.Len(),
	}
}

// Readiness: the gateway is ready when at least one shard can take
// work.
func (g *Gateway) Readiness() (string, bool) {
	if up, _, _ := g.peers.counts(); up == 0 {
		return "no shards", false
	}
	return "ok", true
}

func (g *Gateway) WriteMetrics(w io.Writer) {
	counter := func(name, help string, v uint64) {
		fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s counter\n%s %d\n", name, help, name, name, v)
	}
	counter("d2m_gateway_runs_forwarded_total", "Runs forwarded to a shard.", g.metrics.RunsForwarded.Load())
	counter("d2m_gateway_batches_forwarded_total", "Sub-batches forwarded to shards.", g.metrics.BatchesForwarded.Load())
	counter("d2m_gateway_sweeps_accepted_total", "Fleet sweeps accepted.", g.metrics.SweepsAccepted.Load())
	counter("d2m_gateway_cache_hits_total", "Requests served from the gateway result cache.", g.metrics.CacheHits.Load())
	counter("d2m_gateway_failovers_total", "Forwards that left the ring owner for a successor.", g.metrics.Failovers.Load())
	counter("d2m_gateway_store_loaded_total", "Journal records merged at startup.", g.metrics.StoreLoaded.Load())
	counter("d2m_gateway_cells_remapped_total", "Sweep cells remapped off a lost or draining shard.", g.metrics.CellsRemapped.Load())
	counter("d2m_gateway_traces_forwarded_total", "Trace uploads fanned out to the fleet.", g.metrics.TracesForwarded.Load())
	fmt.Fprintf(w, "# HELP d2m_gateway_peer_up Peer readiness by shard (1 up, 0 not).\n# TYPE d2m_gateway_peer_up gauge\n")
	for _, entry := range g.peers.snapshot() {
		v := 0
		if entry.State == PeerUp {
			v = 1
		}
		fmt.Fprintf(w, "d2m_gateway_peer_up{peer=%q} %d\n", entry.Name, v)
	}
}

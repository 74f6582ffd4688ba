package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"time"

	"d2m"
	"d2m/internal/api"
	"d2m/internal/cluster"
	"d2m/internal/service"
)

// mixClients is the number of closed-loop clients: service callers are
// scripts that wait for each reply before sending the next request.
const mixClients = 2

// backend is a served system under test: the URL clients send to, and
// the /metrics endpoints the per-layer deltas scrape.
type backend struct {
	url     string
	shards  []string // service /metrics sources: the server, or each shard
	gateway string   // gateway base URL; "" without a gateway
	dir     string
	closers []func()
}

func (b *backend) close() {
	for i := len(b.closers) - 1; i >= 0; i-- {
		b.closers[i]()
	}
	os.RemoveAll(b.dir)
}

// runner is service.Config.Runner's shape; nil means the real engine.
type runner = func(ctx context.Context, kind d2m.Kind, bench string, opt d2m.Options) (d2m.Result, error)

// newHTTPClient is the benchmark's one HTTP client: at most nproc
// keep-alive connections per host, no proxy.
func newHTTPClient() *http.Client {
	n := runtime.NumCPU()
	return &http.Client{Transport: &http.Transport{
		MaxConnsPerHost:     n,
		MaxIdleConnsPerHost: n,
		IdleConnTimeout:     time.Minute,
	}}
}

// startShard serves one service.Server with a JSONL journal under dir.
func startShard(b *backend, name string, workers int, run runner) (string, error) {
	srv, err := service.New(service.Config{
		Workers:   workers,
		StorePath: filepath.Join(b.dir, name+".jsonl"),
		Runner:    run,
	})
	if err != nil {
		return "", err
	}
	ts := httptest.NewServer(srv.Handler())
	b.closers = append(b.closers, func() {
		ts.Close()
		ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
		defer cancel()
		srv.Shutdown(ctx)
	})
	return ts.URL, nil
}

// setupBackend builds service-mixed's single server (gateway false) or
// gateway-mixed's gateway over two shards that together have as many
// workers as the single server, and waits until the front end answers
// /readyz.
func setupBackend(ctx context.Context, hc *http.Client, work string, gateway bool, run runner, tr *tracer) (*backend, error) {
	dir, err := os.MkdirTemp(work, "service-")
	if err != nil {
		return nil, err
	}
	b := &backend{dir: dir}
	fail := func(err error) (*backend, error) {
		b.close()
		return nil, err
	}
	if !gateway {
		id := tr.start("service.New", 0, 0)
		u, err := startShard(b, "single", 0, run)
		tr.end(id)
		if err != nil {
			return fail(err)
		}
		b.url, b.shards = u, []string{u}
	} else {
		w := runtime.GOMAXPROCS(0)
		split := []int{(w + 1) / 2, max(1, w/2)}
		var peers []cluster.Peer
		for i, n := range split {
			name := fmt.Sprintf("s%d", i)
			id := tr.start("service.New", 0, 0)
			u, err := startShard(b, name, n, run)
			tr.end(id)
			if err != nil {
				return fail(err)
			}
			peers = append(peers, cluster.Peer{Name: name, URL: u})
			b.shards = append(b.shards, u)
		}
		id := tr.start("cluster.New", 0, 0)
		g, err := cluster.New(cluster.Config{Peers: peers})
		tr.end(id)
		if err != nil {
			return fail(err)
		}
		ts := httptest.NewServer(g.Handler())
		b.closers = append(b.closers, func() {
			ts.Close()
			ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
			defer cancel()
			g.Shutdown(ctx)
		})
		b.url, b.gateway = ts.URL, ts.URL
	}
	id := tr.start("http.readyz", 0, 0)
	err = waitReady(ctx, hc, b.url)
	tr.end(id)
	if err != nil {
		return fail(err)
	}
	return b, nil
}

// waitReady polls /readyz until it answers 200.
func waitReady(ctx context.Context, hc *http.Client, base string) error {
	deadline := time.Now().Add(30 * time.Second)
	for {
		status, _, err := get(ctx, hc, base+"/readyz")
		if err == nil && status == http.StatusOK {
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("%s/readyz not ready (status %d, %v)", base, status, err)
		}
		time.Sleep(time.Millisecond)
	}
}

// get fetches a URL and returns its status and drained body.
func get(ctx context.Context, hc *http.Client, url string) (int, []byte, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	if err != nil {
		return 0, nil, err
	}
	resp, err := hc.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	return resp.StatusCode, body, err
}

// scrape reads and parses one /metrics endpoint.
func scrape(ctx context.Context, hc *http.Client, base string) (exposition, error) {
	status, body, err := get(ctx, hc, base+"/metrics")
	if err != nil {
		return nil, err
	}
	if status != http.StatusOK {
		return nil, fmt.Errorf("%s/metrics: status %d", base, status)
	}
	return parseExposition(bytes.NewReader(body))
}

// scrapes holds one scrape of every service shard and of the gateway.
type scrapes struct{ service, gateway exposition }

func (b *backend) scrapeAll(ctx context.Context, hc *http.Client) (scrapes, error) {
	var out scrapes
	for _, u := range b.shards {
		e, err := scrape(ctx, hc, u)
		if err != nil {
			return out, err
		}
		out.service = append(out.service, e...) // sums and quantiles cover the fleet
	}
	if b.gateway != "" {
		e, err := scrape(ctx, hc, b.gateway)
		if err != nil {
			return out, err
		}
		out.gateway = e
	}
	return out, nil
}

func (s scrapes) minus(prev scrapes) scrapes {
	return scrapes{service: s.service.minus(prev.service), gateway: s.gateway.minus(prev.gateway)}
}

// returned is one Result the system under test delivered, kept for
// the untimed byte comparison after the phase.
type returned struct {
	attempt int
	spec    d2m.RunSpec
	body    []byte // compact JSON of the Result
}

// clientLog is one client's record of a phase.
type clientLog struct {
	failedAttempt []bool
	done          []completion
	runs          latencies
	runClass      [3]latencies // by opClass: cold, repeat, warm
	batches       latencies
	sweeps        latencies
	returned      []returned
}

// completion is one successful operation: when it finished (since the
// phase started) and what it delivered.
type completion struct {
	at       time.Duration
	results  int
	accesses int64
}

// errRetry marks a 429: the attempt failed and the operation is retried
// as a new attempt after the advertised delay.
type errRetry struct{ after time.Duration }

func (e *errRetry) Error() string { return fmt.Sprintf("429, retry after %v", e.after) }

// httpClient is one closed-loop client.
type httpClient struct {
	hc    *http.Client
	base  string
	tr    *tracer
	id    int
	start time.Time // phase start
	log   clientLog
}

// loop sends the generator's operations back to back until the
// deadline, each after the previous reply has been fully read.
func (c *httpClient) loop(ctx context.Context, gen *mixGen, deadline time.Time) {
	for time.Now().Before(deadline) {
		o := gen.next()
		for {
			var re *errRetry
			err := c.attempt(ctx, o)
			if !errors.As(err, &re) || !time.Now().Before(deadline) {
				break
			}
			time.Sleep(min(re.after, 250*time.Millisecond))
		}
	}
}

// attempt sends one operation and records its outcome.
func (c *httpClient) attempt(ctx context.Context, o op) error {
	att := len(c.log.failedAttempt)
	c.log.failedAttempt = append(c.log.failedAttempt, false)
	req := int64(c.id)<<40 | int64(att+1)
	root := c.tr.start("client."+o.Class.String(), 0, req)
	t0 := time.Now()
	var rets []returned
	var err error
	switch o.Class {
	case opBatch:
		rets, err = c.batch(ctx, o, root, req)
	case opSweep:
		rets, err = c.sweep(ctx, o, root, req)
	default:
		rets, err = c.run(ctx, o, root, req)
	}
	dt := time.Since(t0)
	c.tr.end(root)
	if err != nil {
		c.log.failedAttempt[att] = true
		fmt.Fprintf(os.Stderr, "client %d %s: %v\n", c.id, o.Class, err)
		return err
	}
	switch o.Class {
	case opBatch:
		c.log.batches.add(dt)
	case opSweep:
		c.log.sweeps.add(dt)
	default:
		c.log.runs.add(dt)
		c.log.runClass[o.Class].add(dt)
	}
	done := completion{at: time.Since(c.start), results: len(rets)}
	for i := range rets {
		rets[i].attempt = att
		done.accesses += int64(rets[i].spec.Options.Warmup + rets[i].spec.Options.Measure)
	}
	c.log.done = append(c.log.done, done)
	c.log.returned = append(c.log.returned, rets...)
	return nil
}

// send issues one request and drains the whole response body before
// closing it, inside an http.<name> span.
func (c *httpClient) send(ctx context.Context, method, path string, body []byte, sse bool, name string, parent int, req int64) (int, []byte, error) {
	id := c.tr.start(name, parent, req)
	defer c.tr.end(id)
	r, err := http.NewRequestWithContext(ctx, method, c.base+path, bytes.NewReader(body))
	if err != nil {
		return 0, nil, err
	}
	if body != nil {
		r.Header.Set("Content-Type", "application/json")
	}
	if sse {
		r.Header.Set("Accept", "text/event-stream")
	}
	resp, err := c.hc.Do(r)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	if sse && resp.StatusCode == http.StatusOK {
		b, err := readSweepStream(resp.Body)
		if err == nil {
			_, err = io.Copy(io.Discard, resp.Body)
		}
		return resp.StatusCode, b, err
	}
	b, err := io.ReadAll(resp.Body)
	return resp.StatusCode, b, err
}

// statusErr turns a non-success response into an error; a 429 becomes
// errRetry with the envelope's retry_after_ms.
func statusErr(status int, body []byte, want int) error {
	if status == want {
		return nil
	}
	if status == http.StatusTooManyRequests {
		var eb api.ErrorBody
		json.Unmarshal(body, &eb)
		return &errRetry{after: max(time.Duration(eb.Error.RetryAfterMS)*time.Millisecond, 10*time.Millisecond)}
	}
	return fmt.Errorf("status %d: %s", status, strings.TrimSpace(string(body)))
}

// wireStatus is the slice of api.JobStatus the client checks: the
// Result stays raw so it can be byte-compared.
type wireStatus struct {
	State  string          `json:"state"`
	Error  string          `json:"error"`
	Result json.RawMessage `json:"result"`
}

// settled checks a returned job status and pairs its compact Result
// with the spec that produced it.
func settled(st wireStatus, spec d2m.RunSpec) (returned, error) {
	if st.State != string(api.JobDone) || len(st.Result) == 0 {
		return returned{}, fmt.Errorf("job %s: %s", st.State, st.Error)
	}
	var buf bytes.Buffer
	if err := json.Compact(&buf, st.Result); err != nil {
		return returned{}, err
	}
	return returned{spec: spec, body: buf.Bytes()}, nil
}

// specOf is the d2m.RunSpec a run request names.
func specOf(r api.RunRequest) (d2m.RunSpec, error) {
	kind, bench, opt, _, _, err := r.Normalize()
	if err != nil {
		return d2m.RunSpec{}, err
	}
	return d2m.RunSpec{Kind: kind, Benchmark: bench, Options: opt}, nil
}

func (c *httpClient) decode(body []byte, v any, parent int, req int64) error {
	id := c.tr.start("api.decode", parent, req)
	defer c.tr.end(id)
	return json.Unmarshal(body, v)
}

func (c *httpClient) run(ctx context.Context, o op, root int, req int64) ([]returned, error) {
	spec, err := specOf(o.Runs[0])
	if err != nil {
		return nil, err
	}
	payload, _ := json.Marshal(o.Runs[0])
	status, body, err := c.send(ctx, http.MethodPost, "/v1/run", payload, false, "http.run", root, req)
	if err != nil {
		return nil, err
	}
	if err := statusErr(status, body, http.StatusOK); err != nil {
		return nil, err
	}
	var st wireStatus
	if err := c.decode(body, &st, root, req); err != nil {
		return nil, err
	}
	r, err := settled(st, spec)
	if err != nil {
		return nil, err
	}
	return []returned{r}, nil
}

func (c *httpClient) batch(ctx context.Context, o op, root int, req int64) ([]returned, error) {
	payload, _ := json.Marshal(api.BatchRequest{Runs: o.Runs})
	status, body, err := c.send(ctx, http.MethodPost, "/v1/batch", payload, false, "http.batch", root, req)
	if err != nil {
		return nil, err
	}
	if err := statusErr(status, body, http.StatusOK); err != nil {
		return nil, err
	}
	var out struct {
		Results []wireStatus `json:"results"`
	}
	if err := c.decode(body, &out, root, req); err != nil {
		return nil, err
	}
	if len(out.Results) != len(o.Runs) {
		return nil, fmt.Errorf("batch returned %d results for %d runs", len(out.Results), len(o.Runs))
	}
	rets := make([]returned, len(o.Runs))
	for i, st := range out.Results {
		spec, err := specOf(o.Runs[i])
		if err != nil {
			return nil, err
		}
		if rets[i], err = settled(st, spec); err != nil {
			return nil, err
		}
	}
	return rets, nil
}

// sweepStream is what a sweep's event stream delivered: every cell
// event and the terminal state.
type sweepStream struct {
	Cells map[int]wireStatus `json:"cells"`
	State string             `json:"state"`
}

// readSweepStream reads a sweep's text/event-stream until the terminal
// "sweep" event and returns the collected cells as JSON.
func readSweepStream(r io.Reader) ([]byte, error) {
	br := bufio.NewReader(r)
	out := sweepStream{Cells: map[int]wireStatus{}}
	var event string
	for {
		line, err := br.ReadString('\n')
		if err != nil {
			return nil, fmt.Errorf("sweep stream ended before its terminal event: %w", err)
		}
		line = strings.TrimRight(line, "\n")
		switch {
		case strings.HasPrefix(line, "event: "):
			event = strings.TrimPrefix(line, "event: ")
		case strings.HasPrefix(line, "data: "):
			data := []byte(strings.TrimPrefix(line, "data: "))
			switch event {
			case "cell":
				var ev struct {
					Index int        `json:"index"`
					Cell  wireStatus `json:"cell"`
				}
				if err := json.Unmarshal(data, &ev); err != nil {
					return nil, err
				}
				out.Cells[ev.Index] = ev.Cell
			case "sweep":
				var st struct {
					State string `json:"state"`
				}
				if err := json.Unmarshal(data, &st); err != nil {
					return nil, err
				}
				out.State = st.State
				return json.Marshal(out)
			}
		}
	}
}

func (c *httpClient) sweep(ctx context.Context, o op, root int, req int64) ([]returned, error) {
	cells, err := o.Sweep.SweepSpec.Expand()
	if err != nil {
		return nil, err
	}
	payload, _ := json.Marshal(o.Sweep)
	status, body, err := c.send(ctx, http.MethodPost, "/v1/sweeps", payload, false, "http.sweep_create", root, req)
	if err != nil {
		return nil, err
	}
	if err := statusErr(status, body, http.StatusAccepted); err != nil {
		return nil, err
	}
	var created struct {
		ID string `json:"id"`
	}
	if err := c.decode(body, &created, root, req); err != nil {
		return nil, err
	}
	status, body, err = c.send(ctx, http.MethodGet, "/v1/sweeps/"+created.ID, nil, true, "http.sweep_stream", root, req)
	if err != nil {
		return nil, err
	}
	if err := statusErr(status, body, http.StatusOK); err != nil {
		return nil, err
	}
	var ss sweepStream
	if err := json.Unmarshal(body, &ss); err != nil {
		return nil, err
	}
	if ss.State != string(service.SweepDone) || len(ss.Cells) != len(cells) {
		return nil, fmt.Errorf("sweep %s ended %s with %d of %d cells", created.ID, ss.State, len(ss.Cells), len(cells))
	}
	rets := make([]returned, len(cells))
	for i, cell := range cells {
		spec := d2m.RunSpec{Kind: cell.Kind, Benchmark: cell.Benchmark, Options: cell.Options}
		if rets[i], err = settled(ss.Cells[i], spec); err != nil {
			return nil, fmt.Errorf("sweep cell %d: %w", i, err)
		}
	}
	return rets, nil
}

// runMix drives the mix against the backend with mixClients
// closed-loop clients for dur. Throughput is also counted per whole
// second of the phase; operations still in flight at the deadline
// count toward the totals only.
func runMix(ctx context.Context, hc *http.Client, b *backend, seed uint64, dur time.Duration, tr *tracer) (*phase, []*httpClient) {
	clients := make([]*httpClient, mixClients)
	mon := startMonitor()
	start := time.Now()
	deadline := start.Add(dur)
	var wg sync.WaitGroup
	for i := range clients {
		c := &httpClient{hc: hc, base: b.url, tr: tr, id: i, start: start}
		clients[i] = c
		wg.Add(1)
		go func() {
			defer wg.Done()
			c.loop(ctx, newMixGen(seed, c.id), deadline)
		}()
	}
	wg.Wait()
	ph := &phase{Elapsed: time.Since(start)}
	mon.stop(ph)
	for k := time.Duration(0); k < dur/time.Second; k++ {
		ph.Windows = append(ph.Windows, window{Dur: time.Second})
	}
	for _, c := range clients {
		ph.Attempted += len(c.log.failedAttempt)
		for _, d := range c.log.done {
			ph.Results += d.results
			ph.Accesses += d.accesses
			if k := int(d.at / time.Second); k < len(ph.Windows) {
				ph.Windows[k].Results += d.results
				ph.Windows[k].Accesses += d.accesses
			}
		}
		ph.Runs = append(ph.Runs, c.log.runs...)
		for k := range ph.RunClass {
			ph.RunClass[k] = append(ph.RunClass[k], c.log.runClass[k]...)
		}
		ph.Batches = append(ph.Batches, c.log.batches...)
		ph.Sweeps = append(ph.Sweeps, c.log.sweeps...)
	}
	return ph, clients
}

// verifyMix byte-compares every delivered Result with d2m.Run on the
// same spec, computed untimed with workers goroutines, and marks the
// attempts that delivered a mismatch as failed. It returns the number
// of failed attempts and of distinct specs checked.
func verifyMix(ctx context.Context, clients []*httpClient, workers int) (failed, specs int, err error) {
	type key struct {
		kind  d2m.Kind
		bench string
		opt   d2m.Options
	}
	want := map[key][]byte{}
	var order []key
	for _, c := range clients {
		for _, r := range c.log.returned {
			k := key{r.spec.Kind, r.spec.Benchmark, r.spec.Options}
			if _, ok := want[k]; !ok {
				want[k] = nil
				order = append(order, k)
			}
		}
	}
	got := make([][]byte, len(order))
	errs := make([]error, len(order))
	parallelFor(len(order), workers, func(i int) {
		k := order[i]
		out, err := d2m.Run(ctx, d2m.RunSpec{Kind: k.kind, Benchmark: k.bench, Options: k.opt})
		if err == nil {
			got[i], err = json.Marshal(out.Result)
		}
		errs[i] = err
	})
	for i, k := range order {
		if errs[i] != nil {
			return 0, 0, fmt.Errorf("reference run %v/%s: %w", k.kind, k.bench, errs[i])
		}
		want[k] = got[i]
	}
	for _, c := range clients {
		for _, r := range c.log.returned {
			if !bytes.Equal(r.body, want[key{r.spec.Kind, r.spec.Benchmark, r.spec.Options}]) {
				fmt.Fprintf(os.Stderr, "mismatch: client %d attempt %d %v/%s seed %d\n",
					c.id, r.attempt, r.spec.Kind, r.spec.Benchmark, r.spec.Options.Seed)
				c.log.failedAttempt[r.attempt] = true
			}
		}
		for _, f := range c.log.failedAttempt {
			if f {
				failed++
			}
		}
	}
	return failed, len(order), nil
}

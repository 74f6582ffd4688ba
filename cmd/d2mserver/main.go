// Command d2mserver serves d2m simulations over HTTP/JSON: a bounded
// worker pool draining two priority classes (interactive runs/batches
// vs bulk sweep cells, weighted so sweeps never starve interactive
// work; 429 + class-aware Retry-After under backpressure), a
// content-addressed result cache that coalesces duplicate requests
// into one simulation, per-job deadlines with client-disconnect and
// explicit DELETE cancellation, and Prometheus-style metrics.
//
// Usage:
//
//	d2mserver -addr :8080
//	curl -s localhost:8080/v1/capabilities | jq .kinds
//	curl -s -X POST localhost:8080/v1/run \
//	    -d '{"kind":"d2m-ns-r","benchmark":"tpc-c","nodes":8}' | jq .result.Cycles
//	curl -s localhost:8080/metrics | grep d2m_cache
//
// Endpoints (docs/api.md has the full schemas and error codes):
//
//	POST   /v1/run         run (or fetch from cache) one simulation; "async":true returns a job id
//	POST   /v1/batch       run up to 256 simulations as one unit; results stream back in order
//	GET    /v1/jobs        list jobs newest first (?state=, ?limit=, ?cursor=)
//	GET    /v1/jobs/{id}   job status and, once done, the result (SSE with Accept: text/event-stream)
//	DELETE /v1/jobs/{id}   cancel a queued or running job
//	POST   /v1/sweeps      run a parameter grid server-side; returns a sweep id
//	GET    /v1/sweeps      list sweeps newest first (?state=, ?limit=, ?cursor=)
//	GET    /v1/sweeps/{id} sweep progress (done/failed/total, ETA) and, once done, the aggregate
//	DELETE /v1/sweeps/{id} cancel a sweep's outstanding cells
//	POST   /v1/traces      ingest a binary (or text/csv) access trace; runs as benchmark "trace:<id>"
//	GET    /v1/traces      list ingested traces
//	GET    /v1/traces/{id} one trace's metadata (append /raw for the stored binary)
//	GET    /v1/capabilities catalogue of benchmarks, kinds, topologies, placements, kernels
//	GET    /healthz        liveness (always 200; reports draining)
//	GET    /readyz         readiness (503 while draining or replaying the store)
//	POST   /admin/drain    stop admitting new work (reversible via /admin/undrain)
//	GET    /metrics        Prometheus text metrics (also on expvar as "d2mserver")
//
// Runs that share a warm identity (kind, geometry, workload, seed,
// warmup) reuse each other's post-warmup machine state through an
// in-memory snapshot cache budgeted by -snapshot-mem, replacing the
// warmup phase of later runs with a state restore.
//
// With -store, completed simulations are journaled to an append-only
// JSONL file and replayed into the result cache at startup, so a
// restarted server resumes sweeps instead of recomputing them.
//
// With -trace-dir, the server ingests access traces: POST /v1/traces
// validates the upload (torn or corrupt files are rejected), stores it
// content-addressed under the directory, and the returned id runs as
// benchmark "trace:<id>" on every job and sweep endpoint. Replay
// streams the file in fixed-size chunks, so multi-gigabyte traces run
// with bounded memory. In cluster mode the gateway fans uploads out to
// every shard (ids are content-derived, so the fleet converges).
//
// With -tenants, the server is multi-tenant: the flag names a JSON
// file listing API-key tenants (name, key, rate, burst, share), every
// job-submitting request must carry a known X-API-Key, each tenant's
// submission rate is token-bucket limited (429 rate_limited with
// retry_after_ms), and the scheduler's weighted fair queueing bounds
// how much of a contended queue any one tenant's backlog may occupy.
// GET /v1/sweeps/{id} and GET /v1/jobs/{id} stream state transitions
// as server-sent events when asked with Accept: text/event-stream.
//
// # Cluster mode
//
// With -gateway, d2mserver serves no simulations itself: it fronts a
// fleet of ordinary d2mserver shards, consistent-hashing each
// submission's warm identity onto one shard so snapshot reuse and
// coalescing stay process-local, and probing /readyz to route around
// draining or dead shards:
//
//	d2mserver -addr :8081 -shard a -store a.jsonl &
//	d2mserver -addr :8082 -shard b -store b.jsonl &
//	d2mserver -gateway -addr :8080 \
//	    -peers a=http://localhost:8081,b=http://localhost:8082 \
//	    -merge-stores a.jsonl,b.jsonl
//
// The gateway speaks the same v1 API; job ids come back as
// <id>@<shard> and route transparently. -merge-stores replays every
// shard's journal into the gateway's result cache at startup, so a
// fleet restart resumes from the union of completed work even when
// the hash ring has since remapped keys.
//
// With -debug-addr, a second listener serves net/http/pprof and expvar
// on a separate (typically loopback-only) address, so profiling a
// production server never exposes /debug on the public port:
//
//	d2mserver -addr :8080 -debug-addr 127.0.0.1:6060
//	go tool pprof http://127.0.0.1:6060/debug/pprof/profile?seconds=10
//
// SIGINT/SIGTERM starts a graceful drain: admission stops, queued and
// running jobs finish (up to -drain-timeout), then the process exits.
package main

import (
	"context"
	"errors"
	"expvar"
	"flag"
	"fmt"
	"log/slog"
	"net"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"d2m/internal/cluster"
	"d2m/internal/service"
)

func main() {
	var (
		addr         = flag.String("addr", ":8080", "listen address")
		workers      = flag.Int("workers", 0, "worker pool size (0 = all CPUs)")
		queueDepth   = flag.Int("queue", 64, "job queue depth before 429s")
		cacheEntries = flag.Int("cache", 1024, "result cache capacity (entries)")
		timeout      = flag.Duration("timeout", 2*time.Minute, "default per-job deadline (0 = none)")
		drainTimeout = flag.Duration("drain-timeout", 30*time.Second, "graceful shutdown budget")
		storePath    = flag.String("store", "", "persistent result store (append-only JSONL journal; empty = in-memory only)")
		traceDir     = flag.String("trace-dir", "", "trace library directory: uploaded traces become trace:<id> benchmarks (empty = ingestion disabled)")
		snapshotMem  = flag.Int64("snapshot-mem", 256, "warm-snapshot cache budget in MiB (0 = disabled)")
		debugAddr    = flag.String("debug-addr", "", "serve net/http/pprof and expvar on this address (empty = disabled)")
		shardName    = flag.String("shard", "", "shard name label on metrics and logs (cluster deployments)")
		tenantsPath  = flag.String("tenants", "", "multi-tenant config: JSON file of API-key tenants (empty = single-tenant)")
		logFormat    = flag.String("log-format", "text", "log format: text or json")

		gateway       = flag.Bool("gateway", false, "run as a cluster gateway instead of a scheduler shard")
		peersSpec     = flag.String("peers", "", "gateway: comma-separated shard peers (name=url or bare urls)")
		mergeStores   = flag.String("merge-stores", "", "gateway: comma-separated shard journals to replay at startup")
		probeInterval = flag.Duration("probe-interval", 2*time.Second, "gateway: peer readiness probe period")
	)
	flag.Parse()

	logger, err := newLogger(*logFormat, *shardName, *gateway)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}

	// An explicit listener (rather than ListenAndServe) so the resolved
	// address — meaningful with ":0" in tests and cluster harnesses —
	// appears in the startup log line before any request can arrive.
	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		logger.Error("listen", "err", err)
		os.Exit(1)
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	if *gateway {
		runGateway(ctx, ln, logger, *peersSpec, *mergeStores, *probeInterval, *drainTimeout)
		return
	}

	var tenants []service.TenantSpec
	if *tenantsPath != "" {
		tenants, err = service.LoadTenants(*tenantsPath)
		if err != nil {
			logger.Error("tenants", "err", err)
			os.Exit(1)
		}
	}

	snapshotBytes := *snapshotMem << 20
	if snapshotBytes <= 0 {
		snapshotBytes = -1 // Config: negative disables, zero means the default
	}
	svc, err := service.New(service.Config{
		Workers:          *workers,
		QueueDepth:       *queueDepth,
		CacheEntries:     *cacheEntries,
		DefaultTimeout:   *timeout,
		StorePath:        *storePath,
		TraceDir:         *traceDir,
		SnapshotMemBytes: snapshotBytes,
		ShardName:        *shardName,
		Tenants:          tenants,
	})
	if err != nil {
		logger.Error("service init", "err", err)
		os.Exit(1)
	}
	expvar.Publish("d2mserver", expvar.Func(func() interface{} {
		return svc.Metrics().Snapshot()
	}))

	mux := http.NewServeMux()
	mux.Handle("/", svc.Handler())
	mux.Handle("/debug/vars", expvar.Handler())
	httpSrv := &http.Server{Handler: mux}

	if *debugAddr != "" {
		// A dedicated mux: the pprof handlers self-register only on
		// http.DefaultServeMux, which we deliberately do not serve.
		dbg := http.NewServeMux()
		dbg.HandleFunc("/debug/pprof/", pprof.Index)
		dbg.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		dbg.HandleFunc("/debug/pprof/profile", pprof.Profile)
		dbg.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		dbg.HandleFunc("/debug/pprof/trace", pprof.Trace)
		dbg.Handle("/debug/vars", expvar.Handler())
		go func() {
			logger.Info("debug listener (pprof, expvar)", "addr", *debugAddr)
			if err := http.ListenAndServe(*debugAddr, dbg); err != nil {
				logger.Error("debug listener", "err", err)
			}
		}()
	}

	errc := make(chan error, 1)
	go func() { errc <- httpSrv.Serve(ln) }()
	logger.Info("listening", "addr", ln.Addr().String(), "mode", "shard")

	select {
	case <-ctx.Done():
		logger.Info("signal received, draining", "budget", drainTimeout.String())
	case err := <-errc:
		logger.Error("serve", "err", err)
		os.Exit(1)
	}

	drainCtx, cancel := context.WithTimeout(context.Background(), *drainTimeout)
	defer cancel()
	if err := httpSrv.Shutdown(drainCtx); err != nil {
		logger.Error("http shutdown", "err", err)
	}
	if err := svc.Shutdown(drainCtx); err != nil {
		if errors.Is(err, context.DeadlineExceeded) {
			logger.Warn("drain budget exceeded; outstanding jobs were cancelled")
		} else {
			logger.Error("service shutdown", "err", err)
		}
	}
	logger.Info("drained cleanly")
}

// runGateway serves cluster-gateway mode on the already-bound listener.
func runGateway(ctx context.Context, ln net.Listener, logger *slog.Logger,
	peersSpec, mergeStores string, probeInterval, drainTimeout time.Duration) {
	peers, err := cluster.ParsePeers(peersSpec)
	if err != nil {
		logger.Error("gateway init", "err", err)
		os.Exit(1)
	}
	var journals []string
	for _, p := range strings.Split(mergeStores, ",") {
		if p = strings.TrimSpace(p); p != "" {
			journals = append(journals, p)
		}
	}
	gw, err := cluster.New(cluster.Config{
		Peers:         peers,
		ProbeInterval: probeInterval,
		MergeStores:   journals,
		Logf: func(format string, args ...interface{}) {
			logger.Info(fmt.Sprintf(format, args...))
		},
	})
	if err != nil {
		logger.Error("gateway init", "err", err)
		os.Exit(1)
	}

	httpSrv := &http.Server{Handler: gw.Handler()}
	errc := make(chan error, 1)
	go func() { errc <- httpSrv.Serve(ln) }()
	logger.Info("listening", "addr", ln.Addr().String(), "mode", "gateway", "peers", len(peers))

	select {
	case <-ctx.Done():
		logger.Info("signal received, draining", "budget", drainTimeout.String())
	case err := <-errc:
		logger.Error("serve", "err", err)
		os.Exit(1)
	}

	drainCtx, cancel := context.WithTimeout(context.Background(), drainTimeout)
	defer cancel()
	if err := httpSrv.Shutdown(drainCtx); err != nil {
		logger.Error("http shutdown", "err", err)
	}
	if err := gw.Shutdown(drainCtx); err != nil {
		logger.Error("gateway shutdown", "err", err)
	}
	logger.Info("drained cleanly")
}

// newLogger builds the process logger: human-readable text by default,
// one-JSON-object-per-line with -log-format json (machine-parseable
// startup lines are what cluster harnesses scrape for the bound
// address). Cluster deployments get a stable shard or mode field on
// every line so merged fleet logs stay attributable.
func newLogger(format, shardName string, gateway bool) (*slog.Logger, error) {
	var h slog.Handler
	switch format {
	case "json":
		h = slog.NewJSONHandler(os.Stdout, nil)
	case "text", "":
		h = slog.NewTextHandler(os.Stdout, nil)
	default:
		return nil, fmt.Errorf("d2mserver: unknown -log-format %q (text or json)", format)
	}
	logger := slog.New(h)
	if gateway {
		logger = logger.With("peer", "gateway")
	} else if shardName != "" {
		logger = logger.With("shard", shardName)
	}
	return logger, nil
}

package service

import (
	"fmt"
	"io"
	"math"
	"sort"
	"sync"
	"sync/atomic"

	"d2m/internal/service/sched"
)

// Metrics holds the service's observable state: monotonically growing
// counters, point-in-time gauges, and fixed-bucket latency histograms.
// Everything is safe for concurrent use, and rendered in Prometheus
// text exposition format on GET /metrics (cmd/d2mserver additionally
// publishes the Snapshot through expvar).
type Metrics struct {
	// Shard, when non-empty, adds a shard="..." label to every rendered
	// series (Config.ShardName wires it), so one Prometheus scrape
	// config covers a whole cluster with attributable per-process
	// series. Set before the server starts; not synchronized.
	Shard string

	JobsAccepted atomic.Uint64 // admitted to the queue
	JobsDone     atomic.Uint64 // finished successfully
	JobsFailed   atomic.Uint64 // finished with a non-cancellation error
	JobsCanceled atomic.Uint64 // deadline, client disconnect, or drain abort
	JobsRejected atomic.Uint64 // 429: queue full
	CacheHits    atomic.Uint64 // served straight from the result cache
	CacheMisses  atomic.Uint64 // had to queue a simulation
	Coalesced    atomic.Uint64 // attached to an identical in-flight job

	SweepsAccepted     atomic.Uint64 // sweeps admitted via POST /v1/sweeps
	SweepsDone         atomic.Uint64 // sweeps that ran to completion
	SweepsCanceled     atomic.Uint64 // sweeps canceled (DELETE or drain)
	SweepCellsDone     atomic.Uint64 // cells completed, cached or run
	SweepCellsCached   atomic.Uint64 // cells served from the result cache
	SweepCellsFailed   atomic.Uint64 // cells whose simulation failed
	SweepCellsCanceled atomic.Uint64 // cells abandoned by cancellation

	StoreLoaded   atomic.Uint64 // journal records replayed at startup
	StoreAppended atomic.Uint64 // results journaled since startup
	StoreErrors   atomic.Uint64 // failed journal appends

	SnapshotHits      atomic.Uint64 // runs that restored a warm-state snapshot
	SnapshotMisses    atomic.Uint64 // runs that simulated their own warmup
	SnapshotEvictions atomic.Uint64 // snapshots evicted by the byte budget
	BatchesAccepted   atomic.Uint64 // POST /v1/batch requests admitted
	BatchRuns         atomic.Uint64 // individual runs submitted through batches

	LaneGroups atomic.Uint64 // vector lane groups executed
	LaneJobs   atomic.Uint64 // jobs that ran as lanes of a group

	TracesUploaded atomic.Uint64 // traces ingested via POST /v1/traces
	TracesRejected atomic.Uint64 // uploads rejected (torn, corrupt, malformed)

	Queued          atomic.Int64 // gauge: jobs waiting in the queue
	Running         atomic.Int64 // gauge: jobs occupying a worker
	SweepsActive    atomic.Int64 // gauge: sweeps not yet settled
	SnapshotBytes   atomic.Int64 // gauge: bytes held by the snapshot cache
	SnapshotEntries atomic.Int64 // gauge: snapshots held by the snapshot cache

	// QueueWait tracks seconds from admission to worker pickup, one
	// histogram per scheduling class (rendered with a class label), so
	// bulk backlog cannot mask interactive latency.
	QueueWait  [sched.NumPriorities]Histogram
	RunLatency Histogram // seconds of simulation time per job

	// tenantAdmitted / tenantLimited count submissions through the
	// token-bucket gate per tenant, rendered as tenant-labeled series.
	tenantMu       sync.Mutex
	tenantAdmitted map[string]uint64
	tenantLimited  map[string]uint64
}

// TenantAdmitted counts n submissions a tenant's bucket admitted.
func (m *Metrics) TenantAdmitted(tenant string, n int) {
	m.tenantMu.Lock()
	defer m.tenantMu.Unlock()
	if m.tenantAdmitted == nil {
		m.tenantAdmitted = make(map[string]uint64)
	}
	m.tenantAdmitted[tenant] += uint64(n)
}

// TenantRateLimited counts n submissions rejected 429 rate_limited.
func (m *Metrics) TenantRateLimited(tenant string, n int) {
	m.tenantMu.Lock()
	defer m.tenantMu.Unlock()
	if m.tenantLimited == nil {
		m.tenantLimited = make(map[string]uint64)
	}
	m.tenantLimited[tenant] += uint64(n)
}

// tenantCounts snapshots one tenant-counter map in sorted-name order.
func (m *Metrics) tenantCounts(src map[string]uint64) ([]string, []uint64) {
	m.tenantMu.Lock()
	defer m.tenantMu.Unlock()
	names := make([]string, 0, len(src))
	for name := range src {
		names = append(names, name)
	}
	sort.Strings(names)
	counts := make([]uint64, len(names))
	for i, name := range names {
		counts[i] = src[name]
	}
	return names, counts
}

// Metrics implements sched.Observer: the scheduler reports accounting
// events and the service maps them onto these counters, so the numbers
// on /metrics mean exactly what they did when the server owned the
// worker pool itself.
var _ sched.Observer = (*Metrics)(nil)

func (m *Metrics) JobAccepted()  { m.JobsAccepted.Add(1) }
func (m *Metrics) JobCoalesced() { m.Coalesced.Add(1) }
func (m *Metrics) CacheHit()     { m.CacheHits.Add(1) }
func (m *Metrics) CacheMiss()    { m.CacheMisses.Add(1) }

func (m *Metrics) JobSettled(st sched.State) {
	switch st {
	case sched.StateDone:
		m.JobsDone.Add(1)
	case sched.StateCanceled:
		m.JobsCanceled.Add(1)
	default:
		m.JobsFailed.Add(1)
	}
}

func (m *Metrics) QueuedDelta(d int64)  { m.Queued.Add(d) }
func (m *Metrics) RunningDelta(d int64) { m.Running.Add(d) }

func (m *Metrics) ObserveQueueWait(p sched.Priority, seconds float64) {
	m.QueueWait[p].Observe(seconds)
}

func (m *Metrics) ObserveRun(seconds float64) { m.RunLatency.Observe(seconds) }

// LaneGroup counts one vector group of size lanes.
func (m *Metrics) LaneGroup(size int) {
	m.LaneGroups.Add(1)
	m.LaneJobs.Add(uint64(size))
}

// histBuckets are the upper bounds (seconds) of the latency histograms:
// sub-millisecond queue pickups through multi-minute simulations.
var histBuckets = []float64{
	0.001, 0.005, 0.01, 0.05, 0.1, 0.25, 0.5, 1, 2.5, 5, 10, 30, 60, 120, 300,
}

// Histogram is a fixed-bucket cumulative histogram in the Prometheus
// style: counts[i] covers observations <= histBuckets[i], with an
// implicit +Inf bucket equal to Count.
type Histogram struct {
	mu     sync.Mutex
	counts []uint64 // lazily sized to len(histBuckets)
	sum    float64
	count  uint64
}

// Observe records one value in seconds.
func (h *Histogram) Observe(seconds float64) {
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.counts == nil {
		h.counts = make([]uint64, len(histBuckets))
	}
	h.sum += seconds
	h.count++
	for i, ub := range histBuckets {
		if seconds <= ub {
			h.counts[i]++
		}
	}
}

// snapshot returns (cumulative bucket counts, sum, count).
func (h *Histogram) snapshot() ([]uint64, float64, uint64) {
	h.mu.Lock()
	defer h.mu.Unlock()
	out := make([]uint64, len(histBuckets))
	copy(out, h.counts)
	return out, h.sum, h.count
}

// Quantile returns an upper bound on the q-quantile (0 < q <= 1) of the
// observed values: the smallest bucket boundary covering that fraction,
// or +Inf when the tail escaped the last bucket.
func (h *Histogram) Quantile(q float64) float64 {
	counts, _, count := h.snapshot()
	if count == 0 {
		return 0
	}
	want := uint64(math.Ceil(q * float64(count)))
	for i, c := range counts {
		if c >= want {
			return histBuckets[i]
		}
	}
	return math.Inf(1)
}

// shardLabel renders the optional shard label ("" when unset), and
// braced wraps a label list for a scalar series.
func (m *Metrics) shardLabel() string {
	if m.Shard == "" {
		return ""
	}
	return fmt.Sprintf("shard=%q", m.Shard)
}

func braced(label string) string {
	if label == "" {
		return ""
	}
	return "{" + label + "}"
}

// joinLabels joins two label lists, either of which may be empty.
func joinLabels(a, b string) string {
	switch {
	case a == "":
		return b
	case b == "":
		return a
	default:
		return a + "," + b
	}
}

// WritePrometheus renders every metric in text exposition format.
func (m *Metrics) WritePrometheus(w io.Writer) {
	shard := braced(m.shardLabel())
	counter := func(name, help string, v uint64) {
		fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s counter\n%s%s %d\n", name, help, name, name, shard, v)
	}
	gauge := func(name, help string, v int64) {
		fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s gauge\n%s%s %d\n", name, help, name, name, shard, v)
	}
	counter("d2m_jobs_accepted_total", "Jobs admitted to the queue.", m.JobsAccepted.Load())
	counter("d2m_jobs_done_total", "Jobs finished successfully.", m.JobsDone.Load())
	counter("d2m_jobs_failed_total", "Jobs finished with an error.", m.JobsFailed.Load())
	counter("d2m_jobs_canceled_total", "Jobs canceled by deadline, disconnect, or drain.", m.JobsCanceled.Load())
	counter("d2m_jobs_rejected_total", "Jobs rejected with 429 because the queue was full.", m.JobsRejected.Load())
	counter("d2m_cache_hits_total", "Requests served from the result cache.", m.CacheHits.Load())
	counter("d2m_cache_misses_total", "Requests that queued a simulation.", m.CacheMisses.Load())
	counter("d2m_coalesced_total", "Requests coalesced onto an identical in-flight job.", m.Coalesced.Load())
	counter("d2m_sweeps_accepted_total", "Sweeps admitted via POST /v1/sweeps.", m.SweepsAccepted.Load())
	counter("d2m_sweeps_done_total", "Sweeps that ran to completion.", m.SweepsDone.Load())
	counter("d2m_sweeps_canceled_total", "Sweeps canceled by DELETE or drain.", m.SweepsCanceled.Load())
	counter("d2m_sweep_cells_done_total", "Sweep cells completed, cached or run.", m.SweepCellsDone.Load())
	counter("d2m_sweep_cells_cached_total", "Sweep cells served from the result cache.", m.SweepCellsCached.Load())
	counter("d2m_sweep_cells_failed_total", "Sweep cells whose simulation failed.", m.SweepCellsFailed.Load())
	counter("d2m_sweep_cells_canceled_total", "Sweep cells abandoned by cancellation.", m.SweepCellsCanceled.Load())
	counter("d2m_store_loaded_total", "Result-store records replayed at startup.", m.StoreLoaded.Load())
	counter("d2m_store_appended_total", "Results journaled to the store since startup.", m.StoreAppended.Load())
	counter("d2m_store_errors_total", "Failed result-store appends.", m.StoreErrors.Load())
	counter("d2m_snapshot_hits_total", "Runs that restored a warm-state snapshot.", m.SnapshotHits.Load())
	counter("d2m_snapshot_misses_total", "Runs that simulated their own warmup.", m.SnapshotMisses.Load())
	counter("d2m_snapshot_evictions_total", "Snapshots evicted by the byte budget.", m.SnapshotEvictions.Load())
	counter("d2m_batches_accepted_total", "POST /v1/batch requests admitted.", m.BatchesAccepted.Load())
	counter("d2m_batch_runs_total", "Individual runs submitted through batches.", m.BatchRuns.Load())
	counter("d2m_lane_groups_total", "Vector lane groups executed.", m.LaneGroups.Load())
	counter("d2m_lane_jobs_total", "Jobs that ran as lanes of a vector group.", m.LaneJobs.Load())
	counter("d2m_traces_uploaded_total", "Traces ingested via POST /v1/traces.", m.TracesUploaded.Load())
	counter("d2m_traces_rejected_total", "Trace uploads rejected as torn, corrupt or malformed.", m.TracesRejected.Load())
	gauge("d2m_jobs_queued", "Jobs waiting in the queue.", m.Queued.Load())
	gauge("d2m_jobs_running", "Jobs occupying a worker.", m.Running.Load())
	gauge("d2m_sweeps_active", "Sweeps not yet settled.", m.SweepsActive.Load())
	gauge("d2m_snapshot_bytes", "Bytes held by the warm-snapshot cache.", m.SnapshotBytes.Load())
	gauge("d2m_snapshot_entries", "Snapshots held by the warm-snapshot cache.", m.SnapshotEntries.Load())
	for _, series := range []struct {
		name, help string
		src        map[string]uint64
	}{
		{"d2m_tenant_submissions_total", "Submissions admitted through a tenant's token bucket.", m.tenantAdmitted},
		{"d2m_tenant_rate_limited_total", "Submissions rejected 429 rate_limited, by tenant.", m.tenantLimited},
	} {
		names, counts := m.tenantCounts(series.src)
		if len(names) == 0 {
			continue
		}
		fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s counter\n", series.name, series.help, series.name)
		for i, name := range names {
			fmt.Fprintf(w, "%s{%s} %d\n", series.name,
				joinLabels(m.shardLabel(), fmt.Sprintf("tenant=%q", name)), counts[i])
		}
	}
	fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s histogram\n",
		"d2m_queue_wait_seconds", "Seconds from admission to worker pickup, by scheduling class.",
		"d2m_queue_wait_seconds")
	for p := sched.Interactive; p < sched.NumPriorities; p++ {
		m.writeHistogramSeries(w, "d2m_queue_wait_seconds",
			joinLabels(m.shardLabel(), fmt.Sprintf("class=%q", p.String())), &m.QueueWait[p])
	}
	m.writeHistogram(w, "d2m_run_seconds", "Seconds of simulation per job.", &m.RunLatency)
}

func (m *Metrics) writeHistogram(w io.Writer, name, help string, h *Histogram) {
	fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s histogram\n", name, help, name)
	m.writeHistogramSeries(w, name, m.shardLabel(), h)
}

// writeHistogramSeries renders one histogram series, optionally labeled
// (the label is joined with le inside the bucket braces).
func (m *Metrics) writeHistogramSeries(w io.Writer, name, label string, h *Histogram) {
	counts, sum, count := h.snapshot()
	sep := ""
	if label != "" {
		sep = label + ","
	}
	for i, ub := range histBuckets {
		fmt.Fprintf(w, "%s_bucket{%sle=%q} %d\n", name, sep, trimFloat(ub), counts[i])
	}
	fmt.Fprintf(w, "%s_bucket{%sle=\"+Inf\"} %d\n", name, sep, count)
	if label != "" {
		fmt.Fprintf(w, "%s_sum{%s} %g\n", name, label, sum)
		fmt.Fprintf(w, "%s_count{%s} %d\n", name, label, count)
	} else {
		fmt.Fprintf(w, "%s_sum %g\n", name, sum)
		fmt.Fprintf(w, "%s_count %d\n", name, count)
	}
}

func trimFloat(f float64) string { return fmt.Sprintf("%g", f) }

// Snapshot returns the scalar metrics as a map, for expvar publication.
func (m *Metrics) Snapshot() map[string]interface{} {
	return map[string]interface{}{
		"jobs_accepted": m.JobsAccepted.Load(),
		"jobs_done":     m.JobsDone.Load(),
		"jobs_failed":   m.JobsFailed.Load(),
		"jobs_canceled": m.JobsCanceled.Load(),
		"jobs_rejected": m.JobsRejected.Load(),
		"cache_hits":    m.CacheHits.Load(),
		"cache_misses":  m.CacheMisses.Load(),
		"coalesced":     m.Coalesced.Load(),
		"jobs_queued":   m.Queued.Load(),
		"jobs_running":  m.Running.Load(),

		"sweeps_accepted":      m.SweepsAccepted.Load(),
		"sweeps_done":          m.SweepsDone.Load(),
		"sweeps_canceled":      m.SweepsCanceled.Load(),
		"sweeps_active":        m.SweepsActive.Load(),
		"sweep_cells_done":     m.SweepCellsDone.Load(),
		"sweep_cells_cached":   m.SweepCellsCached.Load(),
		"sweep_cells_failed":   m.SweepCellsFailed.Load(),
		"sweep_cells_canceled": m.SweepCellsCanceled.Load(),
		"store_loaded":         m.StoreLoaded.Load(),
		"store_appended":       m.StoreAppended.Load(),
		"store_errors":         m.StoreErrors.Load(),

		"snapshot_hits":      m.SnapshotHits.Load(),
		"snapshot_misses":    m.SnapshotMisses.Load(),
		"snapshot_evictions": m.SnapshotEvictions.Load(),
		"snapshot_bytes":     m.SnapshotBytes.Load(),
		"snapshot_entries":   m.SnapshotEntries.Load(),
		"batches_accepted":   m.BatchesAccepted.Load(),
		"batch_runs":         m.BatchRuns.Load(),
		"lane_groups":        m.LaneGroups.Load(),
		"lane_jobs":          m.LaneJobs.Load(),
		"traces_uploaded":    m.TracesUploaded.Load(),
		"traces_rejected":    m.TracesRejected.Load(),
	}
}

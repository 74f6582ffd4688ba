package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"time"

	"d2m"
	"d2m/internal/api"
	"d2m/internal/core"
	"d2m/internal/mem"
	"d2m/internal/noc"
	"d2m/internal/service/sched"
	"d2m/internal/sim"
	"d2m/internal/trace"
)

// shape is a workload's spec shape: the per-layer measurements run at
// it, so each workload's layer numbers describe its own runs.
type shape struct {
	nodes, warmup, measure int
	seed                   uint64
	benches                []string // catalog benchmarks
	traceBench             string   // "trace:<id>" run as a benchmark, or ""
	tracePath              string   // stored v2 trace replayed by trace.decode_ns
}

func (sh shape) accesses() int { return sh.warmup + sh.measure }

// allBenches is every benchmark run at the shape: the catalog ones,
// then the imported trace if there is one.
func (sh shape) allBenches() []string {
	if sh.traceBench == "" {
		return sh.benches
	}
	return append(append([]string(nil), sh.benches...), sh.traceBench)
}

// reps repeats small-shape measurements until each covers about as
// many accesses as one paper-default run.
func (sh shape) reps(target int) int { return max(1, target/sh.accesses()) }

func (sh shape) options() d2m.Options {
	return d2m.Options{Nodes: sh.nodes, Warmup: sh.warmup, Measure: sh.measure, Seed: sh.seed}.WithDefaults()
}

// mechOptions mirrors what d2m.Run hands the registry for sh's options
// (default placement and crossbar topology).
func (sh shape) mechOptions() core.MechOptions {
	return core.MechOptions{Nodes: sh.nodes, Seed: sh.seed, MDScale: 1, Placement: core.PlacePressure, Topology: noc.Crossbar{}}
}

// layerName is a mechanism's per-layer prefix: "core.d2m-ns-r" or
// "baseline.base-2l".
func layerName(m *core.Mechanism) string {
	family := "core."
	if m.Baseline {
		family = "baseline."
	}
	return family + strings.ToLower(m.Name)
}

// layerSet collects per-layer metrics in report order.
type layerSet struct{ metrics []metric }

func (ls *layerSet) add(name, unit string, v float64) {
	ls.metrics = append(ls.metrics, metric{Name: name, Unit: unit, Value: v})
}

func (ls *layerSet) get(name string) float64 {
	for _, m := range ls.metrics {
		if m.Name == name {
			return m.Value
		}
	}
	return 0
}

// perAccess divides a duration over a count, in nanoseconds.
func perAccess(d time.Duration, n int64) float64 {
	if n == 0 {
		return 0
	}
	return float64(d.Nanoseconds()) / float64(n)
}

func meanUS(d time.Duration, n int) float64 {
	if n == 0 {
		return 0
	}
	return float64(d.Nanoseconds()) / 1e3 / float64(n)
}

// totalsSince sums self time per span name over the spans recorded
// after mark.
func totalsSince(tr *tracer, mark int) map[string]layerTotal {
	return layerTotals(tr.snapshot()[mark:])
}

// timedStream wraps a generator so each Fill the interleaver makes is
// a child span of the interleaver's own Fill span.
type timedStream struct {
	bs     trace.BlockStream
	tr     *tracer
	parent *int
}

func (s *timedStream) Next() mem.Access { return s.bs.Next() }

func (s *timedStream) Fill(buf []mem.Access) int {
	id := s.tr.start("workloads.Fill", *s.parent, 0)
	n := s.bs.Fill(buf)
	s.tr.end(id)
	return n
}

// benchCost is one benchmark's per-access stream costs, in ns.
type benchCost struct{ fill, interleave float64 }

// streamLayers times generator Fill and the interleaver's merge for
// every catalog benchmark, and returns each benchmark's interleaved
// access sequence for the mechanism layers.
func streamLayers(sh shape, tr *tracer) (map[string]benchCost, map[string][]mem.Access, error) {
	costs := map[string]benchCost{}
	blocks := map[string][]mem.Access{}
	n := sh.accesses()
	buf := make([]mem.Access, sim.BlockAccesses)
	for _, b := range sh.benches {
		mark := tr.mark()
		out := make([]mem.Access, 0, n)
		for r := 0; r < sh.reps(400_000); r++ {
			streams, err := seededStreams(b, sh.seed, sh.nodes)
			if err != nil {
				return nil, nil, err
			}
			var parent int
			wrapped := make([]trace.Stream, len(streams))
			for i, s := range streams {
				bs, ok := s.(trace.BlockStream)
				if !ok {
					return nil, nil, fmt.Errorf("%s: generator without block delivery", b)
				}
				wrapped[i] = &timedStream{bs: bs, tr: tr, parent: &parent}
			}
			iv := trace.NewInterleaver(wrapped)
			for done := 0; done < n; {
				parent = tr.start("trace.Interleaver.Fill", 0, 0)
				k := iv.Fill(buf[:min(len(buf), n-done)])
				tr.end(parent)
				if r == 0 {
					out = append(out, buf[:k]...)
				}
				done += k
			}
		}
		t := totalsSince(tr, mark)
		total := int64(n) * int64(sh.reps(400_000))
		costs[b] = benchCost{fill: perAccess(t["workloads.Fill"].Self, total), interleave: perAccess(t["trace.Interleaver.Fill"].Self, total)}
		blocks[b] = out
	}
	return costs, blocks, nil
}

// decodeLayer times FileReader.Fill replaying a stored trace, in ns
// per access, and returns the replayed sequence.
func decodeLayer(sh shape, tr *tracer) (float64, []mem.Access, error) {
	fr0, closeTrace, err := openTrace(sh)
	if err != nil {
		return 0, nil, err
	}
	defer closeTrace()
	n := sh.accesses()
	reps := sh.reps(400_000)
	buf := make([]mem.Access, sim.BlockAccesses)
	out := make([]mem.Access, 0, n)
	var total time.Duration
	for r := 0; r < reps; r++ {
		fr := fr0.Clone().(trace.BlockStream)
		mark := tr.mark()
		for done := 0; done < n; {
			id := tr.start("trace.FileReader.Fill", 0, 0)
			k := fr.Fill(buf[:min(len(buf), n-done)])
			tr.end(id)
			if r == 0 {
				out = append(out, buf[:k]...)
			}
			done += k
		}
		total += totalsSince(tr, mark)["trace.FileReader.Fill"].Self
	}
	return perAccess(total, int64(n)*int64(reps)), out, nil
}

// readerOf wraps an access sequence as an in-memory trace.Reader.
func readerOf(accs []mem.Access) (*trace.Reader, error) {
	var buf bytes.Buffer
	fw, err := trace.NewFileWriter(&buf)
	if err != nil {
		return nil, err
	}
	for _, a := range accs {
		if err := fw.Append(a); err != nil {
			return nil, err
		}
	}
	if err := fw.Close(); err != nil {
		return nil, err
	}
	return trace.ReadTrace(&buf)
}

// pairCost is one (kind, benchmark) pair's measured mechanism and
// engine time for one run's worth of accesses.
type pairCost struct{ access, step time.Duration }

// mechLayers times MechInstance.Access over each pre-generated
// sequence (warmup and measure, with the engine's epoch ticks), and
// Engine.RunContext over the same sequence replayed from memory; the
// difference is the engine's own stepping. It also times
// Mechanism.New + Release.
func mechLayers(ctx context.Context, sh shape, seqs map[string][]mem.Access, tr *tracer, ls *layerSet) (map[string]pairCost, error) {
	pairs := map[string]pairCost{}
	mopt := sh.mechOptions()
	reps := sh.reps(400_000)
	var accessAll, engineAll time.Duration
	var accAll int64
	readers := map[string]*trace.Reader{}
	for b, seq := range seqs {
		rd, err := readerOf(seq)
		if err != nil {
			return nil, err
		}
		readers[b] = rd
	}
	for _, m := range core.Mechanisms() {
		name := layerName(m)
		var accessKind time.Duration
		var accKind int64
		for _, b := range sh.allBenches() {
			seq, rd := seqs[b], readers[b]
			var pc pairCost
			for r := 0; r < reps; r++ {
				inst := m.New(mopt)
				mark := tr.mark()
				accessPhases(inst, seq, sh.warmup, tr, name+".Access")
				inst.Release()
				pc.access += totalsSince(tr, mark)[name+".Access"].Self

				inst = m.New(mopt)
				eng := sim.NewEngine(inst, sh.nodes)
				id := tr.start("sim.Engine.RunContext", 0, 0)
				_, err := eng.RunContext(ctx, rd.Clone(), sh.warmup, sh.measure)
				tr.end(id)
				inst.Release()
				if err != nil {
					return nil, err
				}
				pc.step += tr.dur(id)
			}
			pc.step -= pc.access
			pc.access /= time.Duration(reps)
			pc.step /= time.Duration(reps)
			pairs[m.Name+"/"+b] = pc
			accessKind += pc.access
			accKind += int64(len(seq))
			accessAll += pc.access
			engineAll += pc.step
			accAll += int64(len(seq))
		}
		ls.add(name+".access_ns", "ns", perAccess(accessKind, accKind))
	}
	ls.add("sim.step_ns", "ns", perAccess(engineAll, accAll))

	newReps := max(20, sh.reps(4_000_000))
	for _, m := range core.Mechanisms() {
		name := layerName(m)
		mark := tr.mark()
		for r := 0; r < newReps; r++ {
			id := tr.start(name+".New", 0, 0)
			m.New(mopt).Release()
			tr.end(id)
		}
		t := totalsSince(tr, mark)[name+".New"]
		ls.add(name+".new_us", "us", meanUS(t.Self, t.Spans))
	}
	return pairs, nil
}

// accessPhases drives inst through seq the way the engine does — a
// warmup phase, the measurement reset, a measure phase, epoch ticks
// aligned to each phase's start — timing each block of Access calls.
func accessPhases(inst core.MechInstance, seq []mem.Access, warmup int, tr *tracer, span string) {
	epoch := inst.EpochLen()
	for _, ph := range [2][2]int{{0, warmup}, {warmup, len(seq)}} {
		start, stop := ph[0], ph[1]
		if start == warmup {
			inst.ResetMeasurement()
		}
		for off := start; off < stop; {
			end := min(off+sim.BlockAccesses, stop)
			if epoch > 0 {
				end = min(end, start+((off-start)/epoch+1)*epoch)
			}
			id := tr.start(span, 0, 0)
			for _, a := range seq[off:end] {
				inst.Access(a)
			}
			tr.end(id)
			if epoch > 0 && (end-start)%epoch == 0 {
				inst.EpochTick()
			}
			off = end
		}
	}
}

// mapWarm is the benchmark's own WarmCache: a plain map that captures
// on every miss.
type mapWarm struct {
	mu sync.Mutex
	m  map[string]*d2m.WarmSnapshot
}

func (c *mapWarm) GetWarm(key string) *d2m.WarmSnapshot {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.m[key]
}

func (c *mapWarm) PutWarm(s *d2m.WarmSnapshot) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.m[s.Key()] = s
}

// manualStream builds a run's access stream the way d2m.Run does: a
// clone of the parked trace reader for the trace benchmark, the seeded
// interleaved generators otherwise.
func manualStream(sh shape, bench string, traced *trace.FileReader) (trace.Stream, error) {
	if bench == sh.traceBench {
		return traced.Clone(), nil
	}
	streams, err := seededStreams(bench, sh.seed, sh.nodes)
	if err != nil {
		return nil, err
	}
	return trace.NewInterleaver(streams), nil
}

// openTrace opens the shape's trace file as a looping reader parked at
// record zero, as the trace library does for trace benchmarks.
func openTrace(sh shape) (*trace.FileReader, func(), error) {
	f, err := os.Open(sh.tracePath)
	if err != nil {
		return nil, nil, err
	}
	fi, err := f.Stat()
	if err != nil {
		f.Close()
		return nil, nil, err
	}
	fr, err := trace.NewFileReader(f, fi.Size())
	if err != nil {
		f.Close()
		return nil, nil, err
	}
	fr.Loop = true
	return fr, func() { f.Close() }, nil
}

// runLayers times whole library runs at the shape for every kind and
// benchmark: d2m.Run cold, the same run rebuilt by hand from its
// construction, stream and engine calls (the rest is d2m's own
// extraction), a WarmCache miss that captures, a WarmCache hit, and an
// 8-lane d2m.RunGroup. It returns the cold Run time per pair and a
// sample Result for the API layer.
func runLayers(ctx context.Context, sh shape, tr *tracer, ls *layerSet) (map[string]time.Duration, d2m.Result, error) {
	opt := sh.options()
	reps := sh.reps(40_000)
	runTime := map[string]time.Duration{}
	var sample d2m.Result
	var traced *trace.FileReader
	if sh.traceBench != "" {
		fr, closeTrace, err := openTrace(sh)
		if err != nil {
			return nil, sample, err
		}
		defer closeTrace()
		traced = fr
	}
	var cold, capture, warm, group time.Duration
	var extract []float64 // per pair and rep, microseconds
	var runs int
	for _, m := range core.Mechanisms() {
		kind, err := d2m.ParseKind(m.Name)
		if err != nil {
			return nil, sample, err
		}
		for _, b := range sh.allBenches() {
			spec := d2m.RunSpec{Kind: kind, Benchmark: b, Options: opt}
			for r := 0; r < reps; r++ {
				// Run, manual, manual, Run: each side sees both positions,
				// so warm pools and GC timing favour neither.
				var pairRun, pairManual time.Duration
				for _, first := range []bool{true, false} {
					if first {
						d, res, err := coldRun(ctx, spec, tr)
						if err != nil {
							return nil, sample, err
						}
						pairRun, sample = pairRun+d, res
					}
					d, err := manualRun(ctx, sh, m, b, traced, tr)
					if err != nil {
						return nil, sample, err
					}
					pairManual += d
					if !first {
						d, res, err := coldRun(ctx, spec, tr)
						if err != nil {
							return nil, sample, err
						}
						pairRun, sample = pairRun+d, res
					}
				}
				cold += pairRun
				runTime[m.Name+"/"+b] += pairRun / time.Duration(2*reps)
				extract = append(extract, float64((pairRun-pairManual).Nanoseconds())/2e3)

				c, w, g, err := reuseRuns(ctx, spec, tr)
				if err != nil {
					return nil, sample, err
				}
				capture, warm, group = capture+c, warm+w, group+g
				runs++
			}
		}
	}
	ls.add("d2m.extract_us", "us", median(extract))
	ls.add("d2m.cold_run_ms", "ms", meanUS(cold, 2*runs)/1e3)
	ls.add("d2m.warm_run_ms", "ms", meanUS(warm, runs)/1e3)
	ls.add("d2m.capture_run_ms", "ms", meanUS(capture, runs)/1e3)
	ls.add("d2m.lane_run_ms", "ms", meanUS(group, runs*batchRuns)/1e3)
	return runTime, sample, nil
}

// coldRun times d2m.Run with no warm cache.
func coldRun(ctx context.Context, spec d2m.RunSpec, tr *tracer) (time.Duration, d2m.Result, error) {
	id := tr.start("d2m.Run", 0, 0)
	out, err := d2m.Run(ctx, spec)
	tr.end(id)
	return tr.dur(id), out.Result, err
}

// manualRun rebuilds the run d2m.Run performs from its parts —
// Mechanism.New, the stream, Engine.RunContext, Release — and returns
// their summed span time.
func manualRun(ctx context.Context, sh shape, m *core.Mechanism, bench string, traced *trace.FileReader, tr *tracer) (time.Duration, error) {
	mark := tr.mark()
	id := tr.start("manual.construct", 0, 0)
	inst := m.New(sh.mechOptions())
	tr.end(id)
	id = tr.start("manual.stream", 0, 0)
	src, err := manualStream(sh, bench, traced)
	tr.end(id)
	if err == nil {
		id = tr.start("manual.engine", 0, 0)
		_, err = sim.NewEngine(inst, sh.nodes).RunContext(ctx, src, sh.warmup, sh.measure)
		tr.end(id)
	}
	id = tr.start("manual.construct", 0, 0)
	inst.Release()
	tr.end(id)
	var total time.Duration
	for _, t := range totalsSince(tr, mark) {
		total += t.Self
	}
	return total, err
}

// reuseRuns times the warm-state paths for spec: a d2m.Run whose
// benchmark-owned WarmCache misses and captures, a second run of the
// same warm identity (a new link bandwidth) that restores, and an
// 8-lane d2m.RunGroup sharing the identity.
func reuseRuns(ctx context.Context, spec d2m.RunSpec, tr *tracer) (capture, warm, group time.Duration, err error) {
	timed := func(name string, f func() error) (time.Duration, error) {
		id := tr.start(name, 0, 0)
		err := f()
		tr.end(id)
		return tr.dur(id), err
	}
	cached := spec
	cached.Warm = &mapWarm{m: map[string]*d2m.WarmSnapshot{}}
	if capture, err = timed("d2m.Run.capture", func() error { _, err := d2m.Run(ctx, cached); return err }); err != nil {
		return
	}
	cached.Options.LinkBandwidth = 1.5
	if warm, err = timed("d2m.Run.warm", func() error { _, err := d2m.Run(ctx, cached); return err }); err != nil {
		return
	}
	lanes := make([]d2m.GroupLane, batchRuns)
	for i := range lanes {
		lanes[i].Spec = spec
		lanes[i].Spec.Options.LinkBandwidth = 1 + float64(i)/8
	}
	group, err = timed("d2m.RunGroup", func() error {
		outs, err := d2m.RunGroup(ctx, lanes)
		for _, o := range outs {
			err = firstErr(err, o.Err)
		}
		return err
	})
	return
}

func firstErr(errs ...error) error {
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// apiLayer times encoding/json on the workload's wire payloads: a
// RunRequest decoded the way the service decodes it, and a settled
// JobStatus encoded the way the service writes it.
func apiLayer(sh shape, sample d2m.Result, tr *tracer, ls *layerSet) error {
	const ops, perSpan = 4000, 100
	req, err := json.Marshal(api.RunRequest{Kind: "D2M-NS-R", Benchmark: sh.benches[0],
		Nodes: sh.nodes, Warmup: sh.warmup, Measure: sh.measure, Seed: sh.seed + 1, LinkBandwidth: 1.5})
	if err != nil {
		return err
	}
	st := api.JobStatus{ID: "12345", State: api.JobDone, Kind: sample.Kind.String(), Benchmark: sample.Benchmark,
		Priority: "interactive", Engine: d2m.EngineScalar, QueueWaitMS: 0.25, RunMS: 3.5, Result: &sample}
	mark := tr.mark()
	for i := 0; i < ops/perSpan; i++ {
		id := tr.start("api.decode", 0, 0)
		for j := 0; j < perSpan; j++ {
			var out api.RunRequest
			dec := json.NewDecoder(bytes.NewReader(req))
			dec.DisallowUnknownFields()
			if err := dec.Decode(&out); err != nil {
				return err
			}
		}
		tr.end(id)
		id = tr.start("api.encode", 0, 0)
		for j := 0; j < perSpan; j++ {
			var buf bytes.Buffer
			enc := json.NewEncoder(&buf)
			enc.SetIndent("", "  ")
			if err := enc.Encode(st); err != nil {
				return err
			}
		}
		tr.end(id)
	}
	t := totalsSince(tr, mark)
	ls.add("api.decode_us", "us", meanUS(t["api.decode"].Self, ops))
	ls.add("api.encode_us", "us", meanUS(t["api.encode"].Self, ops))
	return nil
}

// schedLayer times Scheduler.SubmitWait until the job settles, with a
// runner that does nothing.
func schedLayer(ctx context.Context, tr *tracer, ls *layerSet) (float64, error) {
	const ops = 3000
	s, err := sched.New(sched.Config{Run: func(context.Context, d2m.RunSpec) (d2m.RunOutput, error) {
		return d2m.RunOutput{}, nil
	}})
	if err != nil {
		return 0, err
	}
	defer s.Shutdown(ctx)
	mark := tr.mark()
	for i := 0; i < ops; i++ {
		id := tr.start("sched.SubmitWait", 0, 0)
		adm, err := s.SubmitWait(ctx, sched.Submission{Kind: d2m.D2MNSR, Benchmark: "tpc-c",
			Options: d2m.Options{Seed: uint64(i) + 1}.WithDefaults()})
		if err == nil && !adm.Cached {
			<-adm.Job.Done()
			s.Release(adm.Job)
		}
		tr.end(id)
		if err != nil {
			return 0, err
		}
	}
	t := totalsSince(tr, mark)["sched.SubmitWait"]
	v := meanUS(t.Self, t.Spans)
	ls.add("sched.noop_job_us", "us", v)
	return v, nil
}

// stubRunLayer posts distinct runs (then one repeated run, answered
// from the result cache) to a backend whose simulations are stubbed,
// and returns the mean round trips in microseconds.
func stubRunLayer(ctx context.Context, hc *http.Client, work string, gateway bool, sample d2m.Result, tr *tracer) (fresh, cached float64, err error) {
	const ops = 1500
	stub := func(context.Context, d2m.Kind, string, d2m.Options) (d2m.Result, error) { return sample, nil }
	b, err := setupBackend(ctx, hc, work, gateway, stub, nil)
	if err != nil {
		return 0, 0, err
	}
	defer b.close()
	c := &httpClient{hc: hc, base: b.url, tr: tr}
	name := "service"
	if gateway {
		name = "cluster"
	}
	post := func(span string, seed uint64) error {
		payload, _ := json.Marshal(runRequest("D2M-NS-R", "tpc-c", seed, 0))
		status, body, err := c.send(ctx, http.MethodPost, "/v1/run", payload, false, span, 0, 0)
		if err == nil {
			err = statusErr(status, body, http.StatusOK)
		}
		return err
	}
	mark := tr.mark()
	for i := 0; i < ops; i++ {
		if err := post(name+".stub_run", uint64(i)+1); err != nil {
			return 0, 0, err
		}
		if err := post(name+".cached_run", 1); err != nil {
			return 0, 0, err
		}
	}
	t := totalsSince(tr, mark)
	return meanUS(t[name+".stub_run"].Self, ops), meanUS(t[name+".cached_run"].Self, ops), nil
}

// metricLayers derives the scheduler, service and gateway counters
// from /metrics deltas over a phase (zero where the workload has no
// such server).
func metricLayers(d scrapes, ls *layerSet) {
	s, g := d.service, d.gateway
	wait, _ := s.quantile("d2m_queue_wait_seconds", 0.5)
	ls.add("sched.queue_wait_p50_ms", "ms", wait*1e3)
	ls.add("sched.lane_jobs_per_group", "ratio", ratio(s.sum("d2m_lane_jobs_total"), s.sum("d2m_lane_groups_total")))
	hits, misses := s.sum("d2m_cache_hits_total"), s.sum("d2m_cache_misses_total")
	ls.add("service.cache_hit_ratio", "fraction", ratio(hits, hits+misses))
	sh, sm := s.sum("d2m_snapshot_hits_total"), s.sum("d2m_snapshot_misses_total")
	ls.add("service.snapshot_hit_ratio", "fraction", ratio(sh, sh+sm))
	ls.add("service.coalesced", "count", s.sum("d2m_coalesced_total"))
	ls.add("service.store_appended", "count", s.sum("d2m_store_appended_total"))
	ls.add("service.jobs_rejected", "count", s.sum("d2m_jobs_rejected_total"))
	ls.add("service.jobs_failed", "count", s.sum("d2m_jobs_failed_total"))
	fwd, ghits := g.sum("d2m_gateway_runs_forwarded_total"), g.sum("d2m_gateway_cache_hits_total")
	ls.add("cluster.runs_forwarded", "count", fwd)
	ls.add("cluster.cache_hit_ratio", "fraction", ratio(ghits, ghits+fwd))
	ls.add("cluster.failovers", "count", g.sum("d2m_gateway_failovers_total"))
	ls.add("cluster.cells_remapped", "count", g.sum("d2m_gateway_cells_remapped_total"))
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// measureLayers runs every per-layer measurement at the shape and
// returns them in report order. d is the traced phase's /metrics delta.
func measureLayers(ctx context.Context, hc *http.Client, work string, sh shape, d scrapes, tr *tracer) (*layerSet, error) {
	ls := &layerSet{}
	costs, seqs, err := streamLayers(sh, tr)
	if err != nil {
		return nil, fmt.Errorf("stream layers: %w", err)
	}
	decode, traced, err := decodeLayer(sh, tr)
	if err != nil {
		return nil, fmt.Errorf("trace decode: %w", err)
	}
	var fill, il, n float64
	for _, c := range costs {
		fill += c.fill
		il += c.interleave
		n++
	}
	ls.add("workloads.fill_ns", "ns", fill/n)
	ls.add("trace.interleave_ns", "ns", il/n)
	ls.add("trace.decode_ns", "ns", decode)
	if sh.traceBench != "" {
		seqs[sh.traceBench] = traced
	}
	pairs, err := mechLayers(ctx, sh, seqs, tr, ls)
	if err != nil {
		return nil, fmt.Errorf("mechanism layers: %w", err)
	}
	runTime, sample, err := runLayers(ctx, sh, tr, ls)
	if err != nil {
		return nil, fmt.Errorf("run layers: %w", err)
	}
	if err := apiLayer(sh, sample, tr, ls); err != nil {
		return nil, fmt.Errorf("api layer: %w", err)
	}
	schedUS, err := schedLayer(ctx, tr, ls)
	if err != nil {
		return nil, fmt.Errorf("sched layer: %w", err)
	}
	svcFresh, svcCached, err := stubRunLayer(ctx, hc, work, false, sample, tr)
	if err != nil {
		return nil, fmt.Errorf("service layer: %w", err)
	}
	ls.add("service.noop_run_us", "us", svcFresh-schedUS)
	ls.add("service.cached_run_us", "us", svcCached)
	gwFresh, _, err := stubRunLayer(ctx, hc, work, true, sample, tr)
	if err != nil {
		return nil, fmt.Errorf("cluster layer: %w", err)
	}
	ls.add("cluster.noop_run_us", "us", gwFresh-svcFresh)
	metricLayers(d, ls)

	// Unattributed share: each pair's cold d2m.Run time against the sum
	// of its layers — construction, stream production, mechanism
	// access, engine stepping and extraction.
	var measured, attributed time.Duration
	n64 := int64(sh.accesses())
	for key, rt := range runTime {
		kindName, bench, _ := strings.Cut(key, "/")
		m, _ := core.MechanismByName(kindName)
		pc := pairs[key]
		stream := decode
		if c, ok := costs[bench]; ok {
			stream = c.fill + c.interleave
		}
		measured += rt
		attributed += pc.access + pc.step +
			time.Duration(stream*float64(n64)) +
			time.Duration(ls.get(layerName(m)+".new_us")*1e3) +
			time.Duration(ls.get("d2m.extract_us")*1e3)
	}
	ls.add("d2m.unattributed_share", "fraction", 1-float64(attributed)/float64(measured))
	return ls, nil
}

// recordShapeTrace stores a seeded tpc-c capture of the shape's length
// for trace.decode_ns on workloads that do not import one.
func recordShapeTrace(dir string, sh shape) (string, error) {
	path := filepath.Join(dir, "decode.trc")
	f, err := os.Create(path)
	if err != nil {
		return "", err
	}
	if err := recordTrace(f, traceSource, sh.seed, sh.nodes, sh.accesses()); err != nil {
		f.Close()
		return "", err
	}
	return path, f.Close()
}

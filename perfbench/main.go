// Command perfbench is the repository's benchmark: one command that
// runs a workload against the code as it stands, prints every
// end-to-end metric with its unit, checks every simulated result for
// correctness, and — with -trace 1 — prints the per-layer split.
//
// Run it from the repository root through perfbench/run.sh (which
// builds it), for example:
//
//	bash perfbench/run.sh --workload engine-cold --seed 1 --seconds 10 --trace 0
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics. See perfbench/README.md.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"strings"
	"time"

	"d2m"
)

// processStart stands in for process start: the first set-up is timed
// from here.
var processStart = time.Now()

// setupRepeats is how many times each workload sets up; setup_s is the
// median.
const setupRepeats = 5

var workloadNames = []string{"engine-cold", "service-mixed", "gateway-mixed"}

// metric is one named measurement.
type metric struct {
	Name  string
	Unit  string
	Value float64
}

// options are the command's flags.
type options struct {
	workload string
	seed     uint64
	seconds  float64
	traced   bool
	work     string // per-run scratch directory, removed at exit
	out      string // where results and spans are written
}

func main() { os.Exit(run(os.Args[1:], os.Stdout)) }

func run(args []string, stdout io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	workload := fs.String("workload", "", "engine-cold, service-mixed or gateway-mixed")
	seed := fs.Uint64("seed", 1, "workload seed")
	seconds := fs.Float64("seconds", 10, "length of the timed phase in seconds")
	traceFlag := fs.Int("trace", 0, "0: end-to-end metrics; 1: per-layer metrics from a traced run")
	out := fs.String("out", ".bench_build", "directory for scratch files, result records and spans")
	digests := fs.Int("write-digests", 0, "regenerate the engine-cold digests for seeds 0..N-1 into perfbench/digests and exit")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if err := os.MkdirAll(*out, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 1
	}
	work, err := os.MkdirTemp(*out, "run-")
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 1
	}
	defer os.RemoveAll(work)
	if *digests > 0 {
		path := filepath.Join("perfbench", "digests", "engine-cold.json")
		if err := writeDigests(work, path, *digests, runtime.GOMAXPROCS(0)); err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 1
		}
		return 0
	}
	o := options{workload: *workload, seed: *seed, seconds: *seconds, traced: *traceFlag == 1, work: work, out: *out}
	if !slices.Contains(workloadNames, o.workload) || (*traceFlag != 0 && *traceFlag != 1) || o.seconds <= 0 {
		fmt.Fprintf(os.Stderr, "usage: perfbench --workload %v --seed N --seconds S --trace 0|1\n", workloadNames)
		return 2
	}
	ctx := context.Background()
	var rep *report
	if o.workload == "engine-cold" {
		rep, err = engineCold(ctx, o)
	} else {
		rep, err = serviceMix(ctx, o, o.workload == "gateway-mixed")
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	rep.fp = hostFingerprint(o.seed)
	if err := rep.save(o); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench: saving the record:", err)
	}
	rep.print(stdout, o)
	if !rep.correct() {
		return 1
	}
	return 0
}

// report is everything one invocation measured.
type report struct {
	fp         fingerprint
	setups     []float64 // seconds
	untraced   *phase
	peakRSS    float64 // MiB, process peak at the end of the untraced phase
	failed     int     // failed attempts, correctness mismatches included
	attempted  int
	verified   string
	traced     *phase
	tracedSet  float64 // seconds, the traced set-up
	layers     *layerSet
	tracer     *tracer // the traced phase's spans
	layerSpans *tracer // the layer measurements' spans
}

func (r *report) correct() bool { return r.failed == 0 }

// e2e is the bounded end-to-end metric set of one phase. Throughput is
// counted per second of process CPU time (user + system, every
// thread): hypervisor steal on a shared host stretches wall time but
// not CPU time, so these move with the code rather than the neighbours.
// The wall-clock throughputs are printed beside them.
func e2e(setup float64, ph *phase, rss float64) []metric {
	runs := summarize(ph.Runs)
	return []metric{
		{"setup_s", "s", setup},
		{"accesses_per_cpu_s", "acc/cpu-s", float64(ph.Accesses) / ph.CPU},
		{"jobs_per_cpu_s", "results/cpu-s", float64(ph.Results) / ph.CPU},
		{"run_p50_ms", "ms", runs.P50},
		{"peak_rss_mb", "MiB", rss},
	}
}

// overheads compares the traced phase with the untraced one, metric by
// metric: how much worse the traced value is, as a fraction of the
// untraced one (negative when the traced phase happened to do better).
// Both phases use the sampled phase peak for RSS: the process peak
// never decreases.
func (r *report) overheads() []metric {
	base := e2e(median(r.setups), r.untraced, r.untraced.PeakRSS)
	tr := e2e(r.tracedSet, r.traced, r.traced.PeakRSS)
	out := make([]metric, len(base))
	for i := range base {
		worse := tr[i].Value - base[i].Value
		if strings.HasSuffix(base[i].Unit, "/cpu-s") {
			worse = -worse // throughputs: higher is better
		}
		out[i] = metric{"overhead." + base[i].Name, "fraction", ratio(worse, base[i].Value)}
	}
	return out
}

// metrics is what the last line carries: the end-to-end set untraced,
// the per-layer set traced.
func (r *report) metrics(o options) []metric {
	if o.traced {
		return append(append([]metric(nil), r.layers.metrics...), r.overheads()...)
	}
	return e2e(median(r.setups), r.untraced, r.peakRSS)
}

func (r *report) print(w io.Writer, o options) {
	fmt.Fprintf(w, "perfbench workload=%s seed=%d seconds=%g trace=%v\n", o.workload, o.seed, o.seconds, o.traced)
	fmt.Fprintf(w, "host cpu=%q nproc=%d gomaxprocs=%d go=%s commit=%s seed=%d\n",
		r.fp.CPU, r.fp.NProc, r.fp.GOMAXPROCS, r.fp.Go, r.fp.Commit, r.fp.Seed)
	fmt.Fprintf(w, "setup: median of %d set-ups %v s\n", len(r.setups), r.setups)
	for _, m := range e2e(median(r.setups), r.untraced, r.peakRSS) {
		fmt.Fprintf(w, "%-34s %14.6g %s\n", m.Name, m.Value, m.Unit)
	}
	ph := r.untraced
	acc, jobs := ph.rates()
	fmt.Fprintf(w, "%-34s %14.6g acc/s (median over %d windows)\n", "accesses_per_s", acc, len(ph.Windows))
	fmt.Fprintf(w, "%-34s %14.6g results/s\n", "jobs_per_s", jobs)
	runs := summarize(ph.Runs)
	fmt.Fprintf(w, "%-34s %14.6g ms (n=%d)\n", "run_p90_ms", runs.P90, runs.N)
	if runs.TailP > 0.9 {
		fmt.Fprintf(w, "%-34s %14.6g ms (n=%d, %d beyond; the highest percentile with ten samples beyond)\n",
			fmt.Sprintf("run_p%g_ms", runs.TailP*100), runs.TailMS, runs.N, beyond(runs.N, runs.TailP))
	}
	if len(ph.RunClass[opCold]) > 0 {
		fmt.Fprint(w, "run classes:")
		for k, l := range ph.RunClass {
			fmt.Fprintf(w, " %s p50=%.4g ms (n=%d, %.1f%% of runs)", opClass(k), summarize(l).P50, len(l),
				100*float64(len(l))/float64(len(ph.Runs)))
		}
		fmt.Fprintln(w)
	}
	if len(ph.Batches) > 0 {
		fmt.Fprintf(w, "%-34s %14.6g ms (n=%d)\n", "batch_p50_ms", summarize(ph.Batches).P50, len(ph.Batches))
	}
	if len(ph.Sweeps) > 0 {
		fmt.Fprintf(w, "%-34s %14.6g ms (n=%d)\n", "sweep_p50_ms", summarize(ph.Sweeps).P50, len(ph.Sweeps))
	}
	fmt.Fprintf(w, "%-34s %14.6g fraction (%d failed of %d attempted)\n", "error_rate",
		ratio(float64(r.failed), float64(r.attempted)), r.failed, r.attempted)
	fmt.Fprintf(w, "phase: %.3f s wall, %.3f s process CPU, %.1f%% of host CPU stolen\n",
		ph.Elapsed.Seconds(), ph.CPU, 100*ph.Steal)
	fmt.Fprint(w, "windows (results/s):")
	for _, win := range ph.Windows {
		fmt.Fprintf(w, " %.4g", float64(win.Results)/win.Dur.Seconds())
	}
	fmt.Fprintln(w)
	fmt.Fprintf(w, "correctness: %s\n", r.verified)
	if o.traced {
		fmt.Fprintln(w, "per-layer (traced run):")
		for _, m := range r.metrics(o) {
			fmt.Fprintf(w, "  %-32s %14.6g %s\n", m.Name, m.Value, m.Unit)
		}
	}
	type jm struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	last := struct {
		Correct   bool          `json:"correct"`
		Attempted int           `json:"attempted"`
		Failed    int           `json:"failed"`
		Metrics   map[string]jm `json:"metrics"`
	}{r.correct(), r.attempted, r.failed, map[string]jm{}}
	for _, m := range r.metrics(o) {
		last.Metrics[m.Name] = jm{m.Value, m.Unit}
	}
	b, _ := json.Marshal(last)
	fmt.Fprintln(w, string(b))
}

// save writes the full record (fingerprint, every metric, latency
// sample counts) and, for a traced run, the spans under o.out.
func (r *report) save(o options) error {
	stem := fmt.Sprintf("%s-seed%d-trace0", o.workload, o.seed)
	if o.traced {
		stem = fmt.Sprintf("%s-seed%d-trace1", o.workload, o.seed)
	}
	dir := filepath.Join(o.out, "results")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	rec := map[string]any{"host": r.fp, "workload": o.workload, "seconds": o.seconds,
		"attempted": r.attempted, "failed": r.failed, "correctness": r.verified, "setups_s": r.setups}
	named := map[string]any{}
	for _, m := range r.metrics(o) {
		named[m.Name] = map[string]any{"value": m.Value, "unit": m.Unit}
	}
	rec["metrics"] = named
	for name, l := range map[string]latencies{"run": r.untraced.Runs, "batch": r.untraced.Batches, "sweep": r.untraced.Sweeps} {
		rec[name+"_latency_ms"] = summarize(l)
	}
	b, err := json.MarshalIndent(rec, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(filepath.Join(dir, stem+".json"), b, 0o644); err != nil {
		return err
	}
	if !o.traced {
		return nil
	}
	if err := r.tracer.writeJSONL(filepath.Join(dir, stem+"-phase-spans.jsonl")); err != nil {
		return err
	}
	return r.layerSpans.writeJSONL(filepath.Join(dir, stem+"-layer-spans.jsonl"))
}

// setupTimes sets up setupRepeats times (the first timed from process
// start), tearing each set-up down before the next; it returns the
// last one.
func setupTimes[T any](setup func() (T, error), teardown func(T)) (T, []float64, error) {
	var cur T
	var times []float64
	for i := 0; i < setupRepeats; i++ {
		if i > 0 {
			teardown(cur)
		}
		t0 := time.Now()
		if i == 0 {
			t0 = processStart
		}
		var err error
		if cur, err = setup(); err != nil {
			return cur, nil, err
		}
		times = append(times, time.Since(t0).Seconds())
	}
	return cur, times, nil
}

func engineCold(ctx context.Context, o options) (*report, error) {
	dur := time.Duration(o.seconds * float64(time.Second))
	es, setups, err := setupTimes(func() (*engineSetup, error) { return setupEngine(o.work, o.seed, nil) },
		func(es *engineSetup) { es.close() })
	if err != nil {
		return nil, fmt.Errorf("set-up: %w", err)
	}
	ph, runs := runEngine(ctx, es, dur, nil)
	r := &report{setups: setups, untraced: ph, peakRSS: peakRSSMiB(), attempted: ph.Attempted}
	failed, status, err := verifyEngine(o.seed, es, runs)
	es.close()
	if err != nil {
		return nil, err
	}
	r.failed, r.verified = failed, status
	if !o.traced {
		return r, nil
	}

	r.tracer = newTracer()
	t0 := time.Now()
	es, err = setupEngine(o.work, o.seed, r.tracer)
	if err != nil {
		return nil, fmt.Errorf("traced set-up: %w", err)
	}
	defer es.close()
	r.tracedSet = time.Since(t0).Seconds()
	r.traced, runs = runEngine(ctx, es, dur, r.tracer)
	failed, _, err = verifyEngine(o.seed, es, runs)
	if err != nil {
		return nil, err
	}
	r.failed += failed
	r.attempted += r.traced.Attempted
	path, _ := d2m.TracePath(es.traceBench[len(d2m.TracePrefix):])
	opt := d2m.Options{Seed: o.seed}.WithDefaults()
	sh := shape{nodes: opt.Nodes, warmup: opt.Warmup, measure: opt.Measure, seed: o.seed,
		benches: engineBenches, traceBench: es.traceBench, tracePath: path}
	r.layerSpans = newTracer()
	r.layers, err = measureLayers(ctx, newHTTPClient(), o.work, sh, scrapes{}, r.layerSpans)
	return r, err
}

func serviceMix(ctx context.Context, o options, gateway bool) (*report, error) {
	dur := time.Duration(o.seconds * float64(time.Second))
	hc := newHTTPClient()
	defer hc.CloseIdleConnections()
	b, setups, err := setupTimes(func() (*backend, error) { return setupBackend(ctx, hc, o.work, gateway, nil, nil) },
		func(b *backend) { b.close() })
	if err != nil {
		return nil, fmt.Errorf("set-up: %w", err)
	}
	ph, clients, _, err := mixPhase(ctx, hc, b, o.seed, dur, nil)
	b.close()
	if err != nil {
		return nil, err
	}
	r := &report{setups: setups, untraced: ph, peakRSS: peakRSSMiB(), attempted: ph.Attempted}
	failed, specs, err := verifyMix(ctx, clients, runtime.GOMAXPROCS(0))
	if err != nil {
		return nil, err
	}
	r.failed = failed
	r.verified = fmt.Sprintf("byte-compared %d results (%d distinct specs) with d2m.Run: %d attempts failed", ph.Results, specs, failed)
	if !o.traced {
		return r, nil
	}

	r.tracer = newTracer()
	t0 := time.Now()
	b, err = setupBackend(ctx, hc, o.work, gateway, nil, r.tracer)
	if err != nil {
		return nil, fmt.Errorf("traced set-up: %w", err)
	}
	r.tracedSet = time.Since(t0).Seconds()
	var delta scrapes
	r.traced, clients, delta, err = mixPhase(ctx, hc, b, o.seed, dur, r.tracer)
	b.close()
	if err != nil {
		return nil, err
	}
	failed, _, err = verifyMix(ctx, clients, runtime.GOMAXPROCS(0))
	if err != nil {
		return nil, err
	}
	r.failed += failed
	r.attempted += r.traced.Attempted
	sh := shape{nodes: mixNodes, warmup: mixWarmup, measure: mixMeasure, seed: o.seed, benches: engineBenches}
	if sh.tracePath, err = recordShapeTrace(o.work, sh); err != nil {
		return nil, err
	}
	r.layerSpans = newTracer()
	r.layers, err = measureLayers(ctx, hc, o.work, sh, delta, r.layerSpans)
	return r, err
}

// mixPhase runs the mix against b between two /metrics scrapes.
func mixPhase(ctx context.Context, hc *http.Client, b *backend, seed uint64, dur time.Duration, tr *tracer) (*phase, []*httpClient, scrapes, error) {
	before, err := b.scrapeAll(ctx, hc)
	if err != nil {
		return nil, nil, scrapes{}, err
	}
	ph, clients := runMix(ctx, hc, b, seed, dur, tr)
	after, err := b.scrapeAll(ctx, hc)
	if err != nil {
		return nil, nil, scrapes{}, err
	}
	return ph, clients, after.minus(before), nil
}

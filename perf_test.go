package d2m

// The performance harness behind README's "Performance" section:
// BenchmarkEngineHotPath measures the protocol engine's per-access
// throughput and allocation rate on a cold run (fresh engine, nothing
// cached), and TestMain journals the numbers to the file named by
// D2M_BENCH_OUT (the repo's BENCH_core.json), with a host fingerprint
// (CPU model, GOMAXPROCS, Go version), so later changes can track
// regressions on the same machine:
//
//	D2M_BENCH_OUT=BENCH_core.json go test -run '^$' -bench 'BenchmarkEngineHotPath|BenchmarkTraceReplay' .
//
// BenchmarkTraceReplay measures the same engine fed from a stored
// binary trace (the "trace:<id>" benchmark path: chunked FileReader
// replay through the block pipeline) and journals
// trace_replay_accesses_per_sec alongside.
//
// TestEngineAllocBudget and TestReplicateParallelDeterministic are the
// regression guards for the two optimizations the numbers come from:
// the pooled, table-based hot path must stay (amortized) allocation-
// free, and the parallel Replicate must stay byte-identical to the
// serial aggregation.

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"
)

var coreBench = struct {
	sync.Mutex
	m map[string]float64
}{m: map[string]float64{}}

func TestMain(m *testing.M) {
	code := m.Run()
	if out := os.Getenv("D2M_BENCH_OUT"); out != "" && len(coreBench.m) > 0 {
		bench := "BenchmarkEngineHotPath"
		if _, ok := coreBench.m["trace_replay_accesses_per_sec"]; ok {
			bench += ",BenchmarkTraceReplay"
		}
		payload := map[string]interface{}{
			"benchmark": bench,
			"workload":  hotPathWorkload,
			"host":      benchHost(),
			"metrics":   coreBench.m,
		}
		data, _ := json.MarshalIndent(payload, "", "  ")
		if err := os.WriteFile(out, append(data, '\n'), 0o644); err != nil {
			fmt.Fprintln(os.Stderr, err)
			code = 1
		}
	}
	os.Exit(code)
}

// benchHost fingerprints the machine a journal was measured on, so two
// journals are only compared when they come from the same host.
func benchHost() map[string]interface{} {
	return map[string]interface{}{
		"cpu":        cpuModel(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"go":         runtime.Version(),
	}
}

// cpuModel returns the first "model name" of /proc/cpuinfo, or the
// architecture where that file is missing.
func cpuModel() string {
	data, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return runtime.GOARCH
	}
	for _, line := range strings.Split(string(data), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return runtime.GOARCH
}

// hotPathWorkload describes the measured simulation; measure is b.N.
const hotPathWorkload = `{"kind":"d2m-ns-r","benchmark":"tpc-c","nodes":2,"warmup":2000,"measure":N}`

// BenchmarkEngineHotPath drives one cold D2M-NS-R run whose measured
// window is b.N accesses, so ns/op, B/op and allocs/op read directly
// as per-access costs. accesses/s and allocs/access are also reported
// as explicit metrics (and journaled by TestMain).
func BenchmarkEngineHotPath(b *testing.B) {
	opt := Options{Nodes: 2, Warmup: 2000, Measure: b.N}
	if opt.Measure < 1 {
		opt.Measure = 1
	}
	b.ReportAllocs()
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	b.ResetTimer()
	start := time.Now()
	if _, err := runSim(D2MNSR, "tpc-c", opt); err != nil {
		b.Fatal(err)
	}
	elapsed := time.Since(start)
	b.StopTimer()
	runtime.ReadMemStats(&after)

	accPerSec := float64(opt.Measure) / elapsed.Seconds()
	allocsPerAccess := float64(after.Mallocs-before.Mallocs) / float64(opt.Measure)
	b.ReportMetric(accPerSec, "accesses/s")
	b.ReportMetric(allocsPerAccess, "allocs/access")
	coreBench.Lock()
	// Benchmarks ramp b.N upward; the last (largest) run wins.
	coreBench.m["accesses_per_sec_cold"] = accPerSec
	coreBench.m["allocs_per_access"] = allocsPerAccess
	coreBench.Unlock()
}

// traceBenchSetup builds the stored trace BenchmarkTraceReplay replays:
// a 200k-access tpc-c capture, recorded and imported once per process.
var traceBenchSetup struct {
	sync.Once
	dir   string
	bench string
	err   error
}

// BenchmarkTraceReplay drives the same cold D2M-NS-R configuration as
// BenchmarkEngineHotPath, but fed from a stored binary trace through
// the "trace:<id>" benchmark path — content-addressed lookup, chunked
// FileReader decode (varint-delta records), Loop wrap — so the number
// is the end-to-end replay throughput CI gates as
// trace_replay_accesses_per_sec.
func BenchmarkTraceReplay(b *testing.B) {
	s := &traceBenchSetup
	s.Do(func() {
		s.dir, s.err = os.MkdirTemp("", "d2m-bench-trace-")
		if s.err != nil {
			return
		}
		if s.err = SetTraceDir(s.dir); s.err != nil {
			return
		}
		var buf bytes.Buffer
		if _, s.err = RecordTrace("tpc-c", 2, 200_000, &buf); s.err != nil {
			return
		}
		var info TraceInfo
		if info, s.err = ImportTrace(&buf, "bench-capture"); s.err != nil {
			return
		}
		s.bench = TracePrefix + info.ID
	})
	if s.err != nil {
		b.Fatal(s.err)
	}
	// Tests may have reinstalled or cleared the process-wide library;
	// point it back at the benchmark's store.
	if err := SetTraceDir(s.dir); err != nil {
		b.Fatal(err)
	}
	opt := Options{Nodes: 2, Warmup: 2000, Measure: b.N}
	if opt.Measure < 1 {
		opt.Measure = 1
	}
	b.ReportAllocs()
	b.ResetTimer()
	start := time.Now()
	if _, err := runSim(D2MNSR, s.bench, opt); err != nil {
		b.Fatal(err)
	}
	elapsed := time.Since(start)
	b.StopTimer()

	accPerSec := float64(opt.Measure) / elapsed.Seconds()
	b.ReportMetric(accPerSec, "accesses/s")
	coreBench.Lock()
	coreBench.m["trace_replay_accesses_per_sec"] = accPerSec
	coreBench.Unlock()
}

// TestEngineAllocBudget pins the hot path's allocation rate: once the
// construction pools are warm, a run may allocate only for per-region
// metadata (nodeRegion/dirRegion objects), which amortizes to well
// under 0.2 allocations per access on tpc-c. Before the
// open-addressed in-flight table and the pooled construction arrays,
// this measured in the tens of allocations per access equivalent.
func TestEngineAllocBudget(t *testing.T) {
	if testing.Short() {
		t.Skip("allocation measurement is load-sensitive")
	}
	opt := Options{Nodes: 2, Warmup: 1000, Measure: 10_000}
	run := func() {
		if _, err := runSim(D2MNSR, "tpc-c", opt); err != nil {
			t.Fatal(err)
		}
	}
	run() // warm the construction pools
	const accesses = 1000 + 10_000
	perRun := testing.AllocsPerRun(5, run)
	perAccess := perRun / accesses
	t.Logf("allocs/run = %.0f, allocs/access = %.4f", perRun, perAccess)
	if perAccess > 0.2 {
		t.Errorf("allocs/access = %.4f, want <= 0.2 (hot path no longer allocation-free)", perAccess)
	}
}

// TestReplicateParallelDeterministic checks the parallel Replicate is
// not just statistically but byte-identical to the serial one: the
// per-seed samples are gathered by index and aggregated in seed order,
// so the worker count must not leak into the result.
func TestReplicateParallelDeterministic(t *testing.T) {
	opt := Options{Nodes: 2, Warmup: 1000, Measure: 5000}
	const n = 5
	defer func(w int) { ExperimentWorkers = w }(ExperimentWorkers)

	ExperimentWorkers = 1
	serial, err := replicateN(context.Background(), D2MNSR, "tpc-c", opt, n, nil)
	if err != nil {
		t.Fatal(err)
	}
	ExperimentWorkers = 4
	parallel, err := replicateN(context.Background(), D2MNSR, "tpc-c", opt, n, nil)
	if err != nil {
		t.Fatal(err)
	}
	sj, _ := json.Marshal(serial)
	pj, _ := json.Marshal(parallel)
	if string(sj) != string(pj) {
		t.Errorf("parallel aggregate differs from serial:\n serial  %s\n parallel %s", sj, pj)
	}
}

// TestRunPooledReuseDeterministic checks that recycling construction
// arrays through the pools cannot leak state between runs: the same
// simulation run twice (the second on pooled arrays) must produce
// byte-identical results.
func TestRunPooledReuseDeterministic(t *testing.T) {
	opt := Options{Nodes: 2, Warmup: 1000, Measure: 5000}
	for _, kind := range []Kind{D2MNSR, Base2L} {
		first, err := runSim(kind, "tpc-c", opt)
		if err != nil {
			t.Fatal(err)
		}
		second, err := runSim(kind, "tpc-c", opt)
		if err != nil {
			t.Fatal(err)
		}
		fj, _ := json.Marshal(first)
		sj, _ := json.Marshal(second)
		if string(fj) != string(sj) {
			t.Errorf("%v: pooled rerun differs from first run", kind)
		}
	}
}

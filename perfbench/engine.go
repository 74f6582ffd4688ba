package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	_ "embed"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"strconv"
	"time"

	"d2m"
	"d2m/internal/mem"
	"d2m/internal/trace"
	"d2m/internal/workloads"
)

// engineBenches is one benchmark per paper suite (Parallel, HPC,
// Mobile, Server, Database), from L1-resident to LLC-thrashing.
var engineBenches = []string{"blackscholes", "fft", "wikipedia", "mix1", "tpc-c"}

const (
	// traceSource is the benchmark captured and imported at set-up.
	traceSource = "tpc-c"
	// minEnginePasses keeps at least ten samples beyond p90 (3 x 48).
	minEnginePasses = 3
)

// engineSetup is engine-cold's prepared input: a trace library holding
// the seeded tpc-c capture, and the grid of every kind x benchmark.
type engineSetup struct {
	dir        string
	traceBench string   // "trace:<id>" of the imported capture
	labels     []string // "<kind>/<bench>", with the trace as "<kind>/trace"
	grid       []d2m.RunSpec
}

func (es *engineSetup) close() { os.RemoveAll(es.dir) }

// seededStreams builds a catalog benchmark's per-node streams under a
// run seed, the way d2m.Run seeds them.
func seededStreams(bench string, seed uint64, nodes int) ([]trace.Stream, error) {
	sp, ok := workloads.ByName(bench)
	if !ok {
		return nil, fmt.Errorf("unknown benchmark %q", bench)
	}
	cp := *sp
	if seed != 0 {
		cp.Seed ^= seed * 0x9e3779b97f4a7c15
	}
	return cp.Streams(nodes), nil
}

// recordTrace writes n interleaved accesses of a seeded benchmark as a
// v2 binary trace.
func recordTrace(w io.Writer, bench string, seed uint64, nodes, n int) error {
	streams, err := seededStreams(bench, seed, nodes)
	if err != nil {
		return err
	}
	iv := trace.NewInterleaver(streams)
	fw, err := trace.NewFileWriter(w)
	if err != nil {
		return err
	}
	buf := make([]mem.Access, 1024)
	for done := 0; done < n; {
		k := iv.Fill(buf[:min(len(buf), n-done)])
		for _, a := range buf[:k] {
			if err := fw.Append(a); err != nil {
				return err
			}
		}
		done += k
	}
	return fw.Close()
}

// setupEngine records the seeded tpc-c capture, imports it into a
// fresh trace library under work, and lays out the run grid at the
// paper's default options.
func setupEngine(work string, seed uint64, tr *tracer) (*engineSetup, error) {
	dir, err := os.MkdirTemp(work, "engine-")
	if err != nil {
		return nil, err
	}
	es := &engineSetup{dir: dir}
	opt := d2m.Options{Seed: seed}.WithDefaults()
	id := tr.start("d2m.SetTraceDir", 0, 0)
	err = d2m.SetTraceDir(dir)
	tr.end(id)
	if err != nil {
		es.close()
		return nil, err
	}
	var buf bytes.Buffer
	id = tr.start("trace.FileWriter", 0, 0)
	err = recordTrace(&buf, traceSource, seed, opt.Nodes, opt.Warmup+opt.Measure)
	tr.end(id)
	if err != nil {
		es.close()
		return nil, fmt.Errorf("record %s: %w", traceSource, err)
	}
	id = tr.start("d2m.ImportTrace", 0, 0)
	info, err := d2m.ImportTrace(&buf, traceSource+"-capture")
	tr.end(id)
	if err != nil {
		es.close()
		return nil, fmt.Errorf("import trace: %w", err)
	}
	es.traceBench = d2m.TracePrefix + info.ID
	benches := append(append([]string(nil), engineBenches...), es.traceBench)
	for _, k := range d2m.AllKinds() {
		for i, b := range benches {
			label := b
			if i == len(engineBenches) {
				label = "trace"
			}
			es.labels = append(es.labels, k.String()+"/"+label)
			es.grid = append(es.grid, d2m.RunSpec{Kind: k, Benchmark: b, Options: opt})
		}
	}
	return es, nil
}

// resultDigest is the SHA-256 of a Result's canonical JSON (its
// encoding/json form, the bytes the service puts on the wire).
func resultDigest(r d2m.Result) string {
	b, err := json.Marshal(r)
	if err != nil {
		// A Result is plain data; failing to encode it is a bug.
		panic(err)
	}
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

// digestFile is the committed golden digests of engine-cold: per seed,
// one digest per grid entry in grid order.
type digestFile struct {
	Grid  []string            `json:"grid"`
	Seeds map[string][]string `json:"seeds"`
}

//go:embed digests/engine-cold.json
var committedDigests []byte

func loadDigests() (digestFile, error) {
	var df digestFile
	err := json.Unmarshal(committedDigests, &df)
	return df, err
}

// golden returns the committed digests for seed over the given grid,
// or false when the seed has none (or the grid changed).
func (df digestFile) golden(seed uint64, labels []string) ([]string, bool) {
	want, ok := df.Seeds[strconv.FormatUint(seed, 10)]
	if !ok || len(want) != len(labels) || len(df.Grid) != len(labels) {
		return nil, false
	}
	for i := range labels {
		if df.Grid[i] != labels[i] {
			return nil, false
		}
	}
	return want, true
}

// engineRun is one timed d2m.Run of the grid.
type engineRun struct {
	idx    int
	digest string
	err    error
}

// runEngine runs whole passes over the grid on one goroutine until the
// duration has elapsed (and at least minEnginePasses passes ran).
func runEngine(ctx context.Context, es *engineSetup, dur time.Duration, tr *tracer) (*phase, []engineRun) {
	ph := &phase{}
	var runs []engineRun
	var results []d2m.Result
	mon := startMonitor()
	start := time.Now()
	for pass := 0; pass < minEnginePasses || time.Since(start) < dur; pass++ {
		passStart, results0, accesses0 := time.Now(), ph.Results, ph.Accesses
		for i, spec := range es.grid {
			req := int64(len(runs) + 1)
			id := tr.start("d2m.Run", 0, req)
			t0 := time.Now()
			out, err := d2m.Run(ctx, spec)
			dt := time.Since(t0)
			tr.end(id)
			ph.Attempted++
			runs = append(runs, engineRun{idx: i, err: err})
			results = append(results, out.Result)
			if err != nil {
				continue
			}
			ph.Runs.add(dt)
			ph.Results++
			ph.Accesses += int64(spec.Options.Warmup + spec.Options.Measure)
		}
		ph.Windows = append(ph.Windows, window{time.Since(passStart), ph.Results - results0, ph.Accesses - accesses0})
	}
	ph.Elapsed = time.Since(start)
	mon.stop(ph)
	for i := range runs {
		if runs[i].err == nil {
			runs[i].digest = resultDigest(results[i])
		}
	}
	return ph, runs
}

// verifyEngine checks every run against the committed digests for the
// seed. Seeds without committed digests are reported unverified; their
// runs are still checked for agreement across passes.
func verifyEngine(seed uint64, es *engineSetup, runs []engineRun) (failed int, status string, err error) {
	df, err := loadDigests()
	if err != nil {
		return 0, "", fmt.Errorf("committed digests: %w", err)
	}
	want, ok := df.golden(seed, es.labels)
	if !ok {
		want = make([]string, len(es.grid))
	}
	failed = checkDigests(want, runs)
	if ok {
		return failed, fmt.Sprintf("checked %d runs against the committed digests for seed %d: %d failed", len(runs), seed, failed), nil
	}
	return failed, fmt.Sprintf("unverified: seed %d has no committed digests; %d runs checked for agreement across passes only: %d failed", seed, len(runs), failed), nil
}

// checkDigests counts the runs that failed or whose digest differs from
// want[idx]. An empty want[idx] is filled by the first run of that grid
// entry, which later passes must then match.
func checkDigests(want []string, runs []engineRun) (failed int) {
	for _, r := range runs {
		switch {
		case r.err != nil:
			failed++
		case want[r.idx] == "":
			want[r.idx] = r.digest
		case want[r.idx] != r.digest:
			failed++
		}
	}
	return failed
}

// writeDigests computes the golden digests for seeds 0..n-1 (in
// parallel, workers at a time) and writes them to path.
func writeDigests(work, path string, n, workers int) error {
	df := digestFile{Seeds: map[string][]string{}}
	for seed := uint64(0); seed < uint64(n); seed++ {
		es, err := setupEngine(work, seed, nil)
		if err != nil {
			return err
		}
		df.Grid = es.labels
		digests := make([]string, len(es.grid))
		errs := make([]error, len(es.grid))
		parallelFor(len(es.grid), workers, func(i int) {
			out, err := d2m.Run(context.Background(), es.grid[i])
			errs[i] = err
			digests[i] = resultDigest(out.Result)
		})
		es.close()
		for i, err := range errs {
			if err != nil {
				return fmt.Errorf("seed %d %s: %w", seed, es.labels[i], err)
			}
		}
		df.Seeds[strconv.FormatUint(seed, 10)] = digests
		fmt.Fprintf(os.Stderr, "seed %d done\n", seed)
	}
	// One seed per line keeps the committed file reviewable.
	var b bytes.Buffer
	grid, _ := json.Marshal(df.Grid)
	fmt.Fprintf(&b, "{\n\"grid\": %s,\n\"seeds\": {\n", grid)
	for seed := 0; seed < n; seed++ {
		d, _ := json.Marshal(df.Seeds[strconv.Itoa(seed)])
		sep := ","
		if seed == n-1 {
			sep = ""
		}
		fmt.Fprintf(&b, "%q: %s%s\n", strconv.Itoa(seed), d, sep)
	}
	b.WriteString("}\n}\n")
	return os.WriteFile(path, b.Bytes(), 0o644)
}

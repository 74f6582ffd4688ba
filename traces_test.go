package d2m

// Trace-benchmark exactness: a stored trace referenced as "trace:<id>"
// must behave exactly like any catalog benchmark — same Run/RunGroup
// paths, same warm-snapshot byte-identity — and the block-pipelined
// engine must be indistinguishable from scalar Next-draining delivery
// for every kind, topology and source family.

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"strings"
	"testing"

	"d2m/internal/sim"
	"d2m/internal/trace"
	"d2m/internal/workloads"
)

// setTraceLib points the process-wide trace library at a fresh temp
// directory for the duration of one test. Trace tests must not run in
// parallel with each other (the library is process-wide).
func setTraceLib(t *testing.T) {
	t.Helper()
	if err := SetTraceDir(t.TempDir()); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { SetTraceDir("") })
}

// recordBench returns a v2-encoded trace of a catalog benchmark.
func recordBench(t *testing.T, bench string, nodes, accesses int) []byte {
	t.Helper()
	var buf bytes.Buffer
	if _, err := RecordTrace(bench, nodes, accesses, &buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func TestTraceBenchmarkRun(t *testing.T) {
	setTraceLib(t)
	ctx := context.Background()
	enc := recordBench(t, "tpc-c", 2, 20_000)
	info, err := ImportTrace(bytes.NewReader(enc), "tpc-c-capture")
	if err != nil {
		t.Fatal(err)
	}
	bench := TracePrefix + info.ID

	if suite, ok := SuiteOf(bench); !ok || suite != SuiteTrace {
		t.Errorf("SuiteOf(%q) = %q, %v", bench, suite, ok)
	}
	if _, ok := SuiteOf(TracePrefix + "0000000000000000"); ok {
		t.Error("SuiteOf of unknown trace id succeeded")
	}

	opt := Options{Nodes: 2, Warmup: 3000, Measure: 6000}
	res, err := runOne(ctx, D2MNSR, bench, opt)
	if err != nil {
		t.Fatal(err)
	}
	if res.Benchmark != bench || res.Suite != SuiteTrace {
		t.Errorf("Result labels = %q / %q", res.Benchmark, res.Suite)
	}
	// Replays are deterministic.
	again, err := runOne(ctx, D2MNSR, bench, opt)
	if err != nil {
		t.Fatal(err)
	}
	assertSameResult(t, "trace replay", res, again)

	// The stored-trace path (chunked FileReader) and an in-memory
	// Reader over the same bytes replay identically.
	inMemory := source{name: bench, suite: SuiteTrace, streams: func(Options) []trace.Stream {
		rd, err := trace.ReadTrace(bytes.NewReader(enc))
		if err != nil {
			t.Fatal(err)
		}
		rd.Loop = true
		return []trace.Stream{rd}
	}}
	direct, err := execute(ctx, CellKey{kind: D2MNSR}, inMemory, []Options{opt.withDefaults()}, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	assertSameResult(t, "FileReader-vs-Reader", *direct[0], res)

	// A trace wider than the machine is rejected.
	if _, err := runOne(ctx, D2MNSR, bench, Options{Nodes: 1, Warmup: 1000, Measure: 1000}); err == nil {
		t.Error("2-node trace ran on a 1-node machine")
	}
	// Unknown ids are unknown benchmarks.
	if _, err := runOne(ctx, D2MNSR, TracePrefix+"0000000000000000", opt); err == nil {
		t.Error("unknown trace id ran")
	}

	if got := ListTraces(); len(got) != 1 || got[0].ID != info.ID {
		t.Errorf("ListTraces = %+v", got)
	}
	if _, ok := TracePath(info.ID); !ok {
		t.Error("TracePath of stored trace failed")
	}
}

// TestRecordTraceGolden pins the SHA-256 of RecordTrace's output for a
// catalog, a kernel and a stored-trace source. Trace ids are hashes of
// these bytes, so any change to the encoder or to how RecordTrace draws
// the stream that alters a byte fails here.
func TestRecordTraceGolden(t *testing.T) {
	setTraceLib(t)
	// A 30k-access capture replayed for 100k accesses wraps the stored
	// trace three times.
	info, err := ImportTrace(bytes.NewReader(recordBench(t, "tpc-c", 2, 30_000)), "")
	if err != nil {
		t.Fatal(err)
	}
	if info.ID != "addfce3ef5a23089" {
		t.Errorf("capture id = %s, want addfce3ef5a23089", info.ID)
	}
	for _, c := range []struct{ bench, want string }{
		{"tpc-c", "726238596b901268932b4e9771ab60958aede087a9e8f55ca5c7170b9cdedb21"},
		{KernelPrefix + "spmv", "23c0c41e48635fa71dbabb2124e6c7fb18c778e943092c7a267c17c0a28a87b9"},
		{TracePrefix + info.ID, "d1ebfba5e4493acff0cb30638f20956f9282cdbfe3465659ef7b229dc7bc71a7"},
	} {
		sum := sha256.Sum256(recordBench(t, c.bench, 2, 100_000))
		if got := hex.EncodeToString(sum[:]); got != c.want {
			t.Errorf("RecordTrace(%s) digest = %s, want %s", c.bench, got, c.want)
		}
	}
}

func TestTraceRunWithoutLibrary(t *testing.T) {
	if err := SetTraceDir(""); err != nil {
		t.Fatal(err)
	}
	if _, err := runOne(context.Background(), D2MNSR, TracePrefix+"0000000000000000",
		Options{Nodes: 2, Warmup: 1000, Measure: 1000}); err == nil {
		t.Error("trace benchmark ran without a trace library")
	}
	if _, err := ImportTrace(strings.NewReader("x"), ""); err == nil {
		t.Error("ImportTrace succeeded without a trace library")
	}
	if got := ListTraces(); got != nil {
		t.Errorf("ListTraces without a library = %+v", got)
	}
}

// TestTraceWarmSnapshotExactness is the snapshot matrix for a trace
// benchmark: cold-through-cache, projected (the captured window again)
// and snapshot-restored (a window the capture did not measure) runs
// must be byte-identical to fresh runs, for every kind — the FileReader
// clone frozen mid-trace must resume exactly.
func TestTraceWarmSnapshotExactness(t *testing.T) {
	setTraceLib(t)
	ctx := context.Background()
	info, err := ImportTrace(bytes.NewReader(recordBench(t, "radix", 2, 15_000)), "")
	if err != nil {
		t.Fatal(err)
	}
	bench := TracePrefix + info.ID
	// Warmup larger than the trace forces a Loop wrap before the
	// snapshot boundary.
	opt := Options{Nodes: 2, Warmup: 20_000, Measure: 8000, Seed: 7}

	for _, kind := range allKinds() {
		t.Run(kind.String(), func(t *testing.T) {
			fresh, err := runOne(ctx, kind, bench, opt)
			if err != nil {
				t.Fatal(err)
			}
			wc := newMapWarmCache()
			first, err := runOneWarm(ctx, kind, bench, opt, wc)
			if err != nil {
				t.Fatal(err)
			}
			second, err := runOneWarm(ctx, kind, bench, opt, wc)
			if err != nil {
				t.Fatal(err)
			}
			longer := opt
			longer.Measure += 2000
			freshLonger, err := runOne(ctx, kind, bench, longer)
			if err != nil {
				t.Fatal(err)
			}
			restored, err := runOneWarm(ctx, kind, bench, longer, wc)
			if err != nil {
				t.Fatal(err)
			}
			if wc.hits != 2 || wc.misses != 1 {
				t.Fatalf("warm cache saw %d hits / %d misses, want 2 / 1", wc.hits, wc.misses)
			}
			assertSameResult(t, "cold-through-cache", fresh, first)
			assertSameResult(t, "projected", fresh, second)
			assertSameResult(t, "snapshot-restored", freshLonger, restored)
		})
	}
}

// TestTraceRunGroup checks trace benchmarks ride the vector engine:
// every lane of a group over a stored trace matches its scalar run.
func TestTraceRunGroup(t *testing.T) {
	setTraceLib(t)
	ctx := context.Background()
	info, err := ImportTrace(bytes.NewReader(recordBench(t, "tpc-c", 2, 12_000)), "")
	if err != nil {
		t.Fatal(err)
	}
	bench := TracePrefix + info.ID
	base := Options{Nodes: 2, Warmup: 2000, Seed: 3}
	assertLanesMatchScalar(t, ctx, groupOf(D2MNSR, bench, base, []int{3000, 5000, 8000}, []float64{0, 0.002, 0}))
}

// TestBlockScalarDifferentialMatrix checks that the executor (lane
// walk, window extraction, projection) adds nothing to what the engine
// computes: across kinds, topologies and source families (generated
// benchmarks from different suites, the vector extras, and
// recorded-trace replay), the executor's Result marshals to the same
// bytes as the engine's RunContext over the same stream, projected by
// hand. That Fill equals Next on every source is pinned by
// TestStreamDigests.
func TestBlockScalarDifferentialMatrix(t *testing.T) {
	sources := []string{"tpc-c", "radix", "barnes", "vec-stride16"}
	topos := []string{"", "ring", "mesh", "torus"}

	var traceEnc []byte // lazily recorded once
	mkStream := func(src string, opt Options) trace.Stream {
		if src == "trace" {
			if traceEnc == nil {
				traceEnc = recordBench(t, "tpc-c", opt.Nodes, 10_000)
			}
			rd, err := trace.ReadTrace(bytes.NewReader(traceEnc))
			if err != nil {
				t.Fatal(err)
			}
			rd.Loop = true
			return rd
		}
		sp, ok := workloads.ByName(src)
		if !ok {
			t.Fatalf("unknown benchmark %s", src)
		}
		return trace.NewInterleaver(specStreams(sp, opt))
	}

	for _, kind := range allKinds() {
		kind := kind
		t.Run(kind.String(), func(t *testing.T) {
			t.Parallel()
			ctx := context.Background()
			mech, err := mechFor(kind)
			if err != nil {
				t.Fatal(err)
			}
			for i, src := range append(sources, "trace") {
				opt := Options{Nodes: 2, Warmup: 2000, Measure: 5000, Topology: topos[i%len(topos)]}.withDefaults()
				label := source{name: src}
				viaExecute := func(s trace.Stream) Result {
					rs, err := execute(ctx, CellKey{kind: kind},
						source{name: src, streams: func(Options) []trace.Stream { return []trace.Stream{s} }}, []Options{opt}, nil, nil)
					if err != nil {
						t.Fatal(err)
					}
					return *rs[0]
				}
				viaEngine := func(s trace.Stream) Result {
					inst := mech.New(mechOptions(opt))
					defer inst.Release()
					rep, err := sim.NewEngine(inst, opt.Nodes).RunContext(ctx, s, opt.Warmup, opt.Measure)
					if err != nil {
						t.Fatal(err)
					}
					o, err := windowResult(kind, label, inst, mech, rep)
					if err != nil {
						t.Fatal(err)
					}
					return *o.project(opt)
				}
				want, _ := json.Marshal(viaExecute(mkStream(src, opt)))
				if got, _ := json.Marshal(viaEngine(mkStream(src, opt))); string(got) != string(want) {
					t.Errorf("%s/%s/topology=%q: the engine's run differs from the executor's:\n executor %s\n engine   %s",
						kind, src, opt.Topology, want, got)
				}
			}
		})
	}
}

// TestVectorSuite covers the strided/vector extras: outside the paper's
// pinned catalog, resolvable by name, and the VectorLines knob is both
// observable and exactly neutral at 0 vs 1.
func TestVectorSuite(t *testing.T) {
	for _, s := range Suites() {
		if s == SuiteVector {
			t.Fatalf("Suites() includes %s; the extras suite must not dilute the paper's five", SuiteVector)
		}
	}
	names := BenchmarksOf(SuiteVector)
	if len(names) == 0 {
		t.Fatal("no Vector extras benchmarks")
	}
	for _, b := range Benchmarks() {
		if strings.HasPrefix(b, "vec-") {
			t.Fatalf("Benchmarks() includes extras entry %s", b)
		}
	}
	ctx := context.Background()
	opt := Options{Nodes: 2, Warmup: 3000, Measure: 6000}
	results := map[string]Result{}
	for _, name := range names {
		if suite, ok := SuiteOf(name); !ok || suite != SuiteVector {
			t.Errorf("SuiteOf(%q) = %q, %v", name, suite, ok)
		}
		res, err := runOne(ctx, D2MNSR, name, opt)
		if err != nil {
			t.Fatal(err)
		}
		results[name] = res
	}
	// Different vector shapes are different workloads.
	if dense, scatter := results["vec-dense"], results["vec-scatter"]; dense.Cycles == scatter.Cycles {
		t.Errorf("vec-dense and vec-scatter produced identical cycle counts (%v)", dense.Cycles)
	}

	// VectorLines 0 and 1 both mean single-line touches: byte-identical.
	w := WorkloadSpec{
		Name: "v", CodeBytes: 64 << 10, HotCodeBytes: 8 << 10,
		HotDataBytes: 32 << 10, PrivateWS: 1 << 20,
		DataFrac: 0.5, StreamFrac: 0.5, StreamBytes: 1 << 20, StrideLines: 4,
	}
	w0, w1 := w, w
	w0.VectorLines = 0
	w1.VectorLines = 1
	r0, err := runWorkload(D2MNSR, w0, opt)
	if err != nil {
		t.Fatal(err)
	}
	r1, err := runWorkload(D2MNSR, w1, opt)
	if err != nil {
		t.Fatal(err)
	}
	assertSameResult(t, "VectorLines 0 vs 1", r0, r1)
	// And 8 is a different stream.
	w8 := w
	w8.VectorLines = 8
	r8, err := runWorkload(D2MNSR, w8, opt)
	if err != nil {
		t.Fatal(err)
	}
	if r8.Cycles == r0.Cycles {
		t.Errorf("VectorLines = 8 produced identical cycles to 1 (%v)", r8.Cycles)
	}
}

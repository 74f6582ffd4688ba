package d2m

import (
	"bytes"
	"context"
	"encoding/json"
	"strings"
	"testing"

	"d2m/internal/core"
)

// fastOpt keeps unit-test runtime reasonable while remaining long enough
// for the cache state to stabilize.
var fastOpt = Options{Warmup: 100_000, Measure: 300_000}

// runSim is the tests' shim over the spec-driven Run entry point: most
// tests exercise plain single runs and want the old (kind, bench, opt)
// shape.
func runSim(kind Kind, bench string, opt Options) (Result, error) {
	out, err := Run(context.Background(), RunSpec{Kind: kind, Benchmark: bench, Options: opt})
	return out.Result, err
}

// runWorkload runs a custom workload spec through Run.
func runWorkload(kind Kind, w WorkloadSpec, opt Options) (Result, error) {
	out, err := Run(context.Background(), RunSpec{Kind: kind, Workload: &w, Options: opt})
	return out.Result, err
}

func TestKindStrings(t *testing.T) {
	want := map[Kind]string{
		Base2L: "Base-2L", Base3L: "Base-3L",
		D2MFS: "D2M-FS", D2MNS: "D2M-NS", D2MNSR: "D2M-NS-R",
	}
	for k, s := range want {
		if k.String() != s {
			t.Errorf("%d.String() = %q, want %q", k, k.String(), s)
		}
	}
	if Kind(99).String() != "Kind(99)" {
		t.Error("unknown kind string")
	}
	if Base2L.IsD2M() || Base3L.IsD2M() || !D2MFS.IsD2M() || !D2MNSR.IsD2M() {
		t.Error("IsD2M wrong")
	}
	if len(Kinds()) != 5 {
		t.Error("Kinds() != 5")
	}
}

// TestRunValidation checks every run path rejects every invalid spec
// with an error — never a zero Result, never a panic — for every
// workload source, and accepts the valid one.
func TestRunValidation(t *testing.T) {
	setTraceLib(t)
	var enc bytes.Buffer
	if _, err := RecordTrace("fft", 4, 4000, &enc); err != nil {
		t.Fatal(err)
	}
	info, err := ImportTrace(&enc, "")
	if err != nil {
		t.Fatal(err)
	}
	w := exampleWorkload()
	sources := []struct {
		name string
		spec RunSpec
	}{
		{"catalog", RunSpec{Benchmark: "fft"}},
		{"kernel", RunSpec{Benchmark: KernelPrefix + "stencil"}},
		{"trace", RunSpec{Benchmark: TracePrefix + info.ID}},
		{"mix", RunSpec{Benchmark: MixPrefix + "tpc-c+fft"}},
		{"custom", RunSpec{Workload: &w}},
	}
	rows := []struct {
		name   string
		valid  bool
		mutate func(*RunSpec)
	}{
		{"valid", true, func(*RunSpec) {}},
		{"nodes 9", false, func(s *RunSpec) { s.Options.Nodes = 9 }},
		{"MDScale 3", false, func(s *RunSpec) { s.Options.MDScale = 3 }},
		{"Measure -5", false, func(s *RunSpec) { s.Options.Measure = -5 }},
		{"Kind(99)", false, func(s *RunSpec) { s.Kind = Kind(99) }},
		{"unknown topology", false, func(s *RunSpec) { s.Options.Topology = "hypercube" }},
		{"unknown placement", false, func(s *RunSpec) { s.Options.Placement = "random" }},
	}
	ctx := context.Background()
	base := Options{Nodes: 4, Warmup: 1000, Measure: 2000}
	for _, src := range sources {
		for _, row := range rows {
			spec := src.spec
			spec.Kind, spec.Options = D2MNSR, base
			row.mutate(&spec)
			out, err := Run(ctx, spec)
			if row.valid && err != nil {
				t.Errorf("%s/%s: %v", src.name, row.name, err)
			}
			if !row.valid && err == nil {
				t.Errorf("%s/%s: accepted (Result %+v)", src.name, row.name, out.Result)
			}
		}
		// A group validates every lane, not only lane 0.
		lanes := make([]GroupLane, 3)
		for i := range lanes {
			spec := src.spec
			spec.Kind, spec.Options = D2MNSR, base
			lanes[i] = GroupLane{Spec: spec}
		}
		lanes[1].Spec.Options.Measure = -5
		if _, err := RunGroup(ctx, lanes); err == nil {
			t.Errorf("%s: RunGroup accepted lane 1 with Measure -5", src.name)
		}
	}
	for _, spec := range []RunSpec{
		{Benchmark: "not-a-benchmark"},
		{Benchmark: KernelPrefix + "no-such"},
		{Benchmark: "fft", Workload: &w},
	} {
		spec.Options = base
		if _, err := Run(ctx, spec); err == nil {
			t.Errorf("source %q (custom %v) accepted", spec.Benchmark, spec.Workload != nil)
		}
	}
}

func TestCatalogAccessors(t *testing.T) {
	if len(Benchmarks()) != 45 {
		t.Errorf("Benchmarks() = %d, want 45", len(Benchmarks()))
	}
	if len(Suites()) != 5 {
		t.Errorf("Suites() = %d", len(Suites()))
	}
	suite, ok := SuiteOf("tpc-c")
	if !ok || suite != "Database" {
		t.Errorf("SuiteOf(tpc-c) = %q, %v", suite, ok)
	}
	if _, ok := SuiteOf("nope"); ok {
		t.Error("SuiteOf accepted bogus name")
	}
	total := 0
	for _, s := range Suites() {
		total += len(BenchmarksOf(s))
	}
	if total != 45 {
		t.Errorf("suite benchmarks sum to %d", total)
	}
}

func TestRunDeterminism(t *testing.T) {
	a, err := runSim(D2MNSR, "fft", fastOpt)
	if err != nil {
		t.Fatal(err)
	}
	b, _ := runSim(D2MNSR, "fft", fastOpt)
	if a.Cycles != b.Cycles || a.Messages != b.Messages || a.EDP != b.EDP {
		t.Error("identical runs diverged")
	}
	seeded := fastOpt
	seeded.Seed = 7
	c, _ := runSim(D2MNSR, "fft", seeded)
	if c.Cycles == a.Cycles && c.Messages == a.Messages {
		t.Error("different seed produced identical run")
	}
}

// TestPaperConfig pins the Table III configuration constants.
func TestPaperConfig(t *testing.T) {
	geo := func(kind Kind) core.Config {
		t.Helper()
		cfg, err := geometry(kind, Options{}.withDefaults())
		if err != nil {
			t.Fatal(err)
		}
		return cfg.(core.Config)
	}
	cfg := geo(D2MNSR)
	if cfg.Nodes != 8 {
		t.Errorf("nodes = %d", cfg.Nodes)
	}
	if cfg.L1Sets*cfg.L1Ways*64 != 32<<10 {
		t.Errorf("L1 size = %d", cfg.L1Sets*cfg.L1Ways*64)
	}
	if cfg.SliceSets*cfg.SliceWays*64*8 != 8<<20 {
		t.Errorf("total NS-LLC = %d", cfg.SliceSets*cfg.SliceWays*64*8)
	}
	if cfg.MD1Sets*cfg.MD1Ways != 128 || cfg.MD2Sets*cfg.MD2Ways != 4096 || cfg.MD3Sets*cfg.MD3Ways != 16384 {
		t.Errorf("MD entries = %d/%d/%d, want 128/4k/16k",
			cfg.MD1Sets*cfg.MD1Ways, cfg.MD2Sets*cfg.MD2Ways, cfg.MD3Sets*cfg.MD3Ways)
	}
	if !cfg.NearSide || !cfg.Replication || !cfg.DynamicIndexing {
		t.Error("D2M-NS-R must enable NS, replication and dynamic indexing")
	}
	fs := geo(D2MFS)
	if fs.NearSide || fs.Replication {
		t.Error("D2M-FS must be far-side without replication")
	}
	if fs.LLCSets*fs.LLCWays*64 != 8<<20 {
		t.Errorf("far LLC = %d", fs.LLCSets*fs.LLCWays*64)
	}
}

// TestCalibrationAgainstTableIV checks the Base-2L workload calibration
// against the published per-suite miss and late-hit ratios, with
// tolerance bands wide enough to absorb window-length effects but tight
// enough that a mis-tuned generator fails.
func TestCalibrationAgainstTableIV(t *testing.T) {
	if testing.Short() {
		t.Skip("calibration sweep is slow")
	}
	targets := map[string][4]float64{ // missI%, missD%, lateI%, lateD%
		"Parallel": {0.2, 1.9, 0.1, 2.9},
		"HPC":      {0.0, 2.2, 0.0, 4.6},
		"Server":   {0.4, 3.6, 0.3, 9.5},
		"Mobile":   {2.2, 1.3, 1.8, 3.0},
		"Database": {8.8, 3.3, 6.2, 4.2},
	}
	within := func(got, want, absTol, relTol float64) bool {
		d := got - want
		if d < 0 {
			d = -d
		}
		return d <= absTol || d <= want*relTol
	}
	for _, suite := range Suites() {
		var mi, md, li, ld float64
		benches := BenchmarksOf(suite)
		for _, b := range benches {
			r, err := runSim(Base2L, b, fastOpt)
			if err != nil {
				t.Fatal(err)
			}
			mi += r.MissRatioI * 100
			md += r.MissRatioD * 100
			li += r.LateHitI * 100
			ld += r.LateHitD * 100
		}
		n := float64(len(benches))
		mi, md, li, ld = mi/n, md/n, li/n, ld/n
		tg := targets[suite]
		if !within(mi, tg[0], 0.7, 0.5) {
			t.Errorf("%s: missI = %.2f%%, want ~%.1f%%", suite, mi, tg[0])
		}
		if !within(md, tg[1], 0.8, 0.6) {
			t.Errorf("%s: missD = %.2f%%, want ~%.1f%%", suite, md, tg[1])
		}
		if !within(li, tg[2], 2.0, 0.8) {
			t.Errorf("%s: lateI = %.2f%%, want ~%.1f%%", suite, li, tg[2])
		}
		if !within(ld, tg[3], 3.0, 0.8) {
			t.Errorf("%s: lateD = %.2f%%, want ~%.1f%%", suite, ld, tg[3])
		}
	}
}

// TestHeadlineShapes asserts the qualitative results the paper reports —
// who wins, in which direction — on a representative benchmark subset.
func TestHeadlineShapes(t *testing.T) {
	if testing.Short() {
		t.Skip("shape sweep is slow")
	}
	benches := []string{"blackscholes", "canneal", "barnes", "fft", "cnn", "wikipedia", "mix1", "tpc-c"}
	res := map[Kind][]Result{}
	for _, k := range Kinds() {
		for _, b := range benches {
			r, err := runSim(k, b, fastOpt)
			if err != nil {
				t.Fatal(err)
			}
			res[k] = append(res[k], r)
		}
	}
	var trafficWins, edpWins, speedWins int
	for i, b := range benches {
		base := res[Base2L][i]
		nsr := res[D2MNSR][i]
		if nsr.MsgsPerKI < base.MsgsPerKI {
			trafficWins++
		}
		if nsr.EDP < base.EDP {
			edpWins++
		}
		if nsr.Cycles < base.Cycles {
			speedWins++
		}
		// Direct (directory-free) misses must dominate (paper: ~90%).
		if nsr.DirectMissFrac < 0.6 {
			t.Errorf("%s: direct-miss fraction %.2f, want > 0.6", b, nsr.DirectMissFrac)
		}
		// The L1 miss latency must improve (paper: -30% average).
		if nsr.AvgMissLatency >= base.AvgMissLatency {
			t.Errorf("%s: D2M-NS-R did not reduce the L1 miss latency", b)
		}
	}
	if trafficWins < len(benches)-1 {
		t.Errorf("D2M-NS-R cut traffic on only %d/%d benchmarks", trafficWins, len(benches))
	}
	if edpWins != len(benches) {
		t.Errorf("D2M-NS-R cut EDP on only %d/%d benchmarks", edpWins, len(benches))
	}
	if speedWins != len(benches) {
		t.Errorf("D2M-NS-R sped up only %d/%d benchmarks", speedWins, len(benches))
	}

	// Database shows the largest speedup (its instruction footprint is
	// what the near-side slice-as-private-L2 effect targets).
	dbIdx := len(benches) - 1
	dbSpeed := float64(res[Base2L][dbIdx].Cycles) / float64(res[D2MNSR][dbIdx].Cycles)
	for i := range benches[:dbIdx] {
		s := float64(res[Base2L][i].Cycles) / float64(res[D2MNSR][i].Cycles)
		if s > dbSpeed {
			t.Errorf("%s speedup %.2f exceeds database's %.2f", benches[i], s, dbSpeed)
		}
	}

	// Server mixes: all misses private (Table V: "the programs do not
	// share any data").
	mixIdx := 6
	if res[D2MNSR][mixIdx].PrivateMissFrac < 0.99 {
		t.Errorf("mix1 private-miss fraction = %.2f, want ~1.0", res[D2MNSR][mixIdx].PrivateMissFrac)
	}

	// Replication raises the near-side instruction hit ratio (paper:
	// 26% -> 97% for Database).
	if res[D2MNSR][dbIdx].NearHitI <= res[D2MNS][dbIdx].NearHitI {
		t.Error("replication did not raise the database near-side I hit ratio")
	}
}

func TestRenderersProduceOutput(t *testing.T) {
	rows5 := []Figure5Row{{Benchmark: "x", Suite: "HPC", MsgsPerKI: [5]float64{10, 9, 8, 7, 3}}}
	if out := RenderFigure5(rows5); !strings.Contains(out, "x") || !strings.Contains(out, "reduction") {
		t.Errorf("RenderFigure5: %q", out)
	}
	if r := Figure5Reduction(rows5); r < 0.69 || r > 0.71 {
		t.Errorf("Figure5Reduction = %v, want 0.70", r)
	}
	rows6 := []Figure6Row{{Benchmark: "x", EDP: [5]float64{1, 1.1, 0.7, 0.6, 0.5}}}
	if out := RenderFigure6(rows6); !strings.Contains(out, "50%") && !strings.Contains(out, "0.50") {
		t.Errorf("RenderFigure6: %q", out)
	}
	if r := Figure6Reduction(rows6, D2MNSR, Base2L); r < 0.49 || r > 0.51 {
		t.Errorf("Figure6Reduction = %v", r)
	}
	rows7 := []Figure7Row{{Benchmark: "x", SpeedupPct: [5]float64{0, 4, 6, 7, 9}}}
	if out := RenderFigure7(rows7); !strings.Contains(out, "averages") {
		t.Errorf("RenderFigure7: %q", out)
	}
	if a := Figure7Average(rows7, D2MNSR); a < 8.9 || a > 9.1 {
		t.Errorf("Figure7Average = %v", a)
	}
	if out := RenderTableIV([]TableIVRow{{Suite: "HPC"}}); !strings.Contains(out, "HPC") {
		t.Error("RenderTableIV empty")
	}
	if out := RenderTableV([]TableVRow{{Suite: "HPC", PrivateMissPct: 68}}); !strings.Contains(out, "68") {
		t.Error("RenderTableV missing data")
	}
	if out := RenderPKMO(PKMOReport{DirectPct: 90}); !strings.Contains(out, "90") {
		t.Error("RenderPKMO missing data")
	}
	if out := RenderScaling([]ScalingRow{{Scale: 1, SpeedupPct: 8.5}}); !strings.Contains(out, "1x") {
		t.Error("RenderScaling missing data")
	}
}

func TestPKMOHelpers(t *testing.T) {
	p := PKMO{ALLC: 8.9, AMem: 2.7, ANode: 0.8, D1: 0.32, D2: 0.02, D3: 0.14, D4: 0.34}
	if a := p.A(); a < 12.39 || a > 12.41 {
		t.Errorf("A() = %v", a)
	}
	if d := p.D(); d < 0.81 || d > 0.83 {
		t.Errorf("D() = %v", d)
	}
}

// TestD2DCoverageShape checks §II-A's claims: the first-level MD tracks
// the overwhelming majority of accesses (98.8% combined for D2D), and
// coverage decreases monotonically with distance from the core
// (99.7% L1 > 87.2% L2 > 75.6% memory).
func TestD2DCoverageShape(t *testing.T) {
	rep, err := D2DCoverage(fastOpt, "facesim")
	if err != nil {
		t.Fatal(err)
	}
	if rep.Combined < 95 {
		t.Errorf("combined MD1 coverage = %.1f%%, want > 95%% (paper: 98.8%%)", rep.Combined)
	}
	if !(rep.L1 >= rep.L2 && rep.L2 >= rep.Mem) {
		t.Errorf("coverage not monotone: L1 %.1f, L2 %.1f, mem %.1f", rep.L1, rep.L2, rep.Mem)
	}
	if rep.L2 == 0 {
		t.Error("no L2 hits measured; the D2D configuration must include an L2")
	}
	if out := RenderCoverage(rep, "facesim"); !strings.Contains(out, "99.7") {
		t.Error("render missing the paper column")
	}
}

// TestD2DCoverageSeed checks the coverage study draws the seeded stream
// every run draws: another run seed is another report.
func TestD2DCoverageSeed(t *testing.T) {
	opt := Options{Warmup: 20_000, Measure: 60_000}
	at0, err := D2DCoverage(opt, "facesim")
	if err != nil {
		t.Fatal(err)
	}
	opt.Seed = 7
	at7, err := D2DCoverage(opt, "facesim")
	if err != nil {
		t.Fatal(err)
	}
	if at0 == at7 {
		t.Errorf("seeds 0 and 7 report the same coverage %+v", at0)
	}
}

// TestMDScalingShape checks §V-D footnote 5: growing the metadata
// structures must not hurt, and MD1 coverage must not decrease.
func TestMDScalingShape(t *testing.T) {
	if testing.Short() {
		t.Skip("scaling sweep is slow")
	}
	rows := MDScaling(fastOpt, []string{"tpc-c", "canneal", "cnn"})
	if len(rows) != 3 || rows[0].Scale != 1 || rows[2].Scale != 4 {
		t.Fatalf("rows = %+v", rows)
	}
	if rows[2].SpeedupPct < rows[0].SpeedupPct-1.0 {
		t.Errorf("4x MD slower than 1x: %.2f vs %.2f", rows[2].SpeedupPct, rows[0].SpeedupPct)
	}
	if rows[2].MD1HitPct < rows[0].MD1HitPct-0.5 {
		t.Errorf("4x MD1 coverage below 1x: %.2f vs %.2f", rows[2].MD1HitPct, rows[0].MD1HitPct)
	}
}

// TestDynamicIndexingHelpsLU checks §IV-D: the per-region scramble must
// cut conflict-driven DRAM traffic for the power-of-two-strided LU
// benchmarks.
func TestDynamicIndexingHelpsLU(t *testing.T) {
	if testing.Short() {
		t.Skip("slow")
	}
	// Compare D2M-NS (no scrambling) with D2M-NS-R (scrambled LLC
	// indexing) on lu_cb: the strided stream aliases onto few LLC sets
	// without scrambling.
	ns, err := runSim(D2MNS, "lu_cb", fastOpt)
	if err != nil {
		t.Fatal(err)
	}
	nsr, err := runSim(D2MNSR, "lu_cb", fastOpt)
	if err != nil {
		t.Fatal(err)
	}
	if nsr.DRAMReads >= ns.DRAMReads {
		t.Errorf("scrambling did not cut LU conflict misses: DRAM %d -> %d", ns.DRAMReads, nsr.DRAMReads)
	}
}

// TestSRAMPressureShape checks the §V-B claim directionally: the shared
// metadata (MD3) is consulted far less often than a conventional
// directory, because ~90% of misses resolve without it.
func TestSRAMPressureShape(t *testing.T) {
	if testing.Short() {
		t.Skip("slow")
	}
	var md3, dir float64
	for _, b := range []string{"fft", "tpc-c", "mix1"} {
		d, err := runSim(D2MNSR, b, fastOpt)
		if err != nil {
			t.Fatal(err)
		}
		base, _ := runSim(Base2L, b, fastOpt)
		md3 += float64(d.MD3Lookups)
		dir += float64(base.DirLookups)
	}
	if ratio := md3 / dir; ratio > 0.5 {
		t.Errorf("MD3/directory access ratio = %.2f, want well below 1 (paper: 0.11)", ratio)
	}
}

// TestRecordAndReplay checks that a recorded trace replays to the exact
// same measured behaviour as the generator that produced it.
func TestRecordAndReplay(t *testing.T) {
	var buf bytes.Buffer
	total := fastOpt.Warmup + fastOpt.Measure
	n, err := RecordTrace("fft", 8, total, &buf)
	if err != nil || n != total {
		t.Fatalf("RecordTrace = %d, %v", n, err)
	}
	setTraceLib(t)
	info, err := ImportTrace(&buf, "fft")
	if err != nil {
		t.Fatal(err)
	}
	replayed, err := runSim(D2MNSR, TracePrefix+info.ID, fastOpt)
	if err != nil {
		t.Fatal(err)
	}
	direct, err := runSim(D2MNSR, "fft", fastOpt)
	if err != nil {
		t.Fatal(err)
	}
	if replayed.Cycles != direct.Cycles || replayed.Messages != direct.Messages ||
		replayed.MissRatioD != direct.MissRatioD {
		t.Errorf("replay diverged: cycles %d vs %d, msgs %d vs %d",
			replayed.Cycles, direct.Cycles, replayed.Messages, direct.Messages)
	}
}

func TestRecordTraceValidation(t *testing.T) {
	var buf bytes.Buffer
	if _, err := RecordTrace("nope", 4, 10, &buf); err == nil {
		t.Error("unknown benchmark accepted")
	}
	if _, err := RecordTrace("fft", 0, 10, &buf); err == nil {
		t.Error("0 nodes accepted")
	}
	if _, err := RecordTrace("fft", 4, 0, &buf); err == nil {
		t.Error("0 accesses accepted")
	}
}

func TestRunTraceValidation(t *testing.T) {
	setTraceLib(t)
	if _, err := ImportTrace(strings.NewReader("junk"), ""); err == nil {
		t.Error("junk trace accepted")
	}
	var buf bytes.Buffer
	RecordTrace("fft", 8, 100, &buf)
	info, err := ImportTrace(&buf, "")
	if err != nil {
		t.Fatal(err)
	}
	opt := fastOpt
	opt.Nodes = 2 // trace uses nodes 0..7
	if _, err := runSim(Base2L, TracePrefix+info.ID, opt); err == nil {
		t.Error("trace with out-of-range nodes accepted")
	}
}

// exampleWorkload is a small, valid custom workload used by the
// WorkloadSpec tests.
func exampleWorkload() WorkloadSpec {
	return WorkloadSpec{
		Name: "kvstore", SharedCode: true,
		CodeBytes: 256 << 10, HotCodeBytes: 16 << 10,
		HotJumpFrac: 0.97, RejumpFrac: 0.3, JumpProb: 0.05,
		DataFrac: 0.5, WriteFrac: 0.3, RepeatFrac: 0.5,
		HotDataBytes: 16 << 10, HotDataFrac: 0.95,
		WarmBytes: 64 << 10, WarmFrac: 0.9, PrivateWS: 8 << 20,
		SharedFrac: 0.15, SharedHotBytes: 8 << 10, SharedHotFrac: 0.9,
		SharedWS: 4 << 20, SharedWriteFrac: 0.05,
	}
}

func TestRunCustomWorkload(t *testing.T) {
	w := exampleWorkload()
	base, err := runWorkload(Base2L, w, fastOpt)
	if err != nil {
		t.Fatal(err)
	}
	nsr, err := runWorkload(D2MNSR, w, fastOpt)
	if err != nil {
		t.Fatal(err)
	}
	if base.Benchmark != "kvstore" || nsr.Suite != "Custom" {
		t.Errorf("labels: %q %q", base.Benchmark, nsr.Suite)
	}
	if nsr.Cycles >= base.Cycles {
		t.Errorf("D2M-NS-R (%d cycles) did not beat Base-2L (%d) on a typical workload", nsr.Cycles, base.Cycles)
	}
	// Determinism across calls.
	again, _ := runWorkload(D2MNSR, w, fastOpt)
	if again.Cycles != nsr.Cycles {
		t.Error("custom run not deterministic")
	}
}

func TestParseWorkloadJSON(t *testing.T) {
	w := exampleWorkload()
	data, err := json.Marshal(w)
	if err != nil {
		t.Fatal(err)
	}
	parsed, err := ParseWorkload(data)
	if err != nil {
		t.Fatal(err)
	}
	if parsed != w {
		t.Errorf("round trip changed the spec:\n%+v\n%+v", parsed, w)
	}
	if _, err := ParseWorkload([]byte("{")); err == nil {
		t.Error("malformed JSON accepted")
	}
	if _, err := ParseWorkload([]byte(`{"name":"x"}`)); err == nil {
		t.Error("spec without footprints accepted")
	}
}

func TestWorkloadSpecValidate(t *testing.T) {
	cases := []func(*WorkloadSpec){
		func(w *WorkloadSpec) { w.HotJumpFrac = 1.5 },
		func(w *WorkloadSpec) { w.DataFrac = -0.1 },
		func(w *WorkloadSpec) { w.PrivateWS = -1 },
		func(w *WorkloadSpec) { w.CodeBytes = 0 },
		func(w *WorkloadSpec) { w.HotDataBytes = 0 },
	}
	for i, mutate := range cases {
		w := exampleWorkload()
		mutate(&w)
		if err := w.Validate(); err == nil {
			t.Errorf("case %d: invalid spec accepted", i)
		}
	}
	w := exampleWorkload()
	if err := w.Validate(); err != nil {
		t.Errorf("valid spec rejected: %v", err)
	}
}

// TestBypassOption exercises Options.Bypass end to end: a streaming
// workload must report bypassed reads, and coherence/invariants hold
// (covered inside the core tests; here we check the plumbing).
func TestBypassOption(t *testing.T) {
	w := exampleWorkload()
	w.Name = "streaming"
	w.HotDataFrac = 0.3 // most accesses stream through cold data
	w.RepeatFrac = 0.05
	w.WarmFrac = 0.2
	opt := fastOpt
	opt.Bypass = true
	r, err := runWorkload(D2MNSR, w, opt)
	if err != nil {
		t.Fatal(err)
	}
	if r.BypassedReads == 0 {
		t.Error("no bypassed reads on a streaming workload with Bypass on")
	}
	opt.Bypass = false
	r2, _ := runWorkload(D2MNSR, w, opt)
	if r2.BypassedReads != 0 {
		t.Error("bypassed reads reported with Bypass off")
	}
}

// TestLockBitsNegligible reproduces the appendix claim at the paper's
// full configuration: 1K lock bits collide on well under 1% of blocking
// transactions.
func TestLockBitsNegligible(t *testing.T) {
	r, err := runSim(D2MFS, "tpc-c", fastOpt)
	if err != nil {
		t.Fatal(err)
	}
	if r.LockCollisionRate > 0.01 {
		t.Errorf("lock collision rate = %.4f, want < 0.01", r.LockCollisionRate)
	}
}

// TestPrefetchOption checks the Options plumbing and that the prefetcher
// helps a sequential workload (fewer cycles from hidden fetches).
func TestPrefetchOption(t *testing.T) {
	w := exampleWorkload()
	w.Name = "seqwalk"
	w.StreamFrac = 0.4
	w.StreamBytes = 16 << 20
	w.StrideLines = 1
	w.StreamReuse = 2
	base, err := runWorkload(D2MNS, w, fastOpt)
	if err != nil {
		t.Fatal(err)
	}
	opt := fastOpt
	opt.Prefetch = true
	pf, err := runWorkload(D2MNS, w, opt)
	if err != nil {
		t.Fatal(err)
	}
	if pf.PrefetchIssued == 0 || pf.PrefetchUseful == 0 {
		t.Fatalf("prefetcher inactive: issued=%d useful=%d", pf.PrefetchIssued, pf.PrefetchUseful)
	}
	if base.PrefetchIssued != 0 {
		t.Error("prefetches issued with Prefetch off")
	}
	if pf.Cycles >= base.Cycles {
		t.Errorf("prefetching did not help a sequential walk: %d vs %d cycles", pf.Cycles, base.Cycles)
	}
}

// TestHybridKind runs the §III-A hybrid end to end: it must retain most
// of D2M-NS-R's advantage over Base-2L ("achieving most of the reported
// D2M advantages") while keeping a conventional L1 front-end.
func TestHybridKind(t *testing.T) {
	if D2MHybrid.String() != "D2M-Hybrid" || !D2MHybrid.IsD2M() {
		t.Fatal("kind plumbing wrong")
	}
	base, err := runSim(Base2L, "tpc-c", fastOpt)
	if err != nil {
		t.Fatal(err)
	}
	full, _ := runSim(D2MNSR, "tpc-c", fastOpt)
	hyb, err := runSim(D2MHybrid, "tpc-c", fastOpt)
	if err != nil {
		t.Fatal(err)
	}
	if hyb.Cycles >= base.Cycles {
		t.Errorf("hybrid (%d cycles) did not beat Base-2L (%d)", hyb.Cycles, base.Cycles)
	}
	// "Most of the advantages": at least half of the full design's
	// cycle savings are retained.
	fullGain := float64(base.Cycles - full.Cycles)
	hybGain := float64(base.Cycles) - float64(hyb.Cycles)
	if hybGain < fullGain*0.5 {
		t.Errorf("hybrid keeps only %.0f%% of the full design's gain", hybGain/fullGain*100)
	}
	// But the full design keeps an edge (MD1 replaces TLB+tag energy).
	if hyb.EnergyPJ <= full.EnergyPJ {
		t.Errorf("hybrid energy (%.0f) not above full D2M's (%.0f); the tagged front-end must cost something",
			hyb.EnergyPJ, full.EnergyPJ)
	}
}

// TestNodeScalingShape: one node is the D2D degenerate case (everything
// private, no coherence); the advantage must persist as nodes grow.
func TestNodeScalingShape(t *testing.T) {
	if testing.Short() {
		t.Skip("slow")
	}
	rows := NodeScaling(fastOpt, []string{"fft", "tpc-c"})
	if len(rows) != 4 || rows[0].Nodes != 1 || rows[3].Nodes != 8 {
		t.Fatalf("rows = %+v", rows)
	}
	if rows[0].PrivatePct < 99 {
		t.Errorf("single-node private fraction = %.1f%%, want ~100%%", rows[0].PrivatePct)
	}
	for _, r := range rows {
		if r.SpeedupPct <= 0 {
			t.Errorf("%d nodes: D2M-NS-R slower than Base-2L (%.1f%%)", r.Nodes, r.SpeedupPct)
		}
		if r.TrafficRatio >= 1 {
			t.Errorf("%d nodes: no traffic advantage (ratio %.2f)", r.Nodes, r.TrafficRatio)
		}
	}
}

// TestTopologies runs the same benchmark on every interconnect: the
// crossbar default must match the calibrated results exactly, and on a
// mesh the near-side design must save proportionally more hops than
// messages ("fewer network hops").
func TestTopologies(t *testing.T) {
	if _, err := runSim(D2MNSR, "fft", Options{Topology: "nonsense", Warmup: 1000, Measure: 1000}); err == nil {
		t.Error("bogus topology accepted")
	}
	plain, err := runSim(D2MNSR, "fft", fastOpt)
	if err != nil {
		t.Fatal(err)
	}
	xbar := fastOpt
	xbar.Topology = "crossbar"
	same, _ := runSim(D2MNSR, "fft", xbar)
	if same.Cycles != plain.Cycles || same.Messages != plain.Messages {
		t.Error("explicit crossbar differs from the default")
	}

	hopsByTopo := map[string]uint64{}
	for _, topo := range []string{"ring", "mesh", "torus"} {
		o := fastOpt
		o.Topology = topo
		base, err := runSim(Base2L, "fft", o)
		if err != nil {
			t.Fatal(err)
		}
		nsr, err := runSim(D2MNSR, "fft", o)
		if err != nil {
			t.Fatal(err)
		}
		msgRatio := float64(nsr.Messages) / float64(base.Messages)
		hopRatio := float64(nsr.Hops) / float64(base.Hops)
		if hopRatio >= 1 {
			t.Errorf("%s: D2M-NS-R saves no hops (ratio %.2f)", topo, hopRatio)
		}
		// The hop saving tracks the message saving (both capture the
		// removed traversals; remote-node transfers keep the two within
		// a small band of each other).
		if hopRatio > msgRatio+0.2 {
			t.Errorf("%s: hop ratio %.2f inconsistent with message ratio %.2f", topo, hopRatio, msgRatio)
		}
		hopsByTopo[topo] = nsr.Hops
	}
	// Wrap-around links only shorten paths: the torus never crosses
	// more links than the mesh for the same traffic.
	if hopsByTopo["torus"] > hopsByTopo["mesh"] {
		t.Errorf("torus hops %d > mesh hops %d", hopsByTopo["torus"], hopsByTopo["mesh"])
	}
}

// TestBandwidthConstrainedMode reproduces the §V-D remark: under a
// bandwidth-constrained interconnect, D2M's traffic reduction converts
// into additional speedup beyond the latency effect.
func TestBandwidthConstrainedMode(t *testing.T) {
	if testing.Short() {
		t.Skip("slow")
	}
	inf := fastOpt
	baseInf, err := runSim(Base2L, "tpc-c", inf)
	if err != nil {
		t.Fatal(err)
	}
	nsrInf, _ := runSim(D2MNSR, "tpc-c", inf)
	infSpeed := float64(baseInf.Cycles) / float64(nsrInf.Cycles)

	// Pick a link bandwidth that binds the baseline: its flit-hops per
	// cycle exceed capacity while D2M's lighter traffic fits better.
	bw := fastOpt
	bw.LinkBandwidth = 0.05
	baseBW, _ := runSim(Base2L, "tpc-c", bw)
	nsrBW, _ := runSim(D2MNSR, "tpc-c", bw)
	if !baseBW.BandwidthBound {
		t.Skip("baseline not bandwidth-bound at this setting")
	}
	bwSpeed := float64(baseBW.Cycles) / float64(nsrBW.Cycles)
	if bwSpeed <= infSpeed {
		t.Errorf("bandwidth constraint did not amplify the speedup: %.2f vs %.2f", bwSpeed, infSpeed)
	}
	// Unconstrained results must be untouched by the default options.
	if baseInf.BandwidthBound || nsrInf.BandwidthBound {
		t.Error("infinite-bandwidth run flagged as bandwidth-bound")
	}
}

// TestReplicate exercises the multi-seed aggregation: distinct seeds
// vary the metrics a little; the mean sits among the samples.
func TestReplicate(t *testing.T) {
	rep, err := replicateN(context.Background(), D2MNS, "fft", Options{Warmup: 40_000, Measure: 120_000}, 3)
	if err != nil {
		t.Fatal(err)
	}
	if rep.N != 3 || rep.CyclesMean <= 0 {
		t.Fatalf("rep = %+v", rep)
	}
	if rep.CyclesStd <= 0 {
		t.Error("identical cycles across seeds; seeding is broken")
	}
	if rep.CyclesStd > rep.CyclesMean*0.2 {
		t.Errorf("cycle spread %.0f exceeds 20%% of the mean %.0f; runs unstable", rep.CyclesStd, rep.CyclesMean)
	}
	if _, err := replicateN(context.Background(), D2MNS, "no-such", fastOpt, 2); err == nil {
		t.Error("bad benchmark accepted")
	}
}

// The miss-latency tail: percentiles must be ordered, and D2M's
// deterministic lookup keeps the tail at or below the baseline's on the
// instruction-heavy database workload.
func TestMissLatencyTail(t *testing.T) {
	b2, err := runSim(Base2L, "tpc-c", fastOpt)
	if err != nil {
		t.Fatal(err)
	}
	nsr, err := runSim(D2MNSR, "tpc-c", fastOpt)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range []Result{b2, nsr} {
		if r.MissLatP50 == 0 || r.MissLatP50 > r.MissLatP95 || r.MissLatP95 > r.MissLatP99 {
			t.Errorf("%v: percentiles out of order: P50=%d P95=%d P99=%d",
				r.Kind, r.MissLatP50, r.MissLatP95, r.MissLatP99)
		}
	}
	if nsr.MissLatP95 > b2.MissLatP95 {
		t.Errorf("D2M-NS-R P95 %d > Base-2L P95 %d; the tail should not grow", nsr.MissLatP95, b2.MissLatP95)
	}
}

// Kind names round-trip through the text encoding used by JSON output
// and the CLIs' -kind flags.
func TestKindTextRoundTrip(t *testing.T) {
	for _, k := range append(Kinds(), D2MHybrid) {
		text, err := k.MarshalText()
		if err != nil {
			t.Fatal(err)
		}
		var back Kind
		if err := back.UnmarshalText(text); err != nil {
			t.Fatalf("%s: %v", text, err)
		}
		if back != k {
			t.Errorf("%v round-tripped to %v", k, back)
		}
	}
	var k Kind
	if err := k.UnmarshalText([]byte("d2mnsr")); err != nil || k != D2MNSR {
		t.Errorf("lenient parse failed: %v %v", k, err)
	}
	if err := k.UnmarshalText([]byte("bogus")); err == nil {
		t.Error("bogus kind accepted")
	}
}

// The §IV-B placement design space: local placement preserves near-side
// locality (and the pressure policy behaves like it when no slice is
// overloaded — its 20% spill is a safety valve, not the common case),
// while spreading destroys locality (~1/nodes local hits) and costs
// hops and cycles.
func TestPlacementSweepShape(t *testing.T) {
	if testing.Short() {
		t.Skip("policy sweep")
	}
	rows := PlacementSweep(fastOpt, []string{"fft", "tpc-c", "mix1"})
	byPolicy := map[string]PlacementRow{}
	for _, r := range rows {
		byPolicy[r.Policy] = r
	}
	local, pressure, spread := byPolicy["local"], byPolicy["pressure"], byPolicy["spread"]
	if pressure.LocalHitD < 0.5 {
		t.Errorf("pressure policy local D hits %.2f, want majority-local", pressure.LocalHitD)
	}
	if local.LocalHitD < pressure.LocalHitD-0.01 {
		t.Errorf("always-local hits %.2f below pressure %.2f", local.LocalHitD, pressure.LocalHitD)
	}
	if spread.LocalHitD > 0.3 {
		t.Errorf("spread local hits %.2f, want ~1/nodes", spread.LocalHitD)
	}
	if spread.HopRatio < 1.02 {
		t.Errorf("spread hop ratio %.2f, want above pressure's", spread.HopRatio)
	}
	if spread.CyclesPct < 0.5 {
		t.Errorf("spread only %+.1f%% cycles vs pressure; losing locality should cost time", spread.CyclesPct)
	}
	out := RenderPlacement(rows)
	for _, want := range []string{"local", "pressure", "spread"} {
		if !strings.Contains(out, want) {
			t.Errorf("RenderPlacement missing %q", want)
		}
	}
}

// Placement strings validate like topology strings.
func TestPlacementOptionErrors(t *testing.T) {
	bad := fastOpt
	bad.Placement = "roundrobin"
	if _, err := runSim(D2MNS, "fft", bad); err == nil {
		t.Error("bad placement accepted by Run")
	}
	if _, err := runSim(D2MNS, KernelPrefix+"bfs", bad); err == nil {
		t.Error("bad placement accepted on a kernel")
	}
	if _, err := runSim(D2MNS, MixPrefix+"fft+fft", bad); err == nil {
		t.Error("bad placement accepted on a mix")
	}
	good := fastOpt
	good.Placement = "local"
	if _, err := runSim(D2MNS, "fft", good); err != nil {
		t.Errorf("local placement rejected: %v", err)
	}
}

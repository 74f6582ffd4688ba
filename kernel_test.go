package d2m

import (
	"bytes"
	"strings"
	"testing"
)

func TestKernelsList(t *testing.T) {
	ks := Kernels()
	if len(ks) != 8 {
		t.Fatalf("Kernels() = %d entries, want 8", len(ks))
	}
	for i, k := range ks {
		if k.Name == "" || k.Description == "" {
			t.Fatalf("kernel %d has empty fields: %+v", i, k)
		}
		if i > 0 && ks[i-1].Name >= k.Name {
			t.Fatalf("Kernels() not sorted at %d: %q >= %q", i, ks[i-1].Name, k.Name)
		}
	}
}

func TestRunKernelErrors(t *testing.T) {
	if _, err := runSim(D2MFS, KernelPrefix+"no-such", fastOpt); err == nil {
		t.Error("unknown kernel accepted")
	}
	bad := fastOpt
	bad.Nodes = 99
	if _, err := runSim(D2MFS, KernelPrefix+"matmul", bad); err == nil {
		t.Error("bad node count accepted")
	}
	bad = fastOpt
	bad.Topology = "hypercube"
	if _, err := runSim(D2MFS, KernelPrefix+"matmul", bad); err == nil {
		t.Error("bad topology accepted")
	}
}

func TestRunKernelDeterministic(t *testing.T) {
	opt := Options{Warmup: 30_000, Measure: 60_000}
	a, err := runSim(D2MNSR, KernelPrefix+"stencil", opt)
	if err != nil {
		t.Fatal(err)
	}
	b, err := runSim(D2MNSR, KernelPrefix+"stencil", opt)
	if err != nil {
		t.Fatal(err)
	}
	if a.Cycles != b.Cycles || a.Messages != b.Messages || a.EnergyPJ != b.EnergyPJ {
		t.Fatalf("kernel runs not deterministic: %+v vs %+v", a, b)
	}
	if a.Suite != "Kernel" || a.Benchmark != "stencil" {
		t.Fatalf("result labels wrong: suite=%q bench=%q", a.Suite, a.Benchmark)
	}
}

// The headline orderings must reproduce on the ground-truth algorithmic
// traces, not just the calibrated statistical ones: D2M-NS-R beats
// Base-2L on cycles for every kernel, cuts traffic on the read-heavy
// kernels, and the in-place LU — the paper's §IV-D conflict pathology
// produced by real index arithmetic — is rescued dramatically.
func TestKernelShapes(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-kernel sweep")
	}
	opt := Options{Warmup: 80_000, Measure: 200_000}
	rows := KernelComparison(opt)
	if len(rows) != len(Kernels()) {
		t.Fatalf("%d rows, want %d", len(rows), len(Kernels()))
	}
	byName := map[string]KernelRow{}
	for _, r := range rows {
		byName[r.Kernel] = r
		if r.SpeedupPct[Base2L] != 0 {
			t.Errorf("%s: Base-2L speedup vs itself = %.2f, want 0", r.Kernel, r.SpeedupPct[Base2L])
		}
		if r.SpeedupPct[D2MNSR] <= 0 {
			t.Errorf("%s: D2M-NS-R speedup %.1f%%, want > 0", r.Kernel, r.SpeedupPct[D2MNSR])
		}
	}
	// Read-heavy kernels: the direct-to-data protocol cuts traffic.
	for _, name := range []string{"bfs", "stencil", "kvstore", "matmul", "lu-inplace"} {
		r := byName[name]
		if r.MsgsPerKI[D2MNSR] >= r.MsgsPerKI[Base2L] {
			t.Errorf("%s: D2M-NS-R traffic %.1f >= Base-2L %.1f msgs/KI", name, r.MsgsPerKI[D2MNSR], r.MsgsPerKI[Base2L])
		}
	}
	// The LU pathology: dynamic indexing (on in NS-R, off in FS) must be
	// the difference between modest and dramatic improvement.
	lu := byName["lu-inplace"]
	if lu.SpeedupPct[D2MNSR] < 100 {
		t.Errorf("lu-inplace: D2M-NS-R speedup %.1f%%, want the dramatic (>100%%) conflict rescue", lu.SpeedupPct[D2MNSR])
	}
	if lu.SpeedupPct[D2MNSR] < 2*lu.SpeedupPct[D2MFS] {
		t.Errorf("lu-inplace: NS-R %.1f%% not ≫ FS %.1f%%; scramble effect missing",
			lu.SpeedupPct[D2MNSR], lu.SpeedupPct[D2MFS])
	}

	out := RenderKernels(rows)
	for _, name := range []string{"lu-inplace", "hashjoin", "Base-2L"} {
		if !strings.Contains(out, name) {
			t.Errorf("RenderKernels output missing %q", name)
		}
	}
}

func BenchmarkKernels(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows := KernelComparison(Options{Warmup: 100_000, Measure: 300_000})
		b.Log("\n" + RenderKernels(rows))
	}
}

// A recorded kernel trace (format v2, like every recorded source)
// replays to the identical result as the live stream, and
// characterizes identically.
func TestRecordKernelTrace(t *testing.T) {
	var buf bytes.Buffer
	opt := Options{Warmup: 30_000, Measure: 60_000}
	n, err := RecordTrace(KernelPrefix+"spmv", 4, opt.Warmup+opt.Measure, &buf)
	if err != nil {
		t.Fatal(err)
	}
	if n != opt.Warmup+opt.Measure {
		t.Fatalf("recorded %d accesses", n)
	}
	blob := append([]byte(nil), buf.Bytes()...)
	if blob[7] != 2 { // the header magic ends in the format version
		t.Fatalf("recorded trace format v%d, want v2", blob[7])
	}

	setTraceLib(t)
	info, err := ImportTrace(&buf, "spmv")
	if err != nil {
		t.Fatal(err)
	}
	opt.Nodes = 4
	live, err := runSim(D2MNSR, KernelPrefix+"spmv", opt)
	if err != nil {
		t.Fatal(err)
	}
	replayed, err := runSim(D2MNSR, TracePrefix+info.ID, opt)
	if err != nil {
		t.Fatal(err)
	}
	if live.Cycles != replayed.Cycles || live.Messages != replayed.Messages {
		t.Fatalf("replay differs from live run: %d/%d vs %d/%d cycles/msgs",
			live.Cycles, live.Messages, replayed.Cycles, replayed.Messages)
	}

	an, err := AnalyzeTrace(bytes.NewReader(blob))
	if err != nil {
		t.Fatal(err)
	}
	if an.Accesses != uint64(n) {
		t.Fatalf("analysis saw %d accesses, want %d", an.Accesses, n)
	}

	if _, err := RecordTrace(KernelPrefix+"nope", 4, 10, &buf); err == nil {
		t.Error("unknown kernel accepted")
	}
	if _, err := RecordTrace(KernelPrefix+"spmv", 0, 10, &buf); err == nil {
		t.Error("bad node count accepted")
	}
	if _, err := RecordTrace(KernelPrefix+"spmv", 4, 0, &buf); err == nil {
		t.Error("zero accesses accepted")
	}
}

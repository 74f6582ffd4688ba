package d2m

import (
	"bytes"
	"context"
	"strings"
	"testing"

	"d2m/internal/mem"
	"d2m/internal/trace"
)

// mixSlowdowns runs "mix:<a>+<b>" at opt and each program's solo
// "mix:<x>+" at MixPlan's solo windows (mixSolo) through Run, and
// returns the mixed Result and both slowdowns (mixSlowdown). Unlike
// MixPlan it keeps opt's LinkBandwidth, so 0 runs unconstrained.
func mixSlowdowns(t *testing.T, kind Kind, a, b string, opt Options) (Result, float64, float64) {
	t.Helper()
	run := func(bench string, opt Options) Result {
		r, err := runSim(kind, bench, opt)
		if err != nil {
			t.Fatal(err)
		}
		return r
	}
	opt = opt.WithDefaults()
	solo := mixSolo(opt)
	mixed := run(MixPrefix+a+"+"+b, opt)
	half := opt.Nodes / 2
	if len(mixed.NodeCycles) != opt.Nodes {
		t.Fatalf("mixed run has %d node clocks, want %d", len(mixed.NodeCycles), opt.Nodes)
	}
	for n, c := range mixed.NodeCycles {
		if c == 0 {
			t.Fatalf("node %d idle in the mixed run: %v", n, mixed.NodeCycles)
		}
	}
	soloA, soloB := run(MixPrefix+a+"+", solo), run(MixPrefix+b+"+", solo)
	for _, s := range []Result{soloA, soloB} {
		for n, c := range s.NodeCycles {
			if (n < half) != (c > 0) {
				t.Fatalf("solo run's node clocks %v: want the lower half busy, the upper idle", s.NodeCycles)
			}
		}
	}
	return mixed, mixSlowdown(mixed, soloA, false), mixSlowdown(mixed, soloB, true)
}

// TestRunMixErrors: a mix name is rejected for its shape, its programs,
// the node count it splits and the options it runs at; each must be an
// error, never a zero Result or a panic.
func TestRunMixErrors(t *testing.T) {
	setTraceLib(t)
	var enc bytes.Buffer
	if _, err := RecordTrace("fft", 4, 4000, &enc); err != nil {
		t.Fatal(err)
	}
	info, err := ImportTrace(&enc, "")
	if err != nil {
		t.Fatal(err)
	}
	base := Options{Nodes: 4, Warmup: 1000, Measure: 2000}
	for _, row := range []struct {
		bench  string
		kind   Kind
		mutate func(*Options)
	}{
		{MixPrefix + "tpc-c+fft", D2MNSR, func(o *Options) { o.Nodes = 5 }},
		{MixPrefix + "tpc-c+fft", Base2L, func(o *Options) { o.Topology = "hypercube" }},
		{MixPrefix + "tpc-c+fft", Kind(99), func(*Options) {}},
		{MixPrefix + "tpc-c+fft", D2MNSR, func(o *Options) { o.MDScale = 3 }},
		{MixPrefix + "tpc-c+nope", D2MNSR, nil},
		{MixPrefix + "nope+tpc-c", D2MNSR, nil},
		{MixPrefix + "tpc-c+" + KernelPrefix + "no-such", D2MNSR, nil},
		{MixPrefix + "+fft", D2MNSR, nil},
		{MixPrefix, D2MNSR, nil},
		{MixPrefix + "fft", D2MNSR, nil},
		{MixPrefix + MixPrefix + "fft++fft", D2MNSR, nil},
		{MixPrefix + "fft+" + MixPrefix + "fft+", D2MNSR, nil},
		{MixPrefix + TracePrefix + info.ID + "+fft", D2MNSR, nil},
		{MixPrefix + "fft+" + TracePrefix + info.ID, D2MNSR, nil},
		{MixPrefix + "tpc-c+fft+canneal", D2MNSR, nil},
	} {
		opt := base
		if row.mutate != nil {
			row.mutate(&opt)
		}
		if out, err := Run(context.Background(), RunSpec{Kind: row.kind, Benchmark: row.bench, Options: opt}); err == nil {
			t.Errorf("mix %q (%s, %+v) accepted: %+v", row.bench, row.kind, opt, out.Result)
		}
		// A name is rejected for its own sake only where no option is at fault.
		if _, ok := SuiteOf(row.bench); ok && row.mutate == nil {
			t.Errorf("SuiteOf accepts %q", row.bench)
		}
		// CheckBenchmark, which admission calls, also sees the node count.
		if err := CheckBenchmark(row.bench, opt); err == nil && (row.mutate == nil || opt.Nodes%2 != 0) {
			t.Errorf("CheckBenchmark accepts %q on %d nodes", row.bench, opt.Nodes)
		}
	}
	for _, opt := range []Options{base, {}} {
		if err := CheckBenchmark(MixPrefix+"tpc-c+fft", opt); err != nil {
			t.Errorf("CheckBenchmark(mix:tpc-c+fft, Nodes %d): %v", opt.Nodes, err)
		}
	}
	if err := CheckBenchmark(TracePrefix+info.ID, Options{Nodes: 2}); err == nil {
		t.Errorf("CheckBenchmark accepts a 4-node trace on 2 nodes")
	}
}

func TestMixDeterministicAndLabeled(t *testing.T) {
	opt := Options{Warmup: 60_000, Measure: 120_000}
	a, slowA, slowB := mixSlowdowns(t, D2MNSR, "fft", "canneal", opt)
	b, againA, againB := mixSlowdowns(t, D2MNSR, "fft", "canneal", opt)
	if goldenDigest(a) != goldenDigest(b) || slowA != againA || slowB != againB {
		t.Fatalf("mix runs not deterministic: slowdowns %v/%v then %v/%v", slowA, slowB, againA, againB)
	}
	if a.Benchmark != "mix:fft+canneal" || a.Suite != SuiteMix || a.Kind != D2MNSR {
		t.Fatalf("labels wrong: %s %s %s", a.Kind, a.Benchmark, a.Suite)
	}
	if suite, ok := SuiteOf("mix:fft+canneal"); !ok || suite != SuiteMix {
		t.Errorf("SuiteOf(mix:fft+canneal) = %q, %v", suite, ok)
	}
}

// Co-scheduled programs live in disjoint address spaces: without the
// bandwidth constraint, the mixed run must not perturb either program's
// per-node time beyond the engine's round-robin jitter (no sharing, no
// capacity pressure at these footprints). A large deviation would mean
// the address offsetting is broken (false sharing between programs).
func TestMixAddressIsolation(t *testing.T) {
	opt := Options{Warmup: 100_000, Measure: 200_000} // infinite bandwidth
	_, slowA, slowB := mixSlowdowns(t, D2MNSR, "fft", "fft", opt)
	for _, slow := range []float64{slowA, slowB} {
		if slow < 0.95 || slow > 1.05 {
			t.Fatalf("slowdown %v under infinite bandwidth; programs are not isolated (A %v, B %v)", slow, slowA, slowB)
		}
	}
}

// The §IV-B isolation claim, measured: under a traffic-heavy neighbour
// on a bandwidth-constrained fabric, the victim slows on Base-2L and
// does not slow more on D2M-NS-R (its traffic cut is its isolation).
func TestMixIsolationShape(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-run interference study")
	}
	opt := Options{Warmup: 200_000, Measure: 600_000}
	rows := MixStudy(opt, [][2]string{{"tpc-c", "streamcluster"}, {"facesim", "lu_ncb"}})
	for _, r := range rows {
		if r.SlowdownA[D2MNSR] > r.SlowdownA[Base2L]+0.02 {
			t.Errorf("%s+%s: D2M-NS-R victim slowdown %.2f > Base-2L %.2f",
				r.BenchA, r.BenchB, r.SlowdownA[D2MNSR], r.SlowdownA[Base2L])
		}
		if r.SlowdownA[D2MNSR] > 1.05 {
			t.Errorf("%s+%s: D2M-NS-R victim slowdown %.2f; traffic cut should isolate",
				r.BenchA, r.BenchB, r.SlowdownA[D2MNSR])
		}
	}
	out := RenderMix(rows)
	if !strings.Contains(out, "tpc-c+streamcluster") || !strings.Contains(out, "D2M-NS-R") {
		t.Error("RenderMix output malformed")
	}
}

// TestMixPlanCells checks the plan's declaration: three cells per pair
// and kind — the mix and both solos at half the windows — with the
// bandwidth default applied and the solos of a shared program deduped.
func TestMixPlanCells(t *testing.T) {
	p := MixPlan(Options{Nodes: 4, Warmup: 2000, Measure: 6000}, [][2]string{{"tpc-c", "fft"}, {"tpc-c", "canneal"}})
	if n, distinct := len(p.Cells), len(DistinctCells(p.Cells)); n != 18 || distinct != 15 {
		t.Errorf("%d cells, %d distinct; want 18, 15", n, distinct)
	}
	for _, c := range p.Cells {
		solo := strings.HasSuffix(c.Benchmark, "+")
		if c.Options.LinkBandwidth != 0.1 || (solo && c.Options.Measure != 3000) || (!solo && c.Options.Measure != 6000) {
			t.Errorf("%s/%s: options %+v", c.Kind, c.Benchmark, c.Options)
		}
	}
	// A one-access window halves to 1, not to 0, which would select the
	// default window.
	for _, c := range MixPlan(Options{Nodes: 2, Warmup: 1, Measure: 1}, [][2]string{{"tpc-c", "fft"}}).Cells {
		if c.Options.Warmup != 1 || c.Options.Measure != 1 {
			t.Errorf("%s/%s: windows %d/%d, want 1/1", c.Kind, c.Benchmark, c.Options.Warmup, c.Options.Measure)
		}
	}
}

// TestMixStream checks the mix source's stream: A's accesses on the
// lower nodes below asidStride, B's on the upper nodes above it; block
// delivery (staged per program stream) equals strict round-robin Next;
// and every mix clones for warm snapshots.
func TestMixStream(t *testing.T) {
	opt := Options{Nodes: 4}.WithDefaults()
	for _, bench := range []string{MixPrefix + "tpc-c+fft", MixPrefix + KernelPrefix + "stencil+fft", MixPrefix + "fft+"} {
		src, err := benchStream(bench, opt)
		if err != nil {
			t.Fatal(err)
		}
		strict, staged := trace.NewInterleaver(src.streams(opt)), trace.NewInterleaver(src.streams(opt))
		if _, ok := strict.Clone(); !ok {
			t.Errorf("%s: stream does not clone", bench)
		}
		got := make([]mem.Access, 5000)
		for done := 0; done < len(got); {
			done += staged.Fill(got[done:min(done+977, len(got))])
		}
		for i, g := range got {
			a := strict.Next()
			if a != g {
				t.Fatalf("%s: access %d: Fill %v, Next %v", bench, i, g, a)
			}
			if upper := a.Node >= 2; a.Node < 0 || a.Node >= 4 || upper != (a.Addr >= asidStride) {
				t.Fatalf("%s: access %d %v outside its program's nodes or address space", bench, i, a)
			}
		}
	}
}

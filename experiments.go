package d2m

import (
	"fmt"
	"strings"

	"d2m/internal/core"
	"d2m/internal/report"
	"d2m/internal/sim"
	"d2m/internal/stats"
	"d2m/internal/trace"
	"d2m/internal/workloads"
)

// This file contains the drivers that regenerate each table and figure of
// the paper's evaluation (§V). Every driver runs the relevant benchmarks
// on the relevant configurations and returns structured rows; Render
// helpers format them the way the paper presents them. DESIGN.md maps
// each experiment id to these functions, and EXPERIMENTS.md records the
// measured outcomes against the published ones.

// perBench declares Kinds() on each benchmark and projects one row per
// benchmark from its results, in Kinds() order (Base-2L first).
func perBench[R any](opt Options, benches []string, row func(i int, rs []Result) R) Plan[[]R] {
	return Plan[[]R]{grid(Kinds(), benches, opt), func(get lookup) []R {
		rows := make([]R, len(benches))
		for i, b := range benches {
			rs := make([]Result, len(Kinds()))
			for ki, k := range Kinds() {
				rs[ki] = get(k, b, opt)
			}
			rows[i] = row(i, rs)
		}
		return rows
	}}
}

// variants returns one copy of opt per value, changed by set.
func variants[V any](opt Options, values []V, set func(*Options, V)) []Options {
	out := make([]Options, len(values))
	for i, v := range values {
		out[i] = opt
		set(&out[i], v)
	}
	return out
}

func allBenchNames() []string {
	var out []string
	for _, s := range Suites() {
		out = append(out, BenchmarksOf(s)...)
	}
	return out
}

// ---------------------------------------------------------------------------
// Figure 5: network traffic in messages per kilo-instruction.

// Figure5Row is one benchmark's bar group in Figure 5.
type Figure5Row struct {
	Benchmark string
	Suite     string
	// MsgsPerKI and D2MOnlyPerKI are indexed by Kinds() order; the
	// D2M-only portion is the lighter bar of the paper's figure.
	MsgsPerKI    [5]float64
	D2MOnlyPerKI [5]float64
}

// Figure5 regenerates the network-traffic figure across all benchmarks.
func Figure5(opt Options) []Figure5Row { return mustRun(Figure5Plan(opt)) }

// Figure5Plan declares Figure5's cells and projection.
func Figure5Plan(opt Options) Plan[[]Figure5Row] {
	return perBench(opt, allBenchNames(), func(_ int, rs []Result) Figure5Row {
		row := Figure5Row{Benchmark: rs[0].Benchmark, Suite: rs[0].Suite}
		for ki, r := range rs {
			row.MsgsPerKI[ki], row.D2MOnlyPerKI[ki] = r.MsgsPerKI, r.D2MMsgsPerKI
		}
		return row
	})
}

// Figure5Reduction returns D2M-NS-R's average traffic reduction versus
// Base-2L (the paper's headline "reduces network traffic by an average
// of 70%").
func Figure5Reduction(rows []Figure5Row) float64 {
	var ratios []float64
	for _, r := range rows {
		if r.MsgsPerKI[0] > 0 {
			ratios = append(ratios, r.MsgsPerKI[4]/r.MsgsPerKI[0])
		}
	}
	return 1 - stats.Geomean(ratios)
}

// RenderFigure5 formats the rows as the paper's bar chart.
func RenderFigure5(rows []Figure5Row) string {
	var b strings.Builder
	suite := ""
	for _, r := range rows {
		if r.Suite != suite {
			suite = r.Suite
			fmt.Fprintf(&b, "\n-- %s --\n", suite)
		}
		c := report.NewBars(r.Benchmark, "msgs/1000 instr; '#' total, D2M-only share noted")
		for ki, k := range Kinds() {
			c.Add(k.String(), r.MsgsPerKI[ki])
		}
		b.WriteString(c.Render())
	}
	fmt.Fprintf(&b, "\nD2M-NS-R average traffic reduction vs Base-2L: %.0f%%\n", Figure5Reduction(rows)*100)
	return b.String()
}

// ---------------------------------------------------------------------------
// Figure 6: cache-hierarchy EDP normalized to Base-2L.

// Figure6Row is one benchmark's EDP, normalized to Base-2L.
type Figure6Row struct {
	Benchmark string
	Suite     string
	// EDP is normalized to the benchmark's Base-2L run, Kinds() order.
	EDP [5]float64
}

// Figure6 regenerates the EDP figure.
func Figure6(opt Options) []Figure6Row { return mustRun(Figure6Plan(opt)) }

// Figure6Plan declares Figure6's cells and projection.
func Figure6Plan(opt Options) Plan[[]Figure6Row] {
	return perBench(opt, allBenchNames(), func(_ int, rs []Result) Figure6Row {
		row := Figure6Row{Benchmark: rs[0].Benchmark, Suite: rs[0].Suite}
		for ki, r := range rs {
			row.EDP[ki] = r.EDP / rs[0].EDP
		}
		return row
	})
}

// Figure6Reduction returns the mean EDP reduction of `kind` versus the
// reference kind (the paper: 54% vs Base-2L, 40% vs Base-3L for
// D2M-NS-R).
func Figure6Reduction(rows []Figure6Row, kind, versus Kind) float64 {
	var ratios []float64
	for _, r := range rows {
		if r.EDP[versus] > 0 {
			ratios = append(ratios, r.EDP[kind]/r.EDP[versus])
		}
	}
	return 1 - stats.Geomean(ratios)
}

// RenderFigure6 formats the rows.
func RenderFigure6(rows []Figure6Row) string {
	t := report.NewTable("Figure 6: cache-hierarchy EDP normalized to Base-2L",
		"benchmark", "Base-2L", "Base-3L", "D2M-FS", "D2M-NS", "D2M-NS-R")
	for _, r := range rows {
		t.AddRowf(r.Benchmark, r.EDP[0], r.EDP[1], r.EDP[2], r.EDP[3], r.EDP[4])
	}
	return t.Render() + fmt.Sprintf("\nD2M-NS-R EDP reduction: %.0f%% vs Base-2L, %.0f%% vs Base-3L\n",
		Figure6Reduction(rows, D2MNSR, Base2L)*100, Figure6Reduction(rows, D2MNSR, Base3L)*100)
}

// ---------------------------------------------------------------------------
// Figure 7: speedup over Base-2L.

// Figure7Row is one benchmark's speedups in percent over Base-2L.
type Figure7Row struct {
	Benchmark string
	Suite     string
	// SpeedupPct is indexed by Kinds(); Base-2L is always zero.
	SpeedupPct [5]float64
}

// Figure7 regenerates the speedup figure (infinite-bandwidth timing
// model, as in the paper).
func Figure7(opt Options) []Figure7Row { return mustRun(Figure7Plan(opt)) }

// Figure7Plan declares Figure7's cells and projection.
func Figure7Plan(opt Options) Plan[[]Figure7Row] {
	return perBench(opt, allBenchNames(), func(_ int, rs []Result) Figure7Row {
		row := Figure7Row{Benchmark: rs[0].Benchmark, Suite: rs[0].Suite}
		for ki, r := range rs {
			row.SpeedupPct[ki] = (float64(rs[0].Cycles)/float64(r.Cycles) - 1) * 100
		}
		return row
	})
}

// Figure7Average returns the mean speedup (percent) of a kind.
func Figure7Average(rows []Figure7Row, kind Kind) float64 {
	var v []float64
	for _, r := range rows {
		v = append(v, 1+r.SpeedupPct[kind]/100)
	}
	return (stats.Geomean(v) - 1) * 100
}

// RenderFigure7 formats the rows.
func RenderFigure7(rows []Figure7Row) string {
	t := report.NewTable("Figure 7: speedup over Base-2L (percent)",
		"benchmark", "Base-3L", "D2M-FS", "D2M-NS", "D2M-NS-R")
	for _, r := range rows {
		t.AddRowf(r.Benchmark, r.SpeedupPct[1], r.SpeedupPct[2], r.SpeedupPct[3], r.SpeedupPct[4])
	}
	return t.Render() + fmt.Sprintf("\naverages: Base-3L %+.1f%%  D2M-FS %+.1f%%  D2M-NS %+.1f%%  D2M-NS-R %+.1f%%\n",
		Figure7Average(rows, Base3L), Figure7Average(rows, D2MFS),
		Figure7Average(rows, D2MNS), Figure7Average(rows, D2MNSR))
}

// ---------------------------------------------------------------------------
// Table IV: L1 miss and late-hit ratios, near-side/L2 hit ratios.

// TableIVRow aggregates one suite.
type TableIVRow struct {
	Suite string
	// Base-2L L1 behaviour (percent).
	MissI, MissD, LateI, LateD float64
	// Base-3L private-L2 hit ratio (percent, the "B-3L" column).
	L2Hit float64
	// Near-side hit ratios (percent) for D2M-NS and D2M-NS-R.
	NSHitI, NSHitD, NSRHitI, NSRHitD float64
}

// TableIV regenerates the hit-ratio table, aggregated per suite as the
// paper presents it.
func TableIV(opt Options) []TableIVRow { return mustRun(TableIVPlan(opt)) }

// TableIVPlan declares TableIV's cells and projection.
func TableIVPlan(opt Options) Plan[[]TableIVRow] {
	kinds := []Kind{Base2L, Base3L, D2MNS, D2MNSR}
	return Plan[[]TableIVRow]{grid(kinds, allBenchNames(), opt), func(get lookup) []TableIVRow {
		var rows []TableIVRow
		for _, suite := range Suites() {
			benches := BenchmarksOf(suite)
			row := TableIVRow{Suite: suite}
			n := float64(len(benches))
			for _, b := range benches {
				b2, b3, ns, nsr := get(Base2L, b, opt), get(Base3L, b, opt), get(D2MNS, b, opt), get(D2MNSR, b, opt)
				row.MissI += b2.MissRatioI * 100 / n
				row.MissD += b2.MissRatioD * 100 / n
				row.LateI += b2.LateHitI * 100 / n
				row.LateD += b2.LateHitD * 100 / n
				row.L2Hit += b3.NearHitI * 100 / n
				row.NSHitI += ns.NearHitI * 100 / n
				row.NSHitD += ns.NearHitD * 100 / n
				row.NSRHitI += nsr.NearHitI * 100 / n
				row.NSRHitD += nsr.NearHitD * 100 / n
			}
			rows = append(rows, row)
		}
		return rows
	}}
}

// RenderTableIV formats the rows.
func RenderTableIV(rows []TableIVRow) string {
	t := report.NewTable("Table IV: L1 behaviour (Base-2L) and near-side hit ratios (percent)",
		"suite", "missI", "missD", "lateI", "lateD", "B3L-L2", "NS-I", "NS-D", "NSR-I", "NSR-D")
	for _, r := range rows {
		t.AddRowf(r.Suite, r.MissI, r.MissD, r.LateI, r.LateD, r.L2Hit,
			r.NSHitI, r.NSHitD, r.NSRHitI, r.NSRHitD)
	}
	return t.Render()
}

// ---------------------------------------------------------------------------
// Table V: invalidations and private-region misses.

// TableVRow aggregates one suite.
type TableVRow struct {
	Suite string
	// InvVsBase2L is D2M-NS-R invalidations received as a percentage of
	// Base-2L's (may exceed 100% due to region-grained false
	// invalidations).
	InvVsBase2L float64
	// PrivateMissPct is the percentage of private-cache misses whose
	// region is classified private (no coherence needed).
	PrivateMissPct float64
	// DirectMissPct is the percentage of misses resolved without an
	// MD3/directory indirection (~90% in the paper's appendix).
	DirectMissPct float64
}

// TableV regenerates the invalidation/private-classification table.
func TableV(opt Options) []TableVRow { return mustRun(TableVPlan(opt)) }

// TableVPlan declares TableV's cells and projection.
func TableVPlan(opt Options) Plan[[]TableVRow] {
	return Plan[[]TableVRow]{grid([]Kind{Base2L, D2MNSR}, allBenchNames(), opt), func(get lookup) []TableVRow {
		var rows []TableVRow
		for _, suite := range Suites() {
			benches := BenchmarksOf(suite)
			row := TableVRow{Suite: suite}
			var base, d2m, priv, direct float64
			for _, b := range benches {
				nsr := get(D2MNSR, b, opt)
				base += float64(get(Base2L, b, opt).InvRecv)
				d2m += float64(nsr.InvRecv)
				priv += nsr.PrivateMissFrac
				direct += nsr.DirectMissFrac
			}
			if base > 0 {
				row.InvVsBase2L = d2m / base * 100
			}
			row.PrivateMissPct = priv / float64(len(benches)) * 100
			row.DirectMissPct = direct / float64(len(benches)) * 100
			rows = append(rows, row)
		}
		return rows
	}}
}

// RenderTableV formats the rows.
func RenderTableV(rows []TableVRow) string {
	t := report.NewTable("Table V: invalidations vs Base-2L and private-region misses (percent)",
		"suite", "inv-vs-base", "private-miss", "direct-miss")
	for _, r := range rows {
		t.AddRowf(r.Suite, r.InvVsBase2L, r.PrivateMissPct, r.DirectMissPct)
	}
	return t.Render()
}

// ---------------------------------------------------------------------------
// Appendix: protocol event frequencies (PKMO).

// PKMOReport aggregates the appendix's events-per-kilo-memory-operation
// across all suites on D2M-FS (the paper's reference configuration for
// these numbers).
type PKMOReport struct {
	Events PKMO
	// DirectPct is the fraction of misses served without MD3 (the
	// paper: cases A and B are 90% of all misses).
	DirectPct float64
}

// AppendixPKMO regenerates the appendix's event-frequency numbers.
func AppendixPKMO(opt Options) PKMOReport { return mustRun(AppendixPKMOPlan(opt)) }

// AppendixPKMOPlan declares AppendixPKMO's cells and projection.
func AppendixPKMOPlan(opt Options) Plan[PKMOReport] {
	benches := allBenchNames()
	return Plan[PKMOReport]{grid([]Kind{D2MFS}, benches, opt), func(get lookup) PKMOReport {
		var rep PKMOReport
		n := float64(len(benches))
		for _, b := range benches {
			r := get(D2MFS, b, opt)
			rep.Events.ALLC += r.Events.ALLC / n
			rep.Events.AMem += r.Events.AMem / n
			rep.Events.ANode += r.Events.ANode / n
			rep.Events.B += r.Events.B / n
			rep.Events.C += r.Events.C / n
			rep.Events.D1 += r.Events.D1 / n
			rep.Events.D2 += r.Events.D2 / n
			rep.Events.D3 += r.Events.D3 / n
			rep.Events.D4 += r.Events.D4 / n
			rep.Events.E += r.Events.E / n
			rep.Events.F += r.Events.F / n
			rep.DirectPct += r.DirectMissFrac * 100 / n
		}
		return rep
	}}
}

// RenderPKMO formats the report next to the paper's numbers.
func RenderPKMO(rep PKMOReport) string {
	t := report.NewTable("Appendix: coherence events per kilo memory operation (D2M-FS)",
		"event", "measured", "paper")
	e := rep.Events
	t.AddRowf("A: read miss, MD hit (LLC)", e.ALLC, 8.9)
	t.AddRowf("A: read miss, MD hit (MEM)", e.AMem, 2.7)
	t.AddRowf("A: read miss, MD hit (node)", e.ANode, 0.8)
	t.AddRowf("B: write miss, private", e.B, 1.7)
	t.AddRowf("C: write miss, shared", e.C, 0.72)
	t.AddRowf("D1: untracked->private", e.D1, 0.32)
	t.AddRowf("D2: private->shared", e.D2, 0.02)
	t.AddRowf("D3: shared->shared", e.D3, 0.14)
	t.AddRowf("D4: uncached->private", e.D4, 0.34)
	t.AddRowf("E: private master eviction", e.E, "-")
	t.AddRowf("F: shared dirty master eviction", e.F, "-")
	return t.Render() + fmt.Sprintf("\nmisses served without MD3 indirection: %.0f%% (paper: ~90%%)\n", rep.DirectPct)
}

// ---------------------------------------------------------------------------
// §V-D footnote 5: metadata scaling study.

// ScalingRow is one MD-scale point of the scaling study.
type ScalingRow struct {
	Scale int
	// SpeedupPct is D2M-NS-R's mean speedup over Base-2L.
	SpeedupPct float64
	// DirectNSPct is the fraction of accesses served by MD1 hits plus
	// near-side LLC hits (the paper's "direct accesses to the NS-LLC",
	// 78% at 1x to 86% at 4x).
	MD1HitPct float64
}

// MDScaling regenerates the metadata scaling study (1x/2x/4x MD sizes).
func MDScaling(opt Options, benches []string) []ScalingRow {
	return mustRun(MDScalingPlan(opt, benches))
}

// MDScalingPlan declares MDScaling's cells and projection.
func MDScalingPlan(opt Options, benches []string) Plan[[]ScalingRow] {
	if benches == nil {
		benches = allBenchNames()
	}
	scales := []int{1, 2, 4}
	opts := variants(opt, scales, func(o *Options, scale int) { o.MDScale = scale })
	cells := append(grid([]Kind{Base2L}, benches, opts[0]), grid([]Kind{D2MNSR}, benches, opts...)...)
	return Plan[[]ScalingRow]{cells, func(get lookup) []ScalingRow {
		var rows []ScalingRow
		for i, o := range opts {
			var speed, md1 []float64
			for _, b := range benches {
				r := get(D2MNSR, b, o)
				speed = append(speed, float64(get(Base2L, b, opts[0]).Cycles)/float64(r.Cycles))
				md1 = append(md1, r.MD1HitFrac)
			}
			rows = append(rows, ScalingRow{
				Scale:      scales[i],
				SpeedupPct: (stats.Geomean(speed) - 1) * 100,
				MD1HitPct:  stats.Mean(md1) * 100,
			})
		}
		return rows
	}}
}

// RenderScaling formats the scaling rows.
func RenderScaling(rows []ScalingRow) string {
	t := report.NewTable("MD scaling (§V-D fn.5): 1x=(128,4k,16k) entries",
		"scale", "speedup-vs-Base2L(%)", "MD1-hit(%)")
	for _, r := range rows {
		t.AddRowf(fmt.Sprintf("%dx", r.Scale), r.SpeedupPct, r.MD1HitPct)
	}
	return t.Render()
}

// ---------------------------------------------------------------------------
// §V-B: SRAM structure pressure.

// PressureReport compares how often the shared metadata/directory and the
// second-level tracking structures are consulted. The paper: "D2M
// accesses to MD3 are 11% as frequent as directory accesses of Base-2L
// and 27% of Base-3L. MD2 is accessed 58% as often as the L2-tags in
// Base 3-L."
type PressureReport struct {
	// MD3VsBase2LDirPct is MD3 lookups as a percentage of Base-2L
	// directory lookups.
	MD3VsBase2LDirPct float64
	// MD3VsBase3LDirPct is the same against Base-3L.
	MD3VsBase3LDirPct float64
	// MD2VsL2TagPct is MD2 accesses as a percentage of Base-3L L2 tag
	// accesses.
	MD2VsL2TagPct float64
}

// SRAMPressure regenerates the §V-B structure-pressure comparison.
func SRAMPressure(opt Options) PressureReport { return mustRun(SRAMPressurePlan(opt)) }

// SRAMPressurePlan declares SRAMPressure's cells and projection.
func SRAMPressurePlan(opt Options) Plan[PressureReport] {
	benches := allBenchNames()
	return Plan[PressureReport]{grid([]Kind{Base2L, Base3L, D2MNSR}, benches, opt), func(get lookup) PressureReport {
		var md3, dir2, dir3, md2, l2tag float64
		for _, b := range benches {
			nsr, b3 := get(D2MNSR, b, opt), get(Base3L, b, opt)
			md3 += float64(nsr.MD3Lookups)
			dir2 += float64(get(Base2L, b, opt).DirLookups)
			dir3 += float64(b3.DirLookups)
			md2 += float64(nsr.MD2Accesses)
			l2tag += float64(b3.L2TagAccesses)
		}
		rep := PressureReport{}
		if dir2 > 0 {
			rep.MD3VsBase2LDirPct = md3 / dir2 * 100
		}
		if dir3 > 0 {
			rep.MD3VsBase3LDirPct = md3 / dir3 * 100
		}
		if l2tag > 0 {
			rep.MD2VsL2TagPct = md2 / l2tag * 100
		}
		return rep
	}}
}

// RenderPressure formats the report next to the paper's numbers.
func RenderPressure(rep PressureReport) string {
	t := report.NewTable("SRAM pressure (§V-B)", "metric", "measured", "paper")
	t.AddRowf("MD3 lookups vs Base-2L directory (%)", rep.MD3VsBase2LDirPct, 11)
	t.AddRowf("MD3 lookups vs Base-3L directory (%)", rep.MD3VsBase3LDirPct, 27)
	t.AddRowf("MD2 accesses vs Base-3L L2 tags (%)", rep.MD2VsL2TagPct, 58)
	return t.Render()
}

// ---------------------------------------------------------------------------
// Extension: node-count scaling. Not a paper figure, but a natural
// question for a directory-replacement design: do D2M's advantages hold
// from one core (the D2D case) up to the full eight-node machine?

// NodeScalingRow is one node-count point.
type NodeScalingRow struct {
	Nodes int
	// SpeedupPct is D2M-NS-R's geomean speedup over Base-2L.
	SpeedupPct float64
	// TrafficRatio is D2M-NS-R traffic relative to Base-2L (lower is
	// better).
	TrafficRatio float64
	// PrivatePct is the fraction of misses to private regions; with one
	// node everything is private (the D2D degenerate case).
	PrivatePct float64
}

// NodeScaling sweeps the machine size.
func NodeScaling(opt Options, benches []string) []NodeScalingRow {
	return mustRun(NodeScalingPlan(opt, benches))
}

// NodeScalingPlan declares NodeScaling's cells and projection.
func NodeScalingPlan(opt Options, benches []string) Plan[[]NodeScalingRow] {
	if benches == nil {
		benches = []string{"blackscholes", "fft", "tpc-c"}
	}
	opts := variants(opt, []int{1, 2, 4, 8}, func(o *Options, nodes int) { o.Nodes = nodes })
	return Plan[[]NodeScalingRow]{grid([]Kind{Base2L, D2MNSR}, benches, opts...), func(get lookup) []NodeScalingRow {
		var rows []NodeScalingRow
		for _, o := range opts {
			var speed, ratio []float64
			var priv float64
			for _, b := range benches {
				base, nsr := get(Base2L, b, o), get(D2MNSR, b, o)
				speed = append(speed, float64(base.Cycles)/float64(nsr.Cycles))
				if base.MsgsPerKI > 0 {
					ratio = append(ratio, nsr.MsgsPerKI/base.MsgsPerKI)
				}
				priv += nsr.PrivateMissFrac / float64(len(benches))
			}
			rows = append(rows, NodeScalingRow{
				Nodes:        o.Nodes,
				SpeedupPct:   (stats.Geomean(speed) - 1) * 100,
				TrafficRatio: stats.Geomean(ratio),
				PrivatePct:   priv * 100,
			})
		}
		return rows
	}}
}

// RenderNodeScaling formats the sweep.
func RenderNodeScaling(rows []NodeScalingRow) string {
	t := report.NewTable("Node scaling (extension): D2M-NS-R vs Base-2L",
		"nodes", "speedup(%)", "traffic-ratio", "private-miss(%)")
	for _, r := range rows {
		t.AddRowf(r.Nodes, r.SpeedupPct, r.TrafficRatio, r.PrivatePct)
	}
	return t.Render()
}

// ---------------------------------------------------------------------------
// Extension: interconnect topology sensitivity. The paper's message
// counting abstracts the fabric; this sweep re-runs the headline
// comparison on a ring and a mesh, where distance depends on placement
// and the near-side design saves link crossings ("fewer network hops").

// TopologyRow is one interconnect's headline comparison.
type TopologyRow struct {
	Topology string
	// MsgRatio and HopRatio are D2M-NS-R traffic relative to Base-2L.
	MsgRatio, HopRatio float64
	// SpeedupPct is D2M-NS-R's geomean speedup over Base-2L.
	SpeedupPct float64
}

// TopologySweep compares the designs across interconnects.
func TopologySweep(opt Options, benches []string) []TopologyRow {
	return mustRun(TopologySweepPlan(opt, benches))
}

// TopologySweepPlan declares TopologySweep's cells and projection.
func TopologySweepPlan(opt Options, benches []string) Plan[[]TopologyRow] {
	if benches == nil {
		benches = []string{"blackscholes", "fft", "tpc-c", "mix1"}
	}
	opts := variants(opt, Topologies(), func(o *Options, topo string) { o.Topology = topo })
	return Plan[[]TopologyRow]{grid([]Kind{Base2L, D2MNSR}, benches, opts...), func(get lookup) []TopologyRow {
		var rows []TopologyRow
		for _, o := range opts {
			var msg, hop, speed []float64
			for _, bench := range benches {
				b, d := get(Base2L, bench, o), get(D2MNSR, bench, o)
				if b.Messages > 0 {
					msg = append(msg, float64(d.Messages)/float64(b.Messages))
				}
				if b.Hops > 0 {
					hop = append(hop, float64(d.Hops)/float64(b.Hops))
				}
				speed = append(speed, float64(b.Cycles)/float64(d.Cycles))
			}
			rows = append(rows, TopologyRow{
				Topology:   o.Topology,
				MsgRatio:   stats.Geomean(msg),
				HopRatio:   stats.Geomean(hop),
				SpeedupPct: (stats.Geomean(speed) - 1) * 100,
			})
		}
		return rows
	}}
}

// RenderTopology formats the sweep.
func RenderTopology(rows []TopologyRow) string {
	t := report.NewTable("Interconnect sweep (extension): D2M-NS-R vs Base-2L",
		"topology", "msg-ratio", "hop-ratio", "speedup(%)")
	for _, r := range rows {
		t.AddRowf(r.Topology, r.MsgRatio, r.HopRatio, r.SpeedupPct)
	}
	return t.Render()
}

// ---------------------------------------------------------------------------
// Tables I-III are specification tables; they are rendered from the
// implementation itself so the output provably matches the code.

// RenderTableI prints the 6-bit Location Information encoding from the
// actual encoder.
func RenderTableI() string {
	t := report.NewTable("Table I: Location Information encoding (6 bits)",
		"code", "meaning")
	t.AddRow("000NNN", "in NodeID NNN (e.g. "+fmt.Sprintf("%06b", core.EncodeLI(core.InNode(5), false))+" = node 5)")
	t.AddRow("001WWW", "in L1, way WWW (e.g. "+fmt.Sprintf("%06b", core.EncodeLI(core.InL1(3), false))+" = way 3)")
	t.AddRow("010WWW", "in L2, way WWW")
	t.AddRow("011SSS", "eight symbols; MEM = "+fmt.Sprintf("%06b", core.EncodeLI(core.Mem(), false)))
	t.AddRow("1WWWWW", "in LLC, way WWWWW (far-side)")
	t.AddRow("1NNNWW", "in NS-LLC slice NNN, way WW (near-side reinterpretation)")
	return t.Render()
}

// RenderTableII prints the presence-bit classification from the actual
// classifier.
func RenderTableII() string {
	t := report.NewTable("Table II: region classification from presence bits",
		"#PB", "class", "meaning")
	t.AddRow("no MD3 entry", core.Uncached.String(), "no data anywhere")
	t.AddRow("0", core.ClassifyPB(0).String(), "data only in LLC; evictable without metadata coherence")
	t.AddRow("1", core.ClassifyPB(1).String(), "one tracking node; no coherence needed")
	t.AddRow(">1", core.ClassifyPB(3).String(), "multicast coherence to PB nodes")
	return t.Render()
}

// RenderTableIII prints the simulated system configuration.
func RenderTableIII(opt Options) string {
	opt = opt.withDefaults()
	nsr, err := geometry(D2MNSR, opt)
	if err != nil {
		panic(err) // a registered kind; this is a bug
	}
	fs, err := geometry(D2MFS, opt)
	if err != nil {
		panic(err)
	}
	cfg, far := nsr.(core.Config), fs.(core.Config)
	t := report.NewTable("Table III: system configuration", "component", "value")
	t.AddRowf("nodes", cfg.Nodes)
	t.AddRow("L1 I/D", fmt.Sprintf("%d KB, %d-way, %d B lines", cfg.L1Sets*cfg.L1Ways*64/1024, cfg.L1Ways, 64))
	t.AddRow("NS-LLC slice", fmt.Sprintf("%d KB, %d-way (x%d slices)", cfg.SliceSets*cfg.SliceWays*64/1024, cfg.SliceWays, cfg.Nodes))
	t.AddRow("far LLC (D2M-FS, baselines)", fmt.Sprintf("%d MB, %d-way", far.LLCSets*far.LLCWays*64/(1<<20), far.LLCWays))
	t.AddRow("region", "1 KB (16 lines)")
	t.AddRow("MD1 / MD2 / MD3", fmt.Sprintf("%d / %d / %d region entries",
		cfg.MD1Sets*cfg.MD1Ways, cfg.MD2Sets*cfg.MD2Ways, cfg.MD3Sets*cfg.MD3Ways))
	t.AddRow("lock bits", fmt.Sprintf("%d", cfg.LockBits))
	t.AddRow("Base-3L private L2", "256 KB, 8-way")
	return t.Render()
}

// ---------------------------------------------------------------------------
// §II-A: D2D coverage — how often the first-level metadata already knows
// the data's location, split by where the access was served. The paper
// reports 99.7% / 87.2% / 75.6% for L1 / L2 / memory hits and 98.8%
// combined, for the single-node D2D design (which a one-node D2M is).

// CoverageReport holds the §II-A coverage fractions (percent).
type CoverageReport struct {
	L1, L2, Mem, Combined float64
}

// D2DCoverage measures MD1 coverage on a single-node machine with a
// private L2 (the D2D configuration of Figure 1).
func D2DCoverage(opt Options, bench string) (CoverageReport, error) {
	opt = opt.withDefaults()
	sp, ok := workloads.ByName(bench)
	if !ok {
		return CoverageReport{}, fmt.Errorf("d2m: unknown benchmark %q", bench)
	}
	cfg := core.DefaultConfig()
	cfg.Nodes = 1
	cfg.L2Sets, cfg.L2Ways = 512, 8 // D2D has a private L2 (Figure 1)
	cfg.Seed = opt.Seed + 1
	s := core.NewSystem(cfg)
	defer s.Release()
	engine := sim.NewEngine(core.Instance(s), 1)
	engine.Run(trace.NewInterleaver(sp.Streams(1)), opt.Warmup, opt.Measure)
	st := s.Stats()
	pct := func(num, den uint64) float64 {
		if den == 0 {
			return 0
		}
		return float64(num) / float64(den) * 100
	}
	return CoverageReport{
		L1:       pct(st.MD1CoverL1, st.L1IHits+st.L1DHits),
		L2:       pct(st.MD1CoverL2, st.L2Hits),
		Mem:      pct(st.MD1CoverMem, st.DRAMReads),
		Combined: pct(st.MD1Hits, st.Accesses),
	}, nil
}

// RenderCoverage formats the report next to the paper's numbers.
func RenderCoverage(rep CoverageReport, bench string) string {
	t := report.NewTable(fmt.Sprintf("§II-A: MD1 coverage by serving level (%s, 1 node = D2D)", bench),
		"served by", "MD1 knew (%)", "paper")
	t.AddRowf("L1", rep.L1, 99.7)
	t.AddRowf("L2", rep.L2, 87.2)
	t.AddRowf("memory", rep.Mem, 75.6)
	t.AddRowf("combined", rep.Combined, 98.8)
	return t.Render()
}

// ---------------------------------------------------------------------------
// §IV-B placement-policy design space (ablation).

// PlacementRow is one policy's averages across the sweep benchmarks.
type PlacementRow struct {
	Policy string
	// LocalHitD is the mean fraction of LLC data hits served by the
	// local slice (the paper reports 58% for the pressure policy
	// without replication).
	LocalHitD float64
	// HopRatio is hop-weighted traffic relative to the pressure policy.
	HopRatio float64
	// CyclesPct is extra runtime relative to the pressure policy
	// (positive = slower).
	CyclesPct float64
}

// PlacementSweep runs D2M-NS under the three §IV-B victim-placement
// policies ("We evaluated several different policies and ultimately
// chose a simple one"): always-local, the paper's pressure-based 80/20,
// and uniform spreading. The expected shape: local placement maximizes
// near-side hits but loses the balancing benefit under pressure;
// spreading throws away locality; the pressure policy sits between the
// endpoints on locality while matching or beating both on cycles.
func PlacementSweep(opt Options, benches []string) []PlacementRow {
	return mustRun(PlacementSweepPlan(opt, benches))
}

// PlacementSweepPlan declares PlacementSweep's cells and projection.
func PlacementSweepPlan(opt Options, benches []string) Plan[[]PlacementRow] {
	if benches == nil {
		benches = []string{"blackscholes", "fft", "tpc-c", "mix1", "facesim", "wikipedia"}
	}
	opts := variants(opt, []string{"local", "pressure", "spread"}, func(o *Options, p string) { o.Placement = p })
	return Plan[[]PlacementRow]{grid([]Kind{D2MNS}, benches, opts...), func(get lookup) []PlacementRow {
		rows := make([]PlacementRow, 0, len(opts))
		for _, o := range opts {
			var local, hop, speed []float64
			for _, b := range benches {
				r, ref := get(D2MNS, b, o), get(D2MNS, b, opts[1]) // opts[1]: the pressure policy
				local = append(local, r.NearHitD)
				if ref.Hops > 0 {
					hop = append(hop, float64(r.Hops)/float64(ref.Hops))
				}
				speed = append(speed, float64(ref.Cycles)/float64(r.Cycles))
			}
			rows = append(rows, PlacementRow{
				Policy:    o.Placement,
				LocalHitD: stats.Mean(local),
				HopRatio:  stats.Geomean(hop),
				CyclesPct: -(stats.Geomean(speed) - 1) * 100,
			})
		}
		return rows
	}}
}

// RenderPlacement formats the placement sweep.
func RenderPlacement(rows []PlacementRow) string {
	t := report.NewTable("§IV-B placement policies on D2M-NS (relative to the paper's pressure policy)",
		"policy", "local D hits %", "hop ratio", "cycles vs pressure %")
	for _, r := range rows {
		t.AddRowf(r.Policy, r.LocalHitD*100, r.HopRatio, r.CyclesPct)
	}
	return t.Render()
}

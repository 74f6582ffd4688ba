// Package d2m is a from-scratch reproduction of "A Split Cache Hierarchy
// for Enabling Data-oriented Optimizations" (Sembrant, Hagersten,
// Black-Schaffer, HPCA 2017): the Direct-to-Master (D2M) design that
// splits the cache hierarchy into a metadata hierarchy (MD1/MD2/MD3
// tracking per-region Location Information) and a tag-less data
// hierarchy, plus the paper's baselines and evaluation.
//
// The package offers six ready-made system kinds — the paper's Base-2L
// and Base-3L baselines, the D2M-FS, D2M-NS and D2M-NS-R variants, and
// the §III-A D2M-Hybrid — and four workload sources: 45 synthetic
// benchmarks calibrated to the paper's five suites, eight deterministic
// algorithmic kernels whose traces come from real index arithmetic
// ("kernel:<name>"), stored traces ("trace:<id>"), and custom generator
// specs (RunSpec.Workload). Run is the one entry point for all of them:
//
//	out, err := d2m.Run(ctx, d2m.RunSpec{Kind: d2m.D2MNSR, Benchmark: "tpc-c"})
//	out, err := d2m.Run(ctx, d2m.RunSpec{Kind: d2m.D2MNSR, Benchmark: "kernel:lu-inplace"})
//	out, err := d2m.Run(ctx, d2m.RunSpec{Kind: d2m.D2MNSR, Workload: &spec})
//
// regenerate an entire figure or table of the paper:
//
//	rows := d2m.Figure5(d2m.Options{})
//
// or go beyond it: co-schedule two programs and measure interference
// (the benchmark name "mix:<a>+<b>", MixPlan), sweep placement policies (PlacementSweep), compute exact
// SRAM budgets (Storage), characterize a workload without any cache
// model (AnalyzeBenchmark), or record binary traces (RecordTrace) and
// replay them (ImportTrace, then Run on "trace:<id>").
//
// The internal packages contain the machinery: internal/core is the
// split-hierarchy protocol itself, internal/baseline the MESI directory
// baselines, internal/workloads and internal/kernels the workload
// generators, internal/sim the timing engine, and internal/energy,
// internal/noc, internal/cache, internal/mem the substrates.
package d2m

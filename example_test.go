package d2m_test

import (
	"context"
	"fmt"

	"d2m"
)

// Running one benchmark on one configuration: the primary entry point.
func ExampleRun() {
	out, err := d2m.Run(context.Background(), d2m.RunSpec{
		Kind:      d2m.D2MNSR,
		Benchmark: "fft",
		Options:   d2m.Options{Warmup: 50_000, Measure: 100_000},
	})
	if err != nil {
		panic(err)
	}
	res := out.Result
	fmt.Println(res.Benchmark, res.Suite, res.Kind.String())
	fmt.Println(res.Accesses)
	// Output:
	// fft HPC D2M-NS-R
	// 100000
}

// Defining and validating a workload programmatically.
func ExampleWorkloadSpec_Validate() {
	w := d2m.WorkloadSpec{Name: "broken"} // no footprints
	fmt.Println(w.Validate() != nil)
	// Output: true
}

// Loading a workload from JSON configuration.
func ExampleParseWorkload() {
	_, err := d2m.ParseWorkload([]byte(`{"name":"x"}`))
	fmt.Println(err != nil) // footprints missing
	// Output: true
}

// The five evaluated configurations, in the paper's order.
func ExampleKinds() {
	for _, k := range d2m.Kinds() {
		fmt.Println(k)
	}
	// Output:
	// Base-2L
	// Base-3L
	// D2M-FS
	// D2M-NS
	// D2M-NS-R
}

// The benchmark catalog is organized by the paper's five suites.
func ExampleBenchmarksOf() {
	fmt.Println(d2m.BenchmarksOf("Database"))
	fmt.Println(len(d2m.BenchmarksOf("Parallel")))
	// Output:
	// [tpc-c]
	// 13
}

// Running an algorithmic kernel: a deterministic trace from real index
// arithmetic rather than a statistical model, named "kernel:<name>".
func ExampleRun_kernel() {
	out, err := d2m.Run(context.Background(), d2m.RunSpec{
		Kind:      d2m.D2MNSR,
		Benchmark: "kernel:stencil",
		Options:   d2m.Options{Warmup: 50_000, Measure: 100_000},
	})
	if err != nil {
		panic(err)
	}
	fmt.Println(out.Result.Benchmark, out.Result.Suite)
	fmt.Println(out.Result.Accesses)
	// Output:
	// stencil Kernel
	// 100000
}

// SRAM budgets are exact arithmetic over the configured geometries — no
// simulation involved.
func ExampleStorage() {
	rep, err := d2m.Storage(d2m.Base2L, d2m.Options{})
	if err != nil {
		panic(err)
	}
	fmt.Printf("%.0f kB data\n", float64(rep.DataBits())/8192)
	// Output: 8704 kB data
}

// Characterizing a workload without simulating any cache hierarchy.
func ExampleAnalyzeBenchmark() {
	an, err := d2m.AnalyzeBenchmark("tpc-c", 8, 100_000)
	if err != nil {
		panic(err)
	}
	fmt.Println(an.Accesses, an.Nodes)
	// Output: 100000 8
}

// Kind names round-trip through text for JSON and CLI flags.
func ExampleKind_MarshalText() {
	text, _ := d2m.D2MNSR.MarshalText()
	var k d2m.Kind
	_ = k.UnmarshalText([]byte("base-3l"))
	fmt.Println(string(text), k)
	// Output: D2M-NS-R Base-3L
}

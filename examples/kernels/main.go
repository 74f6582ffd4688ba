// kernels runs the deterministic algorithmic workloads — real
// computations whose address streams come from their actual index
// arithmetic — across the evaluated configurations, and zooms into the
// in-place LU factorization: the ground-truth version of §IV-D's
// power-of-two-stride conflict pathology that dynamic indexing exists
// to fix. A kernel runs through d2m.Run under the benchmark name
// "kernel:<name>".
//
// Run with:
//
//	go run ./examples/kernels
package main

import (
	"context"
	"fmt"

	"d2m"
)

func main() {
	opt := d2m.Options{Warmup: 100_000, Measure: 300_000}

	fmt.Println("Algorithmic kernels: deterministic traces from real computations")
	fmt.Println()
	for _, k := range d2m.Kernels() {
		fmt.Printf("  %-12s %s\n", k.Name, k.Description)
	}
	fmt.Println()

	rows := d2m.KernelComparison(opt)
	fmt.Print(d2m.RenderKernels(rows))

	// The LU story, spelled out: every column walk of the in-place
	// factorization steps by the leading dimension (32kB), so each walk
	// lands in a single set of any power-of-two-indexed cache. The
	// baseline thrashes; D2M-FS (no scramble) still conflicts; D2M-NS-R
	// scrambles the LLC index per region and the conflicts vanish.
	fmt.Println()
	fmt.Println("lu-inplace, the §IV-D pathology from real index arithmetic:")
	for _, kind := range []d2m.Kind{d2m.Base2L, d2m.D2MFS, d2m.D2MNSR} {
		out, err := d2m.Run(context.Background(), d2m.RunSpec{Kind: kind, Benchmark: "kernel:lu-inplace", Options: opt})
		if err != nil {
			panic(err)
		}
		r := out.Result
		fmt.Printf("  %-9s cycles %8d   L1-D miss %5.1f%%   avg miss latency %5.1f\n",
			kind, r.Cycles, r.MissRatioD*100, r.AvgMissLatency)
	}
	fmt.Println()
	fmt.Println("The same machinery that lets D2M skip tag lookups (it always")
	fmt.Println("knows where a line is) lets it place lines wherever it likes —")
	fmt.Println("so a per-region index scramble costs nothing and erases the")
	fmt.Println("conflict misses the rigid address mapping forced on the baseline.")
}

// isolation demonstrates the multiprogram interference study: a
// latency-sensitive database runs on half the machine while a
// traffic-heavy streaming job runs on the other half, in disjoint
// address spaces, on a bandwidth-constrained fabric. The question is
// how much the neighbour costs the database — the §IV-B argument that
// near-side slices plus the D2M traffic cut turn into performance
// isolation. d2m.MixStudy runs the study's cells through d2m.Run's
// executor: "mix:<a>+<b>" runs <a> on the lower half of the nodes and
// <b> on the upper half, and "mix:<a>+" runs <a> alone on the lower
// half; d2m.MixPlan declares which cells a pair needs and how its
// slowdowns follow from them.
//
// Run with:
//
//	go run ./examples/isolation
package main

import (
	"fmt"

	"d2m"
)

func main() {
	opt := d2m.Options{Warmup: 200_000, Measure: 600_000, LinkBandwidth: 0.1}

	fmt.Println("Victim: tpc-c on nodes 0-3.  Aggressor: streamcluster on nodes 4-7.")
	fmt.Println("Fabric: 0.1 flits/cycle/link (bandwidth-constrained).")
	fmt.Println()
	row := d2m.MixStudy(opt, [][2]string{{"tpc-c", "streamcluster"}})[0]
	fmt.Printf("%-10s %16s %19s\n", "config", "victim slowdown", "aggressor slowdown")
	for _, kind := range []d2m.Kind{d2m.Base2L, d2m.D2MFS, d2m.D2MNSR} {
		fmt.Printf("%-10s %15.2fx %18.2fx\n", kind, row.SlowdownA[kind], row.SlowdownB[kind])
	}

	fmt.Println()
	fmt.Println("The baseline's victim pays for the aggressor's traffic; D2M-NS-R's")
	fmt.Println("70% traffic cut keeps the fabric out of saturation, so the victim")
	fmt.Println("doesn't notice the neighbour. Note D2M-FS: fastest per cycle, but")
	fmt.Println("still moving far-side data — the most bandwidth-fragile design here.")
	fmt.Println("Latency optimizations without traffic reduction buy speed, not isolation.")
}

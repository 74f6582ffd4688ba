// isolation demonstrates the multiprogram interference study: a
// latency-sensitive database runs on half the machine while a
// traffic-heavy streaming job runs on the other half, in disjoint
// address spaces, on a bandwidth-constrained fabric. The question is
// how much the neighbour costs the database — the §IV-B argument that
// near-side slices plus the D2M traffic cut turn into performance
// isolation. d2m.RunMix is a study API over d2m.Run's executor: its
// solo and mixed runs use half-machine, address-remapped streams that
// no single RunSpec describes.
//
// Run with:
//
//	go run ./examples/isolation
package main

import (
	"fmt"
	"log"

	"d2m"
)

func main() {
	opt := d2m.Options{Warmup: 200_000, Measure: 600_000, LinkBandwidth: 0.1}

	fmt.Println("Victim: tpc-c on nodes 0-3.  Aggressor: streamcluster on nodes 4-7.")
	fmt.Println("Fabric: 0.1 flits/cycle/link (bandwidth-constrained).")
	fmt.Println()
	fmt.Printf("%-10s %14s %14s %10s %8s\n", "config", "victim solo", "victim mixed", "slowdown", "bound")

	for _, kind := range []d2m.Kind{d2m.Base2L, d2m.Base3L, d2m.D2MFS, d2m.D2MNS, d2m.D2MNSR} {
		r, err := d2m.RunMix(kind, "tpc-c", "streamcluster", opt)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%-10s %14d %14d %9.2fx %8v\n",
			kind, r.SoloA, r.MixedA, r.SlowdownA, r.MixedBound)
	}

	fmt.Println()
	fmt.Println("The baseline's victim pays for the aggressor's traffic; D2M-NS-R's")
	fmt.Println("70% traffic cut keeps the fabric out of saturation, so the victim")
	fmt.Println("doesn't notice the neighbour. Note D2M-FS: fastest per cycle, but")
	fmt.Println("still moving far-side data — the most bandwidth-fragile design here.")
	fmt.Println("Latency optimizations without traffic reduction buy speed, not isolation.")
}

// custom shows the library as a cache-architecture playground: define a
// workload from scratch (here: a streaming analytics kernel), load the
// same definition from JSON, and explore the optimization space — cache
// bypassing for the streaming phase, prefetching for the sequential
// scans, and a mesh interconnect. A custom spec runs through d2m.Run
// like any named benchmark: RunSpec.Workload carries it.
//
// Run with:
//
//	go run ./examples/custom
package main

import (
	"context"
	"encoding/json"
	"fmt"
	"log"

	"d2m"
)

func main() {
	// A scan-heavy analytics kernel: a hot hash table, big sequential
	// scans with little reuse, and a shared read-mostly dictionary.
	scan := d2m.WorkloadSpec{
		Name: "scan-join", SharedCode: true,
		CodeBytes: 192 << 10, HotCodeBytes: 16 << 10,
		HotJumpFrac: 0.985, RejumpFrac: 0.3, JumpProb: 0.04,
		DataFrac: 0.55, WriteFrac: 0.2, RepeatFrac: 0.35,
		HotDataBytes: 20 << 10, HotDataFrac: 0.9,
		WarmBytes: 64 << 10, WarmFrac: 0.5, PrivateWS: 32 << 20,
		SharedFrac: 0.1, SharedHotBytes: 16 << 10, SharedHotFrac: 0.95,
		SharedWS: 8 << 20, SharedWriteFrac: 0.01,
		StreamFrac: 0.3, StreamBytes: 32 << 20, StrideLines: 1, StreamReuse: 4,
	}

	// The spec round-trips through JSON: what a config file would hold.
	blob, _ := json.MarshalIndent(scan, "", "  ")
	loaded, err := d2m.ParseWorkload(blob)
	if err != nil {
		log.Fatal(err)
	}

	opt := d2m.Options{Warmup: 150_000, Measure: 400_000}
	fmt.Println("scan-join kernel on D2M variants (mesh interconnect)")
	fmt.Printf("%-28s %10s %9s %9s %9s\n", "configuration", "cycles", "msgs/KI", "dram/KI", "bypassed")

	show := func(label string, kind d2m.Kind, o d2m.Options) d2m.Result {
		out, err := d2m.Run(context.Background(), d2m.RunSpec{Kind: kind, Workload: &loaded, Options: o})
		if err != nil {
			log.Fatal(err)
		}
		r := out.Result
		ki := float64(r.Instructions) / 1000
		fmt.Printf("%-28s %10d %9.1f %9.2f %9d\n",
			label, r.Cycles, r.MsgsPerKI, float64(r.DRAMReads+r.DRAMWrites)/ki, r.BypassedReads)
		return r
	}

	mesh := opt
	mesh.Topology = "mesh"
	show("Base-2L", d2m.Base2L, mesh)
	show("D2M-NS-R", d2m.D2MNSR, mesh)
	withBypass := mesh
	withBypass.Bypass = true
	show("D2M-NS-R + bypass", d2m.D2MNSR, withBypass)
	withBoth := withBypass
	withBoth.Prefetch = true
	show("D2M-NS-R + bypass+prefetch", d2m.D2MNSR, withBoth)

	fmt.Println("\nBypassing keeps the scan from flushing the hash table out of")
	fmt.Println("the L1; prefetching hides the scan's sequential miss latency.")
	fmt.Println("Both policies run off the region metadata the split hierarchy")
	fmt.Println("already maintains — the paper's §IV point exactly.")
}

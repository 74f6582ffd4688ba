// Command traceinfo characterizes a workload without simulating any
// cache hierarchy: access mix, footprint, cross-node sharing, spatial
// locality, and an exact LRU reuse-distance profile.
//
// Usage:
//
//	traceinfo -bench tpc-c
//	traceinfo -bench kernel:lu-inplace -n 500000
//	traceinfo -trace run.d2mtrc
package main

import (
	"flag"
	"fmt"
	"os"

	"d2m"
)

func main() {
	var (
		bench  = flag.String("bench", "", "characterize a catalog benchmark or kernel:NAME")
		traceF = flag.String("trace", "", "characterize a recorded binary trace file")
		nodes  = flag.Int("nodes", 8, "number of cores generating the stream")
		n      = flag.Int("n", 400_000, "number of accesses to characterize (-bench)")
	)
	flag.Parse()

	var (
		an    d2m.Analysis
		err   error
		label string
	)
	switch {
	case *traceF != "":
		f, ferr := os.Open(*traceF)
		if ferr != nil {
			fmt.Fprintln(os.Stderr, ferr)
			os.Exit(1)
		}
		defer f.Close()
		an, err = d2m.AnalyzeTrace(f)
		label = *traceF
	case *bench != "":
		an, err = d2m.AnalyzeBenchmark(*bench, *nodes, *n)
		label = *bench
	default:
		fmt.Fprintln(os.Stderr, "traceinfo: one of -bench or -trace is required")
		os.Exit(2)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	fmt.Printf("workload        %s\n%s", label, an.Render())
}

// Command characterize describes workloads. By default it prints the
// measured characteristics of every benchmark in the catalog (or one
// suite) on the Base-2L reference machine: the numbers the workload
// generators are calibrated against (Table IV) plus footprint/sharing
// demographics. Useful when tuning custom WorkloadSpecs against a known
// reference point.
//
// With -bench or -trace it characterizes one workload without
// simulating any cache hierarchy: access mix, footprint, cross-node
// sharing, spatial locality, and an exact LRU reuse-distance profile.
//
// Usage:
//
//	characterize
//	characterize -suite Database -measure 1000000
//	characterize -bench tpc-c
//	characterize -bench kernel:lu-inplace -measure 500000
//	characterize -trace run.d2mtrc
package main

import (
	"context"
	"flag"
	"fmt"
	"os"

	"d2m"
)

func main() {
	var (
		suite   = flag.String("suite", "", "restrict to one suite (Parallel, HPC, Mobile, Server, Database)")
		nodes   = flag.Int("nodes", 8, "number of cores")
		warmup  = flag.Int("warmup", 150_000, "warmup accesses")
		measure = flag.Int("measure", 400_000, "measured accesses (with -bench: accesses characterized)")
		static  = flag.Bool("static", false, "add model-free characteristics (footprint, sharing, reuse) per benchmark")
		bench   = flag.String("bench", "", "characterize one workload: a catalog benchmark or kernel:NAME")
		traceF  = flag.String("trace", "", "characterize a recorded binary trace file")
	)
	flag.Parse()

	if *bench != "" || *traceF != "" {
		var (
			an    d2m.Analysis
			err   error
			label = *traceF
		)
		if label != "" {
			var f *os.File
			if f, err = os.Open(label); err == nil {
				an, err = d2m.AnalyzeTrace(f)
				f.Close()
			}
		} else {
			label = *bench
			an, err = d2m.AnalyzeBenchmark(label, *nodes, *measure)
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		fmt.Printf("workload        %s\n%s", label, an.Render())
		return
	}

	suites := d2m.Suites()
	if *suite != "" {
		suites = []string{*suite}
	}
	opt := d2m.Options{Nodes: *nodes, Warmup: *warmup, Measure: *measure}.WithDefaults()
	var cells []d2m.SweepCell
	for _, s := range suites {
		benches := d2m.BenchmarksOf(s)
		if len(benches) == 0 {
			fmt.Fprintf(os.Stderr, "characterize: unknown suite %q\n", s)
			os.Exit(2)
		}
		for _, b := range benches {
			cells = append(cells, d2m.SweepCell{Kind: d2m.Base2L, Benchmark: b, Options: opt})
		}
	}
	results, err := d2m.RunCells(context.Background(), cells)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}

	hdr := "%-15s %-9s %7s %7s %7s %7s %9s %8s %8s"
	args := []interface{}{"benchmark", "suite", "missI%", "missD%", "lateI%", "lateD%", "msgs/KI", "dram/KI", "inv/KI"}
	if *static {
		hdr += " %9s %7s %7s %8s"
		args = append(args, "lines", "shared%", "wshare%", "reuse512")
	}
	fmt.Printf(hdr+"\n", args...)
	for _, c := range cells {
		b, r := c.Benchmark, results[c.Key()]
		ki := float64(r.Instructions) / 1000
		row := []interface{}{
			b, r.Suite,
			r.MissRatioI * 100, r.MissRatioD * 100,
			r.LateHitI * 100, r.LateHitD * 100,
			r.MsgsPerKI,
			float64(r.DRAMReads+r.DRAMWrites) / ki,
			float64(r.InvRecv) / ki,
		}
		line := "%-15s %-9s %7.2f %7.2f %7.2f %7.2f %9.1f %8.2f %8.2f"
		if *static {
			an, err := d2m.AnalyzeBenchmark(b, *nodes, *measure)
			if err != nil {
				fmt.Fprintln(os.Stderr, err)
				os.Exit(1)
			}
			line += " %9d %7.1f %7.1f %7.1f%%"
			row = append(row, an.Lines, an.SharedLines*100, an.WSharedLines*100, an.ReuseCDF[9]*100)
		}
		fmt.Printf(line+"\n", row...)
	}
}

// Command d2msim runs one benchmark on one simulated system configuration
// and prints the measured metrics.
//
// Usage:
//
//	d2msim -bench tpc-c -kind d2m-ns-r
//	d2msim -list
//	d2msim -bench canneal -kind base-2l -measure 1000000
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"d2m"
)

func main() {
	var (
		bench   = flag.String("bench", "tpc-c", "benchmark name (see -list)")
		kernel  = flag.String("kernel", "", "run an algorithmic kernel instead of a benchmark, same as -bench kernel:NAME (see -list)")
		kindStr = flag.String("kind", "d2m-ns-r", "system kind: "+strings.Join(d2m.KindNames(), ", "))
		nodes   = flag.Int("nodes", 8, "number of cores (1..8)")
		warmup  = flag.Int("warmup", 200_000, "warmup accesses (untimed)")
		measure = flag.Int("measure", 800_000, "measured accesses")
		seed    = flag.Uint64("seed", 0, "workload seed offset")
		mdScale = flag.Int("mdscale", 1, "metadata scale: 1, 2 or 4 (D2M kinds)")
		bypass  = flag.Bool("bypass", false, "enable cache bypassing (D2M kinds)")
		topo    = flag.String("topology", "crossbar", "interconnect: crossbar, ring, mesh, torus")
		place   = flag.String("placement", "pressure", "NS-LLC placement policy: pressure, local, spread (D2M-NS kinds)")
		record  = flag.String("record", "", "record the benchmark's access trace to this file and exit")
		replay  = flag.String("replay", "", "replay a recorded trace file instead of a benchmark")
		specFl  = flag.String("spec", "", "run a custom workload from this JSON spec file")
		list    = flag.Bool("list", false, "list benchmarks and exit")
		asJSON  = flag.Bool("json", false, "print the result as JSON")
	)
	flag.Parse()

	if *list {
		for _, suite := range d2m.Suites() {
			fmt.Printf("%s:\n", suite)
			for _, b := range d2m.BenchmarksOf(suite) {
				fmt.Printf("  %s\n", b)
			}
		}
		fmt.Println("Kernels (-kernel NAME, or -bench kernel:NAME):")
		for _, k := range d2m.Kernels() {
			fmt.Printf("  %-12s %s\n", k.Name, k.Description)
		}
		return
	}

	kind, err := d2m.ParseKind(*kindStr)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	opt := d2m.Options{
		Nodes:     *nodes,
		Warmup:    *warmup,
		Measure:   *measure,
		Seed:      *seed,
		MDScale:   *mdScale,
		Bypass:    *bypass,
		Topology:  *topo,
		Placement: *place,
	}

	name := *bench
	if *kernel != "" {
		name = d2m.KernelPrefix + *kernel
	}

	if *record != "" {
		f, err := os.Create(*record)
		if err != nil {
			fail(err)
		}
		n, err := d2m.RecordTrace(name, *nodes, *warmup+*measure, f)
		if err == nil {
			err = f.Close()
		}
		if err != nil {
			fail(err)
		}
		fmt.Printf("recorded %d accesses of %s to %s\n", n, name, *record)
		return
	}

	spec := d2m.RunSpec{Kind: kind, Benchmark: name, Options: opt}
	cleanup := func() {}
	if *specFl != "" {
		data, err := os.ReadFile(*specFl)
		if err != nil {
			fail(err)
		}
		w, err := d2m.ParseWorkload(data)
		if err != nil {
			fail(err)
		}
		spec.Benchmark, spec.Workload = "", &w
	} else if *replay != "" {
		// The file is imported into a throwaway trace library and
		// replayed as "trace:<id>", chunk-at-a-time at a fixed footprint.
		id, remove, err := importReplay(*replay)
		if err != nil {
			fail(err)
		}
		cleanup = remove
		spec.Benchmark = d2m.TracePrefix + id
	}
	out, err := d2m.Run(context.Background(), spec)
	cleanup()
	if err != nil {
		fail(err)
	}
	res := out.Result
	if *asJSON {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(res); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		return
	}
	printResult(res)
}

// fail reports err and exits.
func fail(err error) {
	fmt.Fprintln(os.Stderr, err)
	os.Exit(1)
}

// importReplay imports a trace file into a temporary trace library and
// returns its id and a cleanup that removes the library.
func importReplay(path string) (string, func(), error) {
	f, err := os.Open(path)
	if err != nil {
		return "", nil, err
	}
	defer f.Close()
	dir, err := os.MkdirTemp("", "d2msim-replay-")
	if err != nil {
		return "", nil, err
	}
	cleanup := func() { os.RemoveAll(dir) }
	if err := d2m.SetTraceDir(dir); err != nil {
		cleanup()
		return "", nil, err
	}
	info, err := d2m.ImportTrace(f, filepath.Base(path))
	if err != nil {
		cleanup()
		return "", nil, err
	}
	return info.ID, cleanup, nil
}

func printResult(r d2m.Result) {
	fmt.Printf("benchmark        %s (%s)\n", r.Benchmark, r.Suite)
	fmt.Printf("configuration    %s\n", r.Kind)
	fmt.Printf("accesses         %d (%d instructions)\n", r.Accesses, r.Instructions)
	fmt.Printf("cycles           %d\n", r.Cycles)
	fmt.Printf("L1 miss ratio    I=%.2f%%  D=%.2f%%\n", r.MissRatioI*100, r.MissRatioD*100)
	fmt.Printf("late hits        I=%.2f%%  D=%.2f%%\n", r.LateHitI*100, r.LateHitD*100)
	fmt.Printf("avg miss latency %.1f cycles (P50 %d, P95 %d, P99 %d)\n",
		r.AvgMissLatency, r.MissLatP50, r.MissLatP95, r.MissLatP99)
	fmt.Printf("traffic          %.1f msgs/KI (%d msgs, %d hops, %d bytes)\n", r.MsgsPerKI, r.Messages, r.Hops, r.Bytes)
	fmt.Printf("energy           %.2f uJ   EDP %.3e pJ*cyc\n", r.EnergyPJ/1e6, r.EDP)
	fmt.Printf("DRAM             %d reads, %d writes\n", r.DRAMReads, r.DRAMWrites)
	if r.Kind.IsD2M() {
		fmt.Printf("near-side hits   I=%.0f%%  D=%.0f%%\n", r.NearHitI*100, r.NearHitD*100)
		fmt.Printf("MD1 coverage     %.1f%%\n", r.MD1HitFrac*100)
		fmt.Printf("private misses   %.0f%%   direct (no MD3) misses %.0f%%\n",
			r.PrivateMissFrac*100, r.DirectMissFrac*100)
		e := r.Events
		fmt.Printf("events (PKMO)    A=%.2f (llc %.2f, mem %.2f, node %.2f)  B=%.2f  C=%.2f\n",
			e.A(), e.ALLC, e.AMem, e.ANode, e.B, e.C)
		fmt.Printf("                 D=%.2f (d1 %.2f, d2 %.2f, d3 %.2f, d4 %.2f)  E=%.2f  F=%.2f\n",
			e.D(), e.D1, e.D2, e.D3, e.D4, e.E, e.F)
	} else if r.NearHitI > 0 {
		fmt.Printf("L2 hit ratio     %.0f%%\n", r.NearHitI*100)
	}
	fmt.Printf("invalidations    %d received\n", r.InvRecv)
	if len(r.EnergyByOp) > 0 {
		fmt.Printf("energy breakdown (dynamic pJ):\n")
		keys := make([]string, 0, len(r.EnergyByOp))
		for k := range r.EnergyByOp {
			keys = append(keys, k)
		}
		sort.Slice(keys, func(i, j int) bool { return r.EnergyByOp[keys[i]] > r.EnergyByOp[keys[j]] })
		for _, k := range keys {
			fmt.Printf("  %-10s %14.0f\n", k, r.EnergyByOp[k])
		}
	}
}

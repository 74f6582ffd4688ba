package d2m

import (
	"context"
	"fmt"

	"d2m/internal/mem"
	"d2m/internal/trace"
	"d2m/internal/workloads"
)

// This file implements a multiprogram interference study, an extension
// the paper's §IV-B motivates: near-side slices give each node its own
// LLC capacity, so a cache-hungry neighbour steals far less from a
// co-scheduled program than it does in a shared monolithic LLC.

// asidStride separates co-scheduled programs' address spaces (every
// workload base is far below 2^36).
const asidStride mem.Addr = 1 << 36

// MixResult reports one co-scheduling experiment: each program's
// machine cycles when run alone on half the machine versus mixed with
// the other program on the whole machine, at identical per-node access
// counts. Slowdown = mixed/solo; isolation is better when it is closer
// to 1.
type MixResult struct {
	Kind           Kind
	BenchA, BenchB string
	SoloA, SoloB   uint64 // cycles, each program alone on half the nodes
	MixedA, MixedB uint64 // cycles of each program's nodes in the mixed run
	SlowdownA      float64
	SlowdownB      float64
	// MixedBound reports whether the mixed run was bandwidth-bound —
	// the interference channel at simulated footprints.
	MixedBound bool
}

// RunMix co-schedules two benchmarks, each on half the machine's nodes
// (program A on the lower half, B on the upper), in disjoint address
// spaces — the multiprogrammed-server scenario. Options.Nodes must be
// even; Measure is the total access count across both programs.
func RunMix(kind Kind, benchA, benchB string, opt Options) (MixResult, error) {
	opt = opt.withDefaults()
	if opt.Nodes < 2 || opt.Nodes > 8 || opt.Nodes%2 != 0 {
		return MixResult{}, fmt.Errorf("d2m: RunMix needs an even node count in 2..8, got %d", opt.Nodes)
	}
	if err := opt.Validate(); err != nil {
		return MixResult{}, err
	}
	spA, ok := workloads.ByName(benchA)
	if !ok {
		return MixResult{}, fmt.Errorf("d2m: unknown benchmark %q (see Benchmarks())", benchA)
	}
	spB, ok := workloads.ByName(benchB)
	if !ok {
		return MixResult{}, fmt.Errorf("d2m: unknown benchmark %q (see Benchmarks())", benchB)
	}
	half := opt.Nodes / 2
	streamOpt := opt
	streamOpt.Nodes = half
	// measure runs one composed stream through the executor.
	measure := func(opt Options, streams func() []trace.Stream) (*Result, error) {
		src := source{stream: func(Options) trace.Stream { return trace.NewInterleaver(streams()) }}
		rs, err := execute(context.Background(), kind, src, []Options{opt}, nil, nil)
		if err != nil {
			return nil, err
		}
		return rs[0], nil
	}

	// Solo baselines: each program alone on ITS half of the SAME
	// machine (the other nodes idle), with the same per-node access
	// budget as in the mixed run — so capacity and link count are
	// identical across the comparison and only the neighbour changes.
	soloOpt := opt
	soloOpt.Warmup = opt.Warmup / 2
	soloOpt.Measure = opt.Measure / 2
	soloA, err := measure(soloOpt, func() []trace.Stream { return specStreams(spA, streamOpt) })
	if err != nil {
		return MixResult{}, err
	}
	soloB, err := measure(soloOpt, func() []trace.Stream { return specStreams(spB, streamOpt) })
	if err != nil {
		return MixResult{}, err
	}

	// Mixed run: program B's streams are remapped to the upper nodes
	// and offset into a disjoint address space.
	mixed, err := measure(opt, func() []trace.Stream {
		streams := make([]trace.Stream, opt.Nodes)
		copy(streams, specStreams(spA, streamOpt))
		for i, s := range specStreams(spB, streamOpt) {
			s := s
			streams[half+i] = trace.StreamFunc(func() mem.Access {
				a := s.Next()
				a.Node += half
				a.Addr += asidStride
				return a
			})
		}
		return streams
	})
	if err != nil {
		return MixResult{}, err
	}

	res := MixResult{
		Kind: kind, BenchA: spA.Name, BenchB: spB.Name,
		SoloA: soloA.Cycles, SoloB: soloB.Cycles,
		MixedBound: mixed.BandwidthBound,
	}
	for n, c := range mixed.NodeCycles {
		if n < half && c > res.MixedA {
			res.MixedA = c
		}
		if n >= half && c > res.MixedB {
			res.MixedB = c
		}
	}
	if res.SoloA > 0 {
		res.SlowdownA = float64(res.MixedA) / float64(res.SoloA)
	}
	if res.SoloB > 0 {
		res.SlowdownB = float64(res.MixedB) / float64(res.SoloB)
	}
	return res, nil
}

// MixRow is one program pairing across configurations.
type MixRow struct {
	BenchA, BenchB string
	// Slowdowns of the cache-sensitive program (A) per configuration.
	SlowdownA map[Kind]float64
	SlowdownB map[Kind]float64
}

// MixStudy runs the interference study: cache-sensitive programs paired
// with a traffic-heavy neighbour, across the baseline and D2M kinds.
// Interference flows through the shared fabric, so the study runs
// bandwidth-constrained (LinkBandwidth defaults to 0.1 flits/cycle/link
// if unset — at simulated footprints the LLC capacity channel is quiet,
// and infinite bandwidth would hide the contention entirely). Expected
// shape: D2M's traffic cut is isolation — the victim's slowdown under
// an aggressor is smaller than on the baseline.
func MixStudy(opt Options, pairs [][2]string) []MixRow {
	if opt.LinkBandwidth <= 0 {
		opt.LinkBandwidth = 0.1
	}
	if pairs == nil {
		pairs = [][2]string{
			{"tpc-c", "streamcluster"},
			{"mix1", "canneal"},
			{"facesim", "lu_ncb"},
		}
	}
	kinds := []Kind{Base2L, D2MFS, D2MNSR}
	rows := make([]MixRow, len(pairs))
	for i, p := range pairs {
		row := MixRow{BenchA: p[0], BenchB: p[1], SlowdownA: map[Kind]float64{}, SlowdownB: map[Kind]float64{}}
		for _, k := range kinds {
			r, err := RunMix(k, p[0], p[1], opt)
			if err != nil {
				panic(err) // pairs come from the catalog; this is a bug
			}
			row.SlowdownA[k] = r.SlowdownA
			row.SlowdownB[k] = r.SlowdownB
		}
		rows[i] = row
	}
	return rows
}

// RenderMix formats the interference study.
func RenderMix(rows []MixRow) string {
	var b []byte
	b = append(b, "Multiprogram interference (§IV-B extension): slowdown vs solo on half the machine\n"...)
	b = append(b, fmt.Sprintf("%-24s %12s %12s %12s\n", "pair (victim+aggressor)", "Base-2L", "D2M-FS", "D2M-NS-R")...)
	for _, r := range rows {
		b = append(b, fmt.Sprintf("%-24s %11.2fx %11.2fx %11.2fx\n",
			r.BenchA+"+"+r.BenchB, r.SlowdownA[Base2L], r.SlowdownA[D2MFS], r.SlowdownA[D2MNSR])...)
	}
	return string(b)
}

package d2m

import (
	"fmt"
	"slices"
)

// This file implements a multiprogram interference study, an extension
// the paper's §IV-B motivates: near-side slices give each node its own
// LLC capacity, so a cache-hungry neighbour steals far less from a
// co-scheduled program than it does in a shared monolithic LLC.

// MixRow is one program pairing across configurations: each program's
// slowdown, its cycles in the mixed run over its solo cycles. Isolation
// is better when a slowdown is closer to 1.
type MixRow struct {
	BenchA, BenchB string
	// Slowdowns of the cache-sensitive program (A) per configuration.
	SlowdownA map[Kind]float64
	SlowdownB map[Kind]float64
}

// mixKinds are the configurations the interference study compares.
var mixKinds = []Kind{Base2L, D2MFS, D2MNSR}

// MixPlan declares the interference study: cache-sensitive programs
// paired with a traffic-heavy neighbour, across the baseline and D2M
// kinds. Per pair and kind it reads three cells:
//   - the mixed run "mix:<a>+<b>", A on the lower half of the nodes and
//     B on the upper half, in disjoint address spaces;
//   - each program's solo run "mix:<x>+", alone on the lower half of
//     the same machine with the upper half idle, at half the warmup and
//     half the measured accesses (mixSolo), so per-node access counts,
//     capacity and link count match the mixed run and only the
//     neighbour changes.
//
// A program's slowdown is the largest clock among its nodes in the
// mixed run (Result.NodeCycles) over its solo cycles (mixSlowdown). Interference flows
// through the shared fabric, so the study runs bandwidth-constrained:
// LinkBandwidth defaults to 0.1 flits/cycle/link if unset, because at
// simulated footprints the LLC capacity channel is quiet and infinite
// bandwidth would hide the contention entirely. Expected shape: D2M's
// traffic cut is isolation — the victim's slowdown under an aggressor
// is smaller than on the baseline.
func MixPlan(opt Options, pairs [][2]string) Plan[[]MixRow] {
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
	opt = opt.WithDefaults()
	solo := mixSolo(opt)
	mixName := func(a, b string) string { return MixPrefix + a + "+" + b }
	var mixed, solos []string
	for _, p := range pairs {
		mixed = append(mixed, mixName(p[0], p[1]))
		solos = append(solos, mixName(p[0], ""), mixName(p[1], ""))
	}
	return Plan[[]MixRow]{append(grid(mixKinds, mixed, opt), grid(mixKinds, solos, solo)...), func(get lookup) []MixRow {
		rows := make([]MixRow, len(pairs))
		for i, p := range pairs {
			row := MixRow{BenchA: p[0], BenchB: p[1], SlowdownA: map[Kind]float64{}, SlowdownB: map[Kind]float64{}}
			for _, k := range mixKinds {
				mixed := get(k, mixName(p[0], p[1]), opt)
				row.SlowdownA[k] = mixSlowdown(mixed, get(k, mixName(p[0], ""), solo), false)
				row.SlowdownB[k] = mixSlowdown(mixed, get(k, mixName(p[1], ""), solo), true)
			}
			rows[i] = row
		}
		return rows
	}}
}

// mixSolo returns a solo run's options for a mixed run at opt (defaults
// applied): half its warmup and half its measured accesses, the
// per-node counts of one program in the mixed run. A window never drops
// below 1, since 0 would select the default window.
func mixSolo(opt Options) Options {
	opt.Warmup, opt.Measure = max(opt.Warmup/2, 1), max(opt.Measure/2, 1)
	return opt
}

// mixSlowdown is one program's slowdown: the largest clock among its
// nodes in the mixed run — the lower half, or the upper half for
// program B — over its solo run's cycles.
func mixSlowdown(mixed, solo Result, upper bool) float64 {
	half := len(mixed.NodeCycles) / 2
	nodes := mixed.NodeCycles[:half]
	if upper {
		nodes = mixed.NodeCycles[half:]
	}
	return float64(slices.Max(nodes)) / float64(solo.Cycles)
}

// MixStudy runs the interference study of MixPlan in process.
func MixStudy(opt Options, pairs [][2]string) []MixRow {
	return mustRun(MixPlan(opt, pairs))
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

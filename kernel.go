package d2m

import (
	"fmt"

	"d2m/internal/kernels"
)

// KernelInfo describes one algorithmic kernel workload.
type KernelInfo struct {
	Name        string
	Description string
}

// Kernels lists the built-in algorithmic kernels, each runnable as the
// benchmark name "kernel:<name>": real computations (blocked matrix
// multiply, in-place LU, Jacobi stencil, hash join, BFS, a key-value
// store, CSR SpMV, bottom-up merge sort) whose access streams come from
// the algorithms' actual index arithmetic. They complement the
// statistically calibrated Benchmarks() catalog with a ground-truth
// axis — the lu-inplace kernel, notably, produces §IV-D's
// power-of-two-stride conflict pathology from first principles.
func Kernels() []KernelInfo {
	var out []KernelInfo
	for _, name := range kernels.Names() {
		k, _ := kernels.ByName(name)
		out = append(out, KernelInfo{Name: k.Name(), Description: k.Description()})
	}
	return out
}

// KernelRow is one kernel's comparison across the evaluated
// configurations: cycles normalized to Base-2L (speedup %), messages
// per kilo-instruction, and DRAM accesses per kilo-instruction.
type KernelRow struct {
	Kernel      string
	Description string
	SpeedupPct  map[Kind]float64 // vs Base-2L
	MsgsPerKI   map[Kind]float64
	DRAMPerKI   map[Kind]float64
}

// KernelComparison runs every algorithmic kernel on every configuration
// — the deterministic-workload counterpart of Figures 5-7. The ordering
// claims of the paper (D2M variants beat the baselines on traffic, and
// dynamic indexing rescues lu) should reproduce on these ground-truth
// streams exactly as on the calibrated synthetic ones.
func KernelComparison(opt Options) []KernelRow { return mustRun(KernelComparisonPlan(opt)) }

// KernelComparisonPlan declares KernelComparison's cells and projection.
func KernelComparisonPlan(opt Options) Plan[[]KernelRow] {
	infos := Kernels()
	benches := make([]string, len(infos))
	for i, info := range infos {
		benches[i] = KernelPrefix + info.Name
	}
	return perBench(opt, benches, func(i int, rs []Result) KernelRow {
		row := KernelRow{
			Kernel:      infos[i].Name,
			Description: infos[i].Description,
			SpeedupPct:  map[Kind]float64{},
			MsgsPerKI:   map[Kind]float64{},
			DRAMPerKI:   map[Kind]float64{},
		}
		for ki, kind := range Kinds() {
			r := rs[ki]
			row.SpeedupPct[kind] = (float64(rs[0].Cycles)/float64(r.Cycles) - 1) * 100
			row.MsgsPerKI[kind] = r.MsgsPerKI
			if instrK := float64(r.Instructions) / 1000; instrK > 0 {
				row.DRAMPerKI[kind] = float64(r.DRAMReads+r.DRAMWrites) / instrK
			}
		}
		return row
	})
}

// RenderKernels formats the kernel comparison.
func RenderKernels(rows []KernelRow) string {
	kinds := Kinds()
	var b []byte
	b = append(b, "Algorithmic kernels (deterministic traces), speedup % over Base-2L / msgs per KI:\n"...)
	b = append(b, fmt.Sprintf("%-12s", "kernel")...)
	for _, k := range kinds {
		b = append(b, fmt.Sprintf(" %16s", k)...)
	}
	b = append(b, '\n')
	for _, r := range rows {
		b = append(b, fmt.Sprintf("%-12s", r.Kernel)...)
		for _, k := range kinds {
			b = append(b, fmt.Sprintf(" %+7.1f%% /%6.1f", r.SpeedupPct[k], r.MsgsPerKI[k])...)
		}
		b = append(b, '\n')
	}
	return string(b)
}

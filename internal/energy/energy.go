// Package energy models the dynamic and static energy of the cache
// hierarchy, in the spirit of the paper's CACTI 6.0 + McPAT @22nm
// methodology (§V-A).
//
// Only relative magnitudes matter for reproducing the paper's EDP shape:
// associative tag searches cost more than direct single-way data accesses,
// interconnect transfers cost more than SRAM accesses, and DRAM dwarfs
// everything. The default model encodes per-operation dynamic energies in
// picojoules and per-structure leakage in picojoules per cycle, with values
// representative of published 22nm numbers.
package energy

import "fmt"

// Op identifies one class of energy-consuming operation in the hierarchy.
type Op uint8

// Energy operations. The split between tag and data operations is what
// lets the model capture D2M's central saving: tag-less caches perform
// only the data-way operation, never the parallel tag search.
const (
	// OpL1Tag is a parallel 8-way L1 tag search.
	OpL1Tag Op = iota
	// OpL1Data is a single-way L1 data array access.
	OpL1Data
	// OpL2Tag is a parallel 8-way L2 tag search.
	OpL2Tag
	// OpL2Data is a single-way L2 data array access.
	OpL2Data
	// OpLLCTag is a parallel LLC tag search (32-way in the baselines).
	OpLLCTag
	// OpLLCData is a single-way LLC data array access.
	OpLLCData
	// OpTLB is a first-level TLB lookup.
	OpTLB
	// OpTLB2 is a second-level TLB lookup.
	OpTLB2
	// OpMD1 is an associative MD1 metadata lookup.
	OpMD1
	// OpMD2 is an associative MD2 metadata lookup.
	OpMD2
	// OpMD3 is an MD3 (shared metadata) lookup.
	OpMD3
	// OpDir is a baseline directory lookup.
	OpDir
	// OpNoCFlit is the transfer of one 8-byte flit across one
	// interconnect hop.
	OpNoCFlit
	// OpDRAM is a DRAM access for one cacheline.
	OpDRAM

	opCount
)

var opNames = [opCount]string{
	"l1-tag", "l1-data", "l2-tag", "l2-data", "llc-tag", "llc-data",
	"tlb", "tlb2", "md1", "md2", "md3", "dir", "noc-flit", "dram",
}

func (o Op) String() string {
	if int(o) < len(opNames) {
		return opNames[o]
	}
	return fmt.Sprintf("op(%d)", uint8(o))
}

// Model holds per-operation dynamic energies (picojoules per operation).
type Model struct {
	Dynamic [opCount]float64
}

// Default22nm returns the default model, loosely calibrated to 22nm CACTI
// numbers for the paper's structure sizes (Table III): 32kB 8-way L1,
// 256kB 8-way L2, 8MB LLC, 128/4k/16k-entry MD1/MD2/MD3.
func Default22nm() *Model {
	m := &Model{}
	m.Dynamic = [opCount]float64{
		OpL1Tag:   12, // 8 tags compared in parallel
		OpL1Data:  10, // one 64B way
		OpL2Tag:   16,
		OpL2Data:  26,
		OpLLCTag:  60, // 32-way search
		OpLLCData: 45,
		OpTLB:     8,
		OpTLB2:    15,
		OpMD1:     10, // 128 entries, on par with the TLB it replaces (§II-A)
		OpMD2:     18,
		OpMD3:     26,
		OpDir:     30,    // 16k-entry full-map directory
		OpNoCFlit: 6,     // one 8B flit, one hop
		OpDRAM:    15000, // one 64B line
	}
	return m
}

// Cost returns the dynamic energy of performing op once, in pJ.
func (m *Model) Cost(op Op) float64 { return m.Dynamic[op] }

// Meter accumulates the energy of one simulated hierarchy.
type Meter struct {
	model        *Model
	counts       [opCount]uint64
	leakPerCycle float64 // pJ per cycle, sum over registered structures
}

// NewMeter returns a meter that charges operations against model.
func NewMeter(model *Model) *Meter {
	return &Meter{model: model}
}

// Do charges n occurrences of op.
func (m *Meter) Do(op Op, n uint64) { m.counts[op] += n }

// Count returns how many times op has been charged.
func (m *Meter) Count(op Op) uint64 { return m.counts[op] }

// AddLeakage registers a structure's static power, in pJ per cycle.
// Hierarchies call this once per structure at construction time.
func (m *Meter) AddLeakage(pJPerCycle float64) { m.leakPerCycle += pJPerCycle }

// DynamicPJ returns the accumulated dynamic energy in pJ.
func (m *Meter) DynamicPJ() float64 {
	total := 0.0
	for op, n := range m.counts {
		total += float64(n) * m.model.Dynamic[op]
	}
	return total
}

// StaticPJ returns the leakage energy over the given number of cycles.
func (m *Meter) StaticPJ(cycles uint64) float64 {
	return m.leakPerCycle * float64(cycles)
}

// TotalPJ returns dynamic plus static energy over the run.
func (m *Meter) TotalPJ(cycles uint64) float64 {
	return m.DynamicPJ() + m.StaticPJ(cycles)
}

// EDP returns the energy-delay product (pJ × cycles) of the run, the
// metric of Figure 6.
func (m *Meter) EDP(cycles uint64) float64 {
	return m.TotalPJ(cycles) * float64(cycles)
}

// ResetCounts zeroes the dynamic operation counts while preserving the
// registered leakage (the structures don't change at a measurement
// boundary).
func (m *Meter) ResetCounts() {
	m.counts = [opCount]uint64{}
}

// BreakdownPJ returns the dynamic energy per operation class, keyed by
// the operation name, omitting zero entries.
func (m *Meter) BreakdownPJ() map[string]float64 {
	out := make(map[string]float64)
	for op, n := range m.counts {
		if n > 0 {
			out[Op(op).String()] = float64(n) * m.model.Dynamic[op]
		}
	}
	return out
}

// Leakage rates (pJ/cycle) for the structures of Table III. Exposed so
// each hierarchy registers exactly the structures it instantiates.
const (
	LeakL1       = 0.6  // one 32kB L1 (I or D)
	LeakL2       = 3.0  // one 256kB L2
	LeakLLCSlice = 11.0 // one 1MB LLC slice (8 slices = 8MB LLC)
	LeakTLB      = 0.2
	LeakDir      = 1.5
	LeakMD1      = 0.15
	LeakMD2      = 0.8
	LeakMD3      = 1.8
)

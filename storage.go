package d2m

import (
	"fmt"
	"math/bits"
	"strings"

	"d2m/internal/baseline"
	"d2m/internal/core"
)

// This file reproduces the paper's §V-B storage argument: the metadata
// hierarchy (MD1/MD2/MD3, replacement pointers, per-slot state) must
// cost no more SRAM than the structures it removes (per-level tag
// arrays, TLBs in the access path, and the full-map directory). The
// accounting is exact bit arithmetic over the configured geometries —
// nothing is simulated — so the numbers are a property of Table III,
// independent of workload.

// Bit-accounting constants (48-bit virtual and physical addresses, the
// evaluated machine's 4kB pages, 64B lines, 1kB regions).
const (
	physBits   = 48
	lineBits   = 512 // 64B line
	liBits     = 6   // Table I
	linesPerRg = 16
	frameBits  = physBits - 12 // physical frame number
	vpnBits    = physBits - 12 // virtual page number
)

// StorageItem is one SRAM structure's bit cost.
type StorageItem struct {
	Structure string // e.g. "L1 tags (I+D, 8 nodes)"
	TotalBits uint64
	Data      bool // true for payload arrays, false for overhead (tags, metadata, directory, TLBs)
}

// StorageReport is one configuration's SRAM budget.
type StorageReport struct {
	Kind  Kind
	Items []StorageItem
}

// DataBits sums the payload arrays (cached bytes).
func (r StorageReport) DataBits() uint64 {
	var n uint64
	for _, it := range r.Items {
		if it.Data {
			n += it.TotalBits
		}
	}
	return n
}

// OverheadBits sums everything that is not cached data: tag arrays,
// TLBs, directory state, metadata stores, per-slot pointers.
func (r StorageReport) OverheadBits() uint64 {
	var n uint64
	for _, it := range r.Items {
		if !it.Data {
			n += it.TotalBits
		}
	}
	return n
}

// TotalBits sums the whole budget.
func (r StorageReport) TotalBits() uint64 { return r.DataBits() + r.OverheadBits() }

// OverheadFrac is overhead as a fraction of data capacity.
func (r StorageReport) OverheadFrac() float64 {
	return float64(r.OverheadBits()) / float64(r.DataBits())
}

func log2(n int) int {
	if n <= 1 {
		return 0
	}
	return bits.Len(uint(n)) - 1
}

// tagBits returns the address-tag width for a physically indexed cache
// of the given sets, with 64B lines.
func tagBits(sets int) int { return physBits - 6 - log2(sets) }

// regionTagBits returns the tag width for a region-granular (1kB)
// metadata store.
func regionTagBits(sets int, virtual bool) int {
	b := physBits - 10 - log2(sets)
	if virtual {
		// Virtual region tags carry an ASID to avoid flushes.
		b += 8
	}
	return b
}

// lruBits is the per-slot recency cost of an LRU stack over `ways`.
func lruBits(ways int) int { return log2(ways) }

// geometry builds a kind's machine through the mechanism registry and
// returns its configuration — a baseline.Config or a core.Config — so
// the geometry reports read the one kind→config map the runs use.
func geometry(kind Kind, opt Options) (any, error) {
	mech, err := mechFor(kind)
	if err != nil {
		return nil, err
	}
	inst := mech.New(mechOptions(opt))
	defer inst.Release()
	switch s := inst.Underlying().(type) {
	case *baseline.System:
		return s.Config(), nil
	case *core.System:
		return s.Config(), nil
	default:
		return nil, fmt.Errorf("d2m: mechanism %s exposes unknown system type %T", mech.Name, s)
	}
}

// Storage computes the SRAM budget of one configuration under the
// given Options (Nodes and MDScale are honoured; the rest is ignored).
func Storage(kind Kind, opt Options) (StorageReport, error) {
	opt = opt.withDefaults()
	if opt.Nodes < 1 || opt.Nodes > 8 {
		return StorageReport{}, fmt.Errorf("d2m: Nodes = %d out of range 1..8", opt.Nodes)
	}
	if opt.MDScale != 1 && opt.MDScale != 2 && opt.MDScale != 4 {
		return StorageReport{}, fmt.Errorf("d2m: MDScale = %d, want 1, 2 or 4", opt.MDScale)
	}
	cfg, err := geometry(kind, opt)
	if err != nil {
		return StorageReport{}, err
	}
	rep := StorageReport{Kind: kind}
	add := func(name string, count int, bitsEach int, data bool) {
		rep.Items = append(rep.Items, StorageItem{
			Structure: name,
			TotalBits: uint64(count) * uint64(bitsEach),
			Data:      data,
		})
	}

	switch c := cfg.(type) {
	case baseline.Config:
		n := c.Nodes
		// Conventional caches: data + tag array (tag, MESI state, LRU).
		l1Slots := c.L1Sets * c.L1Ways
		add("L1 data (I+D)", 2*n*l1Slots, lineBits, true)
		add("L1 tags (I+D)", 2*n*l1Slots, tagBits(c.L1Sets)+2+lruBits(c.L1Ways), false)
		if c.L2Sets > 0 {
			l2Slots := c.L2Sets * c.L2Ways
			add("L2 data", n*l2Slots, lineBits, true)
			add("L2 tags", n*l2Slots, tagBits(c.L2Sets)+2+lruBits(c.L2Ways), false)
		}
		llcSlots := c.LLCSets * c.LLCWays
		add("LLC data", llcSlots, lineBits, true)
		add("LLC tags", llcSlots, tagBits(c.LLCSets)+2+lruBits(c.LLCWays), false)
		// Full-map directory embedded with the LLC tags: presence bits,
		// owner, state per LLC line.
		add("directory (full-map)", llcSlots, n+log2(n)+1+2, false)
		// TLBs sit on the access-critical path: L1 TLB per node per
		// stream, a shared per-node L2 TLB.
		tlbEntry := (vpnBits - log2(c.TLBSets)) + frameBits + 8
		add("L1 TLBs (I+D)", 2*n*c.TLBSets*c.TLBWays, tlbEntry, false)
		tlb2Entry := (vpnBits - log2(c.TLB2Sets)) + frameBits + 8
		add("L2 TLBs", n*c.TLB2Sets*c.TLB2Ways, tlb2Entry, false)

	case core.Config:
		n := c.Nodes
		// Tag-less data arrays: payload plus per-slot back-metadata
		// (replacement pointer, master/dirty/excl state, recency).
		slotMeta := liBits + 3
		l1Slots := c.L1Sets * c.L1Ways
		add("L1 data (I+D)", 2*n*l1Slots, lineBits, true)
		add("L1 slot state (RP+flags)", 2*n*l1Slots, slotMeta+lruBits(c.L1Ways), false)
		if c.L2Sets > 0 {
			l2Slots := c.L2Sets * c.L2Ways
			add("L2 data", n*l2Slots, lineBits, true)
			add("L2 slot state", n*l2Slots, slotMeta+lruBits(c.L2Ways), false)
		}
		if c.NearSide {
			sl := c.SliceSets * c.SliceWays
			add("NS-LLC data", n*sl, lineBits, true)
			add("NS-LLC slot state", n*sl, slotMeta+lruBits(c.SliceWays), false)
		} else {
			llc := c.LLCSets * c.LLCWays
			add("LLC data", llc, lineBits, true)
			add("LLC slot state", llc, slotMeta+lruBits(c.LLCWays), false)
		}
		// The metadata hierarchy. MD1 is virtually tagged (one I, one D
		// per node); MD2 physical per node; MD3 global with PB bits.
		mdPayload := linesPerRg*liBits + 1 + 2 // 16 LIs, P bit, active/stream state
		if c.DynamicIndexing {
			mdPayload += 8 // per-region scramble
		}
		if !c.TraditionalL1 {
			md1 := c.MD1Sets * c.MD1Ways
			add("MD1 (I+D, virtual)", 2*n*md1,
				regionTagBits(c.MD1Sets, true)+mdPayload+lruBits(c.MD1Ways), false)
		}
		md2 := c.MD2Sets * c.MD2Ways
		add("MD2", n*md2, regionTagBits(c.MD2Sets, false)+mdPayload+lruBits(c.MD2Ways), false)
		md3 := c.MD3Sets * c.MD3Ways
		md3Payload := linesPerRg*liBits + n // LIs + presence bits
		if c.DynamicIndexing {
			md3Payload += 8
		}
		add("MD3", md3, regionTagBits(c.MD3Sets, false)+md3Payload+lruBits(c.MD3Ways), false)
		add("MD3 lock bits", c.LockBits, 1, false)
		// The TLB2 consulted on MD1 misses (translation moved off the
		// common path, not removed).
		add("L2 TLBs", n*128*8, (vpnBits-log2(128))+frameBits+8, false)
		if c.TraditionalL1 {
			// §III-A hybrid: conventional front-end retained.
			add("L1 tags (I+D)", 2*n*l1Slots, tagBits(c.L1Sets)+2+lruBits(c.L1Ways), false)
			tlbEntry := (vpnBits - log2(8)) + frameBits + 8
			add("L1 TLBs (I+D)", 2*n*8*8, tlbEntry, false)
		}
	}
	return rep, nil
}

// StorageComparison computes the budget for every registered
// configuration, including the §III-A hybrid and the adaptive kinds.
func StorageComparison(opt Options) []StorageReport {
	kinds := AllKinds()
	out := make([]StorageReport, 0, len(kinds))
	for _, k := range kinds {
		r, err := Storage(k, opt)
		if err != nil {
			panic(err) // kinds are the fixed set; this is a bug
		}
		out = append(out, r)
	}
	return out
}

// RenderStorage formats the budgets side by side, overhead itemized.
func RenderStorage(reports []StorageReport) string {
	var b strings.Builder
	b.WriteString("SRAM budgets (§V-B): payload vs everything the access path needs around it\n")
	fmt.Fprintf(&b, "%-28s %12s %12s %9s\n", "configuration / structure", "data kB", "overhead kB", "ovh/data")
	for _, r := range reports {
		fmt.Fprintf(&b, "%-28s %12.0f %12.0f %8.1f%%\n",
			r.Kind.String(), float64(r.DataBits())/8192, float64(r.OverheadBits())/8192,
			r.OverheadFrac()*100)
		for _, it := range r.Items {
			if it.Data {
				continue
			}
			fmt.Fprintf(&b, "    %-24s %12s %12.0f\n", it.Structure, "", float64(it.TotalBits)/8192)
		}
	}
	return b.String()
}

package d2m

import (
	"fmt"

	"d2m/internal/stats"
)

// This file holds the parameter-grid machinery shared by the sweep
// front ends: cmd/experiments expands grids and runs their cells
// (RunCells, or a server's POST /v1/sweeps), and internal/service
// executes them behind POST /v1/sweeps. One code path decides what a
// grid means, how it expands into cells, which kind is its baseline,
// and how completed cells aggregate into the paper's Figure 4-6 shape
// (per-kind speedup, msgs/KI, EDP).

// DefaultSweepCells is the hard ceiling on the number of cells one
// sweep may expand into, protecting servers from accidental
// combinatorial explosions. SweepSpec.MaxCells can only lower it.
const DefaultSweepCells = 4096

// SweepSpec describes a parameter-grid study: the cross product of the
// axis lists, sharing the scalar fields. An empty axis contributes a
// single default element (seed 0, default topology, ...), so the
// minimal spec is just kinds x benchmarks — exactly the paper's
// Figure 5-7 grid. The JSON field names are the POST /v1/sweeps wire
// format.
type SweepSpec struct {
	// Kinds and Benchmarks are the two mandatory axes.
	Kinds      []string `json:"kinds"`
	Benchmarks []string `json:"benchmarks"`

	// Optional axes. Empty means one cell at the default value.
	Seeds          []uint64  `json:"seeds,omitempty"`
	Topologies     []string  `json:"topologies,omitempty"`
	Placements     []string  `json:"placements,omitempty"`
	MDScales       []int     `json:"md_scales,omitempty"`
	LinkBandwidths []float64 `json:"link_bandwidths,omitempty"`

	// Scalars shared by every cell; zero values take the paper's
	// defaults (Options.WithDefaults).
	Nodes    int  `json:"nodes,omitempty"`
	Warmup   int  `json:"warmup,omitempty"`
	Measure  int  `json:"measure,omitempty"`
	Bypass   bool `json:"bypass,omitempty"`
	Prefetch bool `json:"prefetch,omitempty"`

	// MaxCells rejects the spec when the expansion would exceed it.
	// Zero means DefaultSweepCells; larger values are clamped to it.
	MaxCells int `json:"max_cells,omitempty"`
}

// SweepCell is one expanded grid point: a single runnable simulation.
type SweepCell struct {
	Kind      Kind    `json:"kind"`
	Benchmark string  `json:"benchmark"`
	Options   Options `json:"options"`
}

// cellCap resolves the spec's effective cell ceiling.
func (s SweepSpec) cellCap() int {
	if s.MaxCells > 0 && s.MaxCells < DefaultSweepCells {
		return s.MaxCells
	}
	return DefaultSweepCells
}

// axis lengths, with empty optional axes counting as one default cell.
func axisLen(n int) int {
	if n == 0 {
		return 1
	}
	return n
}

// CellCount returns the number of cells the spec expands into, before
// MaxCells is applied. A count over DefaultSweepCells reads as
// DefaultSweepCells+1: the axis lengths are multiplied only until the
// product passes the ceiling, so no spec can overflow the count.
func (s SweepSpec) CellCount() int {
	n := 1
	for _, l := range []int{len(s.Kinds), len(s.Benchmarks), axisLen(len(s.Seeds)),
		axisLen(len(s.Topologies)), axisLen(len(s.Placements)),
		axisLen(len(s.MDScales)), axisLen(len(s.LinkBandwidths))} {
		if n *= l; n > DefaultSweepCells {
			return DefaultSweepCells + 1
		}
	}
	return n
}

// Expand validates the spec and returns its cells in deterministic
// order: kinds outermost, then benchmarks, seeds, topologies,
// placements, MD scales, link bandwidths. Every cell's Options are in
// canonical (defaulted, validated) form, so two specs that expand to
// the same grid produce identical cells — the service keys its result
// cache on exactly this form.
func (s SweepSpec) Expand() ([]SweepCell, error) {
	if len(s.Kinds) == 0 {
		return nil, fmt.Errorf("d2m: sweep needs at least one kind")
	}
	if len(s.Benchmarks) == 0 {
		return nil, fmt.Errorf("d2m: sweep needs at least one benchmark")
	}
	if n, limit := s.CellCount(), s.cellCap(); n > limit {
		return nil, fmt.Errorf("d2m: sweep expands to %d cells, over the cap of %d", n, limit)
	}
	kinds := make([]Kind, len(s.Kinds))
	for i, name := range s.Kinds {
		k, err := ParseKind(name)
		if err != nil {
			return nil, err
		}
		kinds[i] = k
	}
	for _, b := range s.Benchmarks {
		if _, ok := SuiteOf(b); !ok {
			return nil, fmt.Errorf("d2m: unknown benchmark %q", b)
		}
	}
	seeds := s.Seeds
	if len(seeds) == 0 {
		seeds = []uint64{0}
	}
	topos := s.Topologies
	if len(topos) == 0 {
		topos = []string{""}
	}
	places := s.Placements
	if len(places) == 0 {
		places = []string{""}
	}
	scales := s.MDScales
	if len(scales) == 0 {
		scales = []int{0}
	}
	bands := s.LinkBandwidths
	if len(bands) == 0 {
		bands = []float64{0}
	}

	cells := make([]SweepCell, 0, s.CellCount())
	for _, k := range kinds {
		for _, bench := range s.Benchmarks {
			for _, seed := range seeds {
				for _, topo := range topos {
					for _, place := range places {
						for _, scale := range scales {
							for _, bw := range bands {
								opt := Options{
									Nodes:         s.Nodes,
									Warmup:        s.Warmup,
									Measure:       s.Measure,
									Seed:          seed,
									MDScale:       scale,
									Bypass:        s.Bypass,
									Prefetch:      s.Prefetch,
									Topology:      topo,
									Placement:     place,
									LinkBandwidth: bw,
								}.WithDefaults()
								if err := opt.Validate(); err != nil {
									return nil, err
								}
								cells = append(cells, SweepCell{Kind: k, Benchmark: bench, Options: opt})
							}
						}
					}
				}
			}
		}
	}
	return cells, nil
}

// SweepBaseline picks the kind a sweep's speedups are computed
// against. It must be one of the cells' kinds, so every summary row has
// a comparison population; an empty name picks Base-2L when it is among
// them, else the first cell's kind.
func SweepBaseline(name string, cells []SweepCell) (Kind, error) {
	want := Base2L
	if name != "" {
		k, err := ParseKind(name)
		if err != nil {
			return 0, err
		}
		want = k
	}
	for _, c := range cells {
		if c.Kind == want {
			return want, nil
		}
	}
	if name == "" && len(cells) > 0 {
		return cells[0].Kind, nil
	}
	return 0, fmt.Errorf("d2m: baseline %q is not one of the sweep's kinds", name)
}

// SweepKindSummary is one kind's row in a sweep's aggregate: the
// Figure 4-6 shape of the paper's evaluation.
type SweepKindSummary struct {
	Kind  string `json:"kind"`
	Cells int    `json:"cells"`
	// SpeedupPct is the geometric-mean speedup (percent) over the
	// baseline kind, across the cells whose non-kind coordinates have a
	// completed baseline counterpart (Figure 7's aggregation). The
	// baseline's own row is 0 by construction.
	SpeedupPct float64 `json:"speedup_pct"`
	// MsgsPerKI is the arithmetic mean of messages per
	// kilo-instruction across the kind's completed cells (Figure 5).
	MsgsPerKI float64 `json:"msgs_per_ki"`
	// EDP is the arithmetic mean energy-delay product across the
	// kind's completed cells (Figure 6).
	EDP float64 `json:"edp"`
}

// SummarizeSweep aggregates completed cell results (results[i] may be
// nil for failed or unfinished cells) into per-kind rows, ordered by
// first appearance in cells. Speedups compare each cell against the
// baseline cell sharing its other coordinates: its key with the kind
// replaced by the baseline.
func SummarizeSweep(baseline Kind, cells []SweepCell, results []*Result) []SweepKindSummary {
	baseCycles := make(map[CellKey]float64)
	for i, c := range cells {
		if c.Kind == baseline && i < len(results) && results[i] != nil && results[i].Cycles > 0 {
			baseCycles[c.Key()] = float64(results[i].Cycles)
		}
	}
	type agg struct {
		n       int
		msgs    float64
		edp     float64
		speedup []float64
	}
	byKind := make(map[Kind]*agg)
	var order []Kind
	for i, c := range cells {
		a, ok := byKind[c.Kind]
		if !ok {
			a = &agg{}
			byKind[c.Kind] = a
			order = append(order, c.Kind)
		}
		if i >= len(results) || results[i] == nil {
			continue
		}
		r := results[i]
		a.n++
		a.msgs += r.MsgsPerKI
		a.edp += r.EDP
		k := c.Key()
		k.kind = baseline
		if base, ok := baseCycles[k]; ok && r.Cycles > 0 {
			a.speedup = append(a.speedup, base/float64(r.Cycles))
		}
	}
	out := make([]SweepKindSummary, 0, len(order))
	for _, k := range order {
		a := byKind[k]
		row := SweepKindSummary{Kind: k.String(), Cells: a.n}
		if a.n > 0 {
			row.MsgsPerKI = a.msgs / float64(a.n)
			row.EDP = a.edp / float64(a.n)
		}
		if len(a.speedup) > 0 {
			row.SpeedupPct = (stats.Geomean(a.speedup) - 1) * 100
		}
		out = append(out, row)
	}
	return out
}

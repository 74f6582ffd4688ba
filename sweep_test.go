package d2m

import (
	"strings"
	"testing"
)

// TestSweepExpandGrid checks the cross product, the deterministic
// order, and the canonical (defaulted) cell options.
func TestSweepExpandGrid(t *testing.T) {
	spec := SweepSpec{
		Kinds:      []string{"base-2l", "d2m-ns-r"},
		Benchmarks: []string{"tpc-c", "canneal"},
		Seeds:      []uint64{0, 7},
		Topologies: []string{"crossbar", "ring"},
		Nodes:      4,
	}
	cells, err := spec.Expand()
	if err != nil {
		t.Fatal(err)
	}
	want := 2 * 2 * 2 * 2
	if len(cells) != want {
		t.Fatalf("expanded %d cells, want %d", len(cells), want)
	}
	if got := spec.CellCount(); got != want {
		t.Errorf("CellCount = %d, want %d", got, want)
	}
	// Kinds are the outermost axis; the first half is all Base-2L.
	for i, c := range cells[:want/2] {
		if c.Kind != Base2L {
			t.Fatalf("cell %d kind = %v, want Base2L", i, c.Kind)
		}
	}
	first := cells[0]
	if first.Benchmark != "tpc-c" || first.Options.Seed != 0 || first.Options.Topology != "crossbar" {
		t.Errorf("first cell = %+v, want tpc-c/seed0/crossbar", first)
	}
	// Options are canonical: scalar defaults applied.
	if first.Options.Warmup == 0 || first.Options.Measure == 0 || first.Options.MDScale != 1 {
		t.Errorf("cell options not defaulted: %+v", first.Options)
	}
	if first.Options.Nodes != 4 {
		t.Errorf("Nodes = %d, want 4", first.Options.Nodes)
	}
	// Determinism: a second expansion is identical.
	again, _ := spec.Expand()
	for i := range cells {
		if cells[i] != again[i] {
			t.Fatalf("expansion not deterministic at cell %d", i)
		}
	}
}

// TestSweepExpandValidation checks the rejection paths.
func TestSweepExpandValidation(t *testing.T) {
	axis := func(v string) []string { // 1,024 entries: seven such axes wrap a 64-bit product to 0
		out := make([]string, 1024)
		for i := range out {
			out[i] = v
		}
		return out
	}
	cases := []struct {
		name     string
		spec     SweepSpec
		baseline string // checked by SweepBaseline once the spec expands
		want     string
	}{
		{"no kinds", SweepSpec{Benchmarks: []string{"tpc-c"}}, "", "at least one kind"},
		{"no benchmarks", SweepSpec{Kinds: []string{"base-2l"}}, "", "at least one benchmark"},
		{"bad kind", SweepSpec{Kinds: []string{"d2m-xl"}, Benchmarks: []string{"tpc-c"}}, "", "unknown kind"},
		{"bad benchmark", SweepSpec{Kinds: []string{"base-2l"}, Benchmarks: []string{"nonesuch"}}, "", "unknown benchmark"},
		{"bad topology", SweepSpec{Kinds: []string{"base-2l"}, Benchmarks: []string{"tpc-c"},
			Topologies: []string{"hypercube"}}, "", "unknown topology"},
		{"bad mdscale", SweepSpec{Kinds: []string{"base-2l"}, Benchmarks: []string{"tpc-c"},
			MDScales: []int{3}}, "", "MDScale"},
		{"over explicit cap", SweepSpec{Kinds: []string{"base-2l"}, Benchmarks: []string{"tpc-c"},
			Seeds: []uint64{1, 2, 3}, MaxCells: 2}, "", "over the cap"},
		{"overflowing axes", SweepSpec{Kinds: axis("base-2l"), Benchmarks: axis("fft"),
			Seeds: make([]uint64, 1024), Topologies: axis("ring"), Placements: axis("local"),
			MDScales: make([]int, 1024), LinkBandwidths: make([]float64, 1024)}, "", "over the cap"},
		{"baseline outside kinds", SweepSpec{Kinds: []string{"d2m-ns"}, Benchmarks: []string{"tpc-c"}},
			"base-2l", "not one of the sweep's kinds"},
		{"unknown baseline", SweepSpec{Kinds: []string{"d2m-ns"}, Benchmarks: []string{"tpc-c"}},
			"base-4l", "unknown kind"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cells, err := tc.spec.Expand()
			if err == nil {
				_, err = SweepBaseline(tc.baseline, cells)
			}
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Errorf("Expand() err = %v, want containing %q", err, tc.want)
			}
		})
	}
	// The hard ceiling applies even without an explicit MaxCells.
	big := SweepSpec{
		Kinds:      []string{"base-2l"},
		Benchmarks: []string{"tpc-c"},
		Seeds:      make([]uint64, DefaultSweepCells+1),
	}
	if _, err := big.Expand(); err == nil {
		t.Error("expansion over DefaultSweepCells was accepted")
	}
}

// TestSummarizeSweep hand-checks the per-kind aggregation on a 2x2
// grid with known cycles.
func TestSummarizeSweep(t *testing.T) {
	spec := SweepSpec{
		Kinds:      []string{"base-2l", "d2m-ns-r"},
		Benchmarks: []string{"tpc-c", "canneal"},
	}
	cells, err := spec.Expand()
	if err != nil {
		t.Fatal(err)
	}
	// Base-2L: 1000 cycles each. D2M-NS-R: 500 on tpc-c (2x), 1000 on
	// canneal (1x) -> geomean speedup sqrt(2)-1 = 41.42%.
	results := make([]*Result, len(cells))
	for i, c := range cells {
		r := &Result{Kind: c.Kind, Benchmark: c.Benchmark, Cycles: 1000, MsgsPerKI: 10, EDP: 4}
		if c.Kind == D2MNSR {
			r.MsgsPerKI = 2
			if c.Benchmark == "tpc-c" {
				r.Cycles = 500
			}
		}
		results[i] = r
	}
	rows := SummarizeSweep(Base2L, cells, results)
	if len(rows) != 2 {
		t.Fatalf("rows = %d, want 2", len(rows))
	}
	base, d2mns := rows[0], rows[1]
	if base.Kind != "Base-2L" || d2mns.Kind != "D2M-NS-R" {
		t.Fatalf("row order %q, %q", base.Kind, d2mns.Kind)
	}
	if base.SpeedupPct != 0 {
		t.Errorf("baseline speedup = %v, want 0", base.SpeedupPct)
	}
	if d2mns.SpeedupPct < 41.40 || d2mns.SpeedupPct > 41.45 {
		t.Errorf("D2M-NS-R speedup = %v, want ~41.42", d2mns.SpeedupPct)
	}
	if base.MsgsPerKI != 10 || d2mns.MsgsPerKI != 2 {
		t.Errorf("msgs/KI = %v / %v, want 10 / 2", base.MsgsPerKI, d2mns.MsgsPerKI)
	}
	if base.Cells != 2 || d2mns.Cells != 2 {
		t.Errorf("cells = %d / %d, want 2 / 2", base.Cells, d2mns.Cells)
	}

	// A nil result drops out of the averages and the speedup pairing.
	results[0] = nil // Base-2L tpc-c
	rows = SummarizeSweep(Base2L, cells, results)
	if rows[0].Cells != 1 {
		t.Errorf("after nil, baseline cells = %d, want 1", rows[0].Cells)
	}
	// Only canneal still pairs: speedup 1x -> 0%.
	if rows[1].SpeedupPct != 0 {
		t.Errorf("after nil, D2M-NS-R speedup = %v, want 0", rows[1].SpeedupPct)
	}

	// A "" baseline pairs with a cell spelling out the defaults: both
	// name the crossbar with pressure placement.
	explicit := []SweepCell{
		{Kind: Base2L, Benchmark: "tpc-c"},
		{Kind: D2MNSR, Benchmark: "tpc-c", Options: Options{Topology: "crossbar", Placement: "pressure"}},
	}
	rows = SummarizeSweep(Base2L, explicit, []*Result{{Cycles: 1000}, {Cycles: 500}})
	if rows[1].SpeedupPct != 100 {
		t.Errorf("explicit-default cell speedup = %v, want 100 (paired with the \"\" baseline)", rows[1].SpeedupPct)
	}
}

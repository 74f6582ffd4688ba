package d2m

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"strings"
	"testing"
)

// Golden row digests: beside the per-Result digests of TestGolden, the
// experiment drivers' JSON rows are pinned too, so a change in how a
// driver plans, runs or projects its cells cannot move a table or a
// figure unnoticed. Regenerate with
//
//	go test -run TestGoldenRows -update .

const goldenRowsPath = "testdata/golden/rows.json"

func TestGoldenRows(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every driver over the full catalog")
	}
	opt := goldenBase // a small window: the digests guard plumbing, not calibration
	drivers := []struct {
		name string
		rows func() any
	}{
		{"fig5", func() any { return Figure5(opt) }},
		{"fig6", func() any { return Figure6(opt) }},
		{"fig7", func() any { return Figure7(opt) }},
		{"tab4", func() any { return TableIV(opt) }},
		{"tab5", func() any { return TableV(opt) }},
		{"pkmo", func() any { return AppendixPKMO(opt) }},
		{"scaling", func() any { return MDScaling(opt, nil) }},
		{"pressure", func() any { return SRAMPressure(opt) }},
		{"nodes", func() any { return NodeScaling(opt, nil) }},
		{"topology", func() any { return TopologySweep(opt, nil) }},
		{"placement", func() any { return PlacementSweep(opt, nil) }},
		{"kernels", func() any { return KernelComparison(opt) }},
		{"mix", func() any { return MixStudy(opt, nil) }},
		{"d2d", func() any {
			rep, err := D2DCoverage(opt, "facesim")
			if err != nil {
				t.Fatal(err)
			}
			return rep
		}},
		{"storage", func() any { return StorageComparison(opt) }},
	}
	got := make(map[string]string, len(drivers))
	for _, d := range drivers {
		b, err := json.Marshal(d.rows())
		if err != nil {
			t.Fatalf("%s: %v", d.name, err)
		}
		sum := sha256.Sum256(b)
		got[d.name] = hex.EncodeToString(sum[:])
	}
	data, err := json.MarshalIndent(got, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	data = append(data, '\n')
	if *updateGolden {
		if err := os.WriteFile(goldenRowsPath, data, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(goldenRowsPath)
	if err != nil {
		t.Fatalf("%v (generate it with -update)", err)
	}
	var wantMap map[string]string
	if err := json.Unmarshal(want, &wantMap); err != nil {
		t.Fatal(err)
	}
	for name, d := range got {
		if w := wantMap[name]; w != d {
			t.Errorf("%s: rows digest %s, committed %q", name, d, w)
		}
	}
	if len(wantMap) != len(got) {
		t.Errorf("committed file has %d drivers, the test %d", len(wantMap), len(got))
	}
	if !bytes.Equal(data, want) && !t.Failed() {
		t.Error("rows file is not in canonical form; regenerate it with -update")
	}
}

// TestPlanLookup checks the planner's lookup: a projection that reads
// a cell its plan did not declare fails even when the results hold that
// cell, and so does a declared cell missing from the results.
func TestPlanLookup(t *testing.T) {
	opt := Options{Nodes: 1, Warmup: 500, Measure: 1000}
	p := Plan[uint64]{grid([]Kind{Base2L}, []string{"tpc-c"}, opt), func(get lookup) uint64 {
		return get(Base2L, "tpc-c", opt).Cycles + get(D2MNSR, "tpc-c", opt).Cycles
	}}
	results, err := RunCells(context.Background(), append(grid([]Kind{D2MNSR}, []string{"tpc-c"}, opt), p.Cells...))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := p.Project(results); err == nil || !strings.Contains(err.Error(), "undeclared") {
		t.Errorf("undeclared read: err = %v", err)
	}
	func() {
		defer func() {
			if r := recover(); r == nil || !strings.Contains(fmt.Sprint(r), "undeclared") {
				t.Errorf("driver run with an undeclared read: panic %v", r)
			}
		}()
		mustRun(p)
	}()
	declared := Plan[uint64]{p.Cells, func(get lookup) uint64 { return get(Base2L, "tpc-c", opt).Cycles }}
	if _, err := declared.Project(map[CellKey]Result{}); err == nil || !strings.Contains(err.Error(), "no result") {
		t.Errorf("missing result: err = %v", err)
	}
	if got, err := declared.Project(results); err != nil || got == 0 {
		t.Errorf("declared read: %d, %v", got, err)
	}
}

// TestRunCells checks the in-process executor: duplicate cells (also
// ones equal only after WithDefaults, or only once "" reads as the
// default topology and placement) run once, every result equals
// Run's, and a failure reports the lowest-index failing cell.
func TestRunCells(t *testing.T) {
	opt := Options{Nodes: 2, Warmup: 500, Measure: 1000}
	cells := []SweepCell{
		{Kind: D2MNSR, Benchmark: "fft", Options: opt},
		{Kind: D2MNSR, Benchmark: "fft", Options: opt.WithDefaults()},
		{Kind: D2MNSR, Benchmark: "fft", Options: Options{Nodes: 2, Warmup: 500, Measure: 1000, Topology: "crossbar", Placement: "pressure"}},
		{Kind: Base2L, Benchmark: "fft", Options: opt},
		{Kind: Base2L, Benchmark: "fft", Options: Options{Nodes: 2, Warmup: 500, Measure: 2000}},
		{Kind: Base2L, Benchmark: KernelPrefix + "stencil", Options: opt},
	}
	if n := len(DistinctCells(cells)); n != 4 {
		t.Fatalf("DistinctCells: %d cells, want 4", n)
	}
	results, err := RunCells(context.Background(), cells)
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 4 {
		t.Errorf("RunCells: %d results, want 4", len(results))
	}
	for _, c := range cells {
		want, err := Run(context.Background(), RunSpec{Kind: c.Kind, Benchmark: c.Benchmark, Options: c.Options})
		if err != nil {
			t.Fatal(err)
		}
		if goldenDigest(results[c.Key()]) != goldenDigest(want.Result) {
			t.Errorf("%s/%s %+v: RunCells result differs from Run", c.Kind, c.Benchmark, c.Options)
		}
	}

	bad := append(cells[:1:1],
		SweepCell{Kind: Base2L, Benchmark: "fft", Options: Options{MDScale: 3}},
		SweepCell{Kind: Base2L, Benchmark: "nonesuch", Options: opt})
	if _, err := RunCells(context.Background(), bad); err == nil || !strings.Contains(err.Error(), "MDScale") {
		t.Errorf("RunCells error = %v, want the MDScale failure of cell 1", err)
	}
}

package d2m

// Lane-group exactness: RunGroup's vector path must be byte-identical
// to the scalar Run for every lane, across every kind, topology and
// option shape, for every lane count the scheduler can form — 1 (the
// scalar fallback), 2, a full group, and a group whose windows don't
// divide each other. Mid-group cancellation of one lane must leave the
// surviving lanes byte-identical too. As with snapshots, exactness is
// asserted at the marshalled-Result level.

import (
	"context"
	"errors"
	"testing"
)

// groupOf builds a lane group over one warm identity whose lanes vary
// only in the measurement window and link bandwidth.
func groupOf(kind Kind, bench string, base Options, windows []int, bands []float64) []GroupLane {
	return specGroup(RunSpec{Kind: kind, Benchmark: bench, Options: base}, windows, bands)
}

// specGroup is groupOf over any workload source.
func specGroup(base RunSpec, windows []int, bands []float64) []GroupLane {
	lanes := make([]GroupLane, len(windows))
	for i, m := range windows {
		spec := base
		spec.Options.Measure = m
		if bands != nil {
			spec.Options.LinkBandwidth = bands[i]
		}
		lanes[i] = GroupLane{Spec: spec}
	}
	return lanes
}

func assertLanesMatchScalar(t *testing.T, ctx context.Context, lanes []GroupLane) []LaneOutcome {
	t.Helper()
	outs, err := RunGroup(ctx, lanes)
	if err != nil {
		t.Fatal(err)
	}
	if len(outs) != len(lanes) {
		t.Fatalf("RunGroup returned %d outcomes for %d lanes", len(outs), len(lanes))
	}
	for i, out := range outs {
		if out.Err != nil {
			t.Fatalf("lane %d: %v", i, out.Err)
		}
		scalar, err := Run(ctx, lanes[i].Spec)
		if err != nil {
			t.Fatal(err)
		}
		assertSameResult(t, "lane", scalar.Result, out.Output.Result)
	}
	return outs
}

// TestLaneDifferentialMatrix is the vector/scalar differential over
// kinds x sources x topologies x options for the scheduler's lane-count
// shapes: 1, 2, K equal windows, K windows that don't divide each
// other, and one window projected at a binding and at a non-binding
// link bandwidth (lanes sharing a window share one extraction).
func TestLaneDifferentialMatrix(t *testing.T) {
	ctx := context.Background()
	w := exampleWorkload()
	sources := []RunSpec{
		{Benchmark: "tpc-c"},
		{Benchmark: KernelPrefix + "stencil"},
		{Benchmark: MixPrefix + "tpc-c+fft"},
		{Benchmark: MixPrefix + KernelPrefix + "stencil+fft"},
		{Workload: &w},
	}
	shapes := []struct {
		name    string
		windows []int
		bands   []float64
	}{
		{"one", []int{5000}, nil},
		{"two", []int{4000, 6000}, []float64{0, 0.002}},
		{"equal4", []int{5000, 5000, 5000, 5000}, []float64{0, 0.001, 0.002, 0.004}},
		{"ragged4", []int{3000, 4500, 4500, 7000}, []float64{0.002, 0, 0.003, 0}},
		{"bandwidths", []int{5000, 5000, 5000}, []float64{0, 1e-4, 1e3}},
	}
	for _, kind := range allKinds() {
		kind := kind
		t.Run(kind.String(), func(t *testing.T) {
			t.Parallel()
			for _, src := range sources {
				for _, sh := range shapes {
					base := src
					base.Kind, base.Options = kind, Options{Nodes: 2, Warmup: 2000, Seed: 11}
					outs := assertLanesMatchScalar(t, ctx, specGroup(base, sh.windows, sh.bands))
					if sh.name == "bandwidths" && (!outs[1].Output.Result.BandwidthBound || outs[2].Output.Result.BandwidthBound) {
						t.Errorf("%v: link bandwidths 1e-4 / 1e3 bound %v / %v, want true / false", base.Benchmark,
							outs[1].Output.Result.BandwidthBound, outs[2].Output.Result.BandwidthBound)
					}
				}
			}
		})
	}
	// Topology / placement / optimization coverage on one D2M kind and
	// one baseline kind (topologies apply to both; placement and the
	// bypass/prefetch toggles only shape the D2M kinds).
	t.Run("options", func(t *testing.T) {
		t.Parallel()
		variants := []Options{
			{Nodes: 4, Warmup: 2000, Topology: "ring"},
			{Nodes: 4, Warmup: 2000, Topology: "mesh", Placement: "local"},
			{Nodes: 4, Warmup: 2000, Topology: "torus", Placement: "spread", Seed: 3},
			{Nodes: 2, Warmup: 2000, Bypass: true, Prefetch: true, MDScale: 2},
		}
		for _, base := range variants {
			assertLanesMatchScalar(t, ctx, groupOf(D2MNSR, "radix", base, []int{3000, 5000, 8000}, []float64{0, 0.002, 0}))
		}
		assertLanesMatchScalar(t, ctx, groupOf(Base3L, "radix",
			Options{Nodes: 4, Warmup: 2000, Topology: "torus"}, []int{3000, 5000, 8000}, nil))
	})
}

// TestLaneGroupWarmCache checks RunGroup participates in warm-state
// reuse exactly like Run: a cold group deposits the shared snapshot, a
// second group over the same windows is projected from it, a third
// with a new window restores it, and all match the scalar path.
func TestLaneGroupWarmCache(t *testing.T) {
	ctx := context.Background()
	wc := newMapWarmCache()
	base := Options{Nodes: 2, Warmup: 4000, Seed: 5}
	mkLanes := func(windows ...int) []GroupLane {
		lanes := groupOf(D2MNSR, "tpc-c", base, windows, []float64{0, 0.002})
		for i := range lanes {
			lanes[i].Spec.Warm = wc
		}
		return lanes
	}
	for _, step := range []struct {
		name    string
		windows []int
	}{
		{"cold group", []int{3000, 6000}},
		{"projected group", []int{3000, 6000}},
		{"restored group", []int{3000, 7000}},
	} {
		lanes := mkLanes(step.windows...)
		outs, err := RunGroup(ctx, lanes)
		if err != nil {
			t.Fatal(err)
		}
		for i, out := range outs {
			scalar, err := Run(ctx, RunSpec{Kind: D2MNSR, Benchmark: "tpc-c", Options: lanes[i].Spec.Options})
			if err != nil {
				t.Fatal(err)
			}
			assertSameResult(t, step.name, scalar.Result, out.Output.Result)
		}
	}
	if wc.misses != 1 || wc.hits != 2 {
		t.Fatalf("warm cache saw %d hits / %d misses, want 2 / 1", wc.hits, wc.misses)
	}
}

// TestLaneGroupCancelOneLane cancels one lane before the group runs:
// the cancelled lane reports its context error and every surviving
// lane stays byte-identical to its scalar run — a lane demotion must
// not perturb the shared trajectory.
func TestLaneGroupCancelOneLane(t *testing.T) {
	ctx := context.Background()
	lanes := groupOf(D2MNSR, "tpc-c", Options{Nodes: 2, Warmup: 2000, Seed: 9},
		[]int{3000, 9000, 6000}, []float64{0, 0, 0.002})
	dead, cancel := context.WithCancel(ctx)
	cancel()
	lanes[1].Ctx = dead // the longest lane: the walk must also stop early

	outs, err := RunGroup(ctx, lanes)
	if err != nil {
		t.Fatal(err)
	}
	if !errors.Is(outs[1].Err, context.Canceled) {
		t.Fatalf("cancelled lane err = %v, want context.Canceled", outs[1].Err)
	}
	for _, i := range []int{0, 2} {
		if outs[i].Err != nil {
			t.Fatalf("surviving lane %d: %v", i, outs[i].Err)
		}
		scalar, err := Run(ctx, lanes[i].Spec)
		if err != nil {
			t.Fatal(err)
		}
		assertSameResult(t, "surviving lane", scalar.Result, outs[i].Output.Result)
	}
}

// TestLaneGroupRejectsMixedKeys: lanes with different warm identities
// must be rejected before any work happens.
func TestLaneGroupRejectsMixedKeys(t *testing.T) {
	ctx := context.Background()
	lanes := []GroupLane{
		{Spec: RunSpec{Kind: D2MNSR, Benchmark: "tpc-c", Options: Options{Nodes: 2, Warmup: 2000, Measure: 3000}}},
		{Spec: RunSpec{Kind: D2MNSR, Benchmark: "tpc-c", Options: Options{Nodes: 4, Warmup: 2000, Measure: 3000}}},
	}
	if _, err := RunGroup(ctx, lanes); err == nil {
		t.Fatal("RunGroup accepted lanes with different warm identities")
	}
}

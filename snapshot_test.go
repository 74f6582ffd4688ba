package d2m

// Warm-state snapshot exactness: restoring a snapshot must be
// indistinguishable from simulating the warmup, for every kind and for
// every workload source (calibrated benchmarks and custom specs, whose
// streams are cloned into the snapshot, and algorithmic kernels, whose
// streams are replayed). "Indistinguishable" is tested at the strongest level
// available — the marshalled Result bytes.

import (
	"context"
	"encoding/json"
	"sync"
	"testing"
)

// mapWarmCache is the trivial WarmCache used by tests: an unbounded
// map with hit/miss counters.
type mapWarmCache struct {
	mu     sync.Mutex
	m      map[string]*WarmSnapshot
	hits   int
	misses int
}

func newMapWarmCache() *mapWarmCache {
	return &mapWarmCache{m: map[string]*WarmSnapshot{}}
}

func (c *mapWarmCache) GetWarm(key string) *WarmSnapshot {
	c.mu.Lock()
	defer c.mu.Unlock()
	ws := c.m[key]
	if ws == nil {
		c.misses++
	} else {
		c.hits++
	}
	return ws
}

func (c *mapWarmCache) PutWarm(snap *WarmSnapshot) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.m[snap.Key()] = snap
}

// allKinds is the full registered kind set: every differential and
// exactness matrix in the test suite iterates this, so a kind
// registered without joining these matrices fails the registry-coverage
// test rather than silently skipping verification.
func allKinds() []Kind { return AllKinds() }

// runOne / runOneWarm / replicateN adapt the Run entry point to the
// (kind, bench, opt) shape these tests predate; the deprecated
// RunContext-family wrappers they used were removed in v1.4.
func runOne(ctx context.Context, kind Kind, bench string, opt Options) (Result, error) {
	out, err := Run(ctx, RunSpec{Kind: kind, Benchmark: bench, Options: opt})
	return out.Result, err
}

func runOneWarm(ctx context.Context, kind Kind, bench string, opt Options, wc WarmCache) (Result, error) {
	out, err := Run(ctx, RunSpec{Kind: kind, Benchmark: bench, Options: opt, Warm: wc})
	return out.Result, err
}

func replicateN(ctx context.Context, kind Kind, bench string, opt Options, n int, wc WarmCache) (Replicated, error) {
	out, err := Run(ctx, RunSpec{Kind: kind, Benchmark: bench, Options: opt, Replicates: n, Warm: wc})
	if err != nil {
		return Replicated{}, err
	}
	return *out.Replicated, nil
}

// snapshotSources are the workload sources of the snapshot matrix: a
// calibrated benchmark (streams cloned into the snapshot), two
// algorithmic kernels (streams replayed), two mixes (two catalog
// programs, cloned; a kernel and a catalog program, replayed) and a
// custom spec.
func snapshotSources() []struct {
	name string
	spec RunSpec
} {
	w := exampleWorkload()
	return []struct {
		name string
		spec RunSpec
	}{
		{"tpc-c", RunSpec{Benchmark: "tpc-c", Options: Options{Nodes: 2, Warmup: 3000, Measure: 6000, Seed: 7}}},
		{"matmul", RunSpec{Benchmark: KernelPrefix + "matmul", Options: Options{Nodes: 2, Warmup: 3000, Measure: 6000}}},
		{"stencil", RunSpec{Benchmark: KernelPrefix + "stencil", Options: Options{Nodes: 2, Warmup: 3000, Measure: 6000}}},
		{"mix", RunSpec{Benchmark: MixPrefix + "tpc-c+fft", Options: Options{Nodes: 4, Warmup: 3000, Measure: 6000, Seed: 7}}},
		{"mix-kernel", RunSpec{Benchmark: MixPrefix + KernelPrefix + "stencil+fft", Options: Options{Nodes: 2, Warmup: 3000, Measure: 6000}}},
		{"custom", RunSpec{Workload: &w, Options: Options{Nodes: 2, Warmup: 3000, Measure: 6000, Seed: 7}}},
	}
}

// TestSnapshotExactnessMatrix runs every kind on every workload source
// three ways: fresh (no warm cache), cold-through-cache (miss, deposits
// the snapshot), and restored (hit). All three must produce
// byte-identical Results.
func TestSnapshotExactnessMatrix(t *testing.T) {
	ctx := context.Background()
	for _, kind := range allKinds() {
		for _, src := range snapshotSources() {
			spec := src.spec
			spec.Kind = kind
			t.Run(kind.String()+"/"+src.name, func(t *testing.T) {
				t.Parallel()
				fresh, err := Run(ctx, spec)
				if err != nil {
					t.Fatal(err)
				}
				wc := newMapWarmCache()
				warm := spec
				warm.Warm = wc
				first, err := Run(ctx, warm)
				if err != nil {
					t.Fatal(err)
				}
				second, err := Run(ctx, warm)
				if err != nil {
					t.Fatal(err)
				}
				if wc.hits != 1 || wc.misses != 1 {
					t.Fatalf("warm cache saw %d hits / %d misses, want 1 / 1", wc.hits, wc.misses)
				}
				assertSameResult(t, "cold-through-cache", fresh.Result, first.Result)
				assertSameResult(t, "snapshot-restored", fresh.Result, second.Result)
			})
		}
	}
}

// TestSnapshotCustomSpecsIsolated shares one warm cache between two
// different custom specs with the same name and options: each must
// warm its own snapshot and still equal its own cold run, so the warm
// identity of a custom spec covers the spec itself.
func TestSnapshotCustomSpecsIsolated(t *testing.T) {
	ctx := context.Background()
	a, b := exampleWorkload(), exampleWorkload()
	b.WriteFrac = 0.05
	opt := Options{Nodes: 2, Warmup: 3000, Measure: 6000}
	wc := newMapWarmCache()
	for round := 0; round < 2; round++ {
		for _, w := range []*WorkloadSpec{&a, &b} {
			cold, err := Run(ctx, RunSpec{Kind: D2MNSR, Workload: w, Options: opt})
			if err != nil {
				t.Fatal(err)
			}
			warm, err := Run(ctx, RunSpec{Kind: D2MNSR, Workload: w, Options: opt, Warm: wc})
			if err != nil {
				t.Fatal(err)
			}
			assertSameResult(t, "custom spec through a shared cache", cold.Result, warm.Result)
		}
	}
	if wc.misses != 2 || wc.hits != 2 {
		t.Errorf("cache saw %d hits / %d misses, want 2 / 2 (one snapshot per spec)", wc.hits, wc.misses)
	}
	ka := RunSpec{Kind: D2MNSR, Workload: &a, Options: opt}.Key().Warm()
	kb := RunSpec{Kind: D2MNSR, Workload: &b, Options: opt}.Key().Warm()
	if ka == kb {
		t.Error("two different custom specs share a warm identity")
	}
}

func assertSameResult(t *testing.T, label string, want, got Result) {
	t.Helper()
	wj, _ := json.Marshal(want)
	gj, _ := json.Marshal(got)
	if string(wj) != string(gj) {
		t.Errorf("%s result differs from fresh run:\n fresh    %s\n restored %s", label, wj, gj)
	}
}

// TestSnapshotSharedAcrossMeasureParams checks the warm key excludes
// measurement-side parameters: runs differing only in Measure and
// LinkBandwidth share one snapshot, and each restored run still
// byte-matches its own fresh equivalent.
func TestSnapshotSharedAcrossMeasureParams(t *testing.T) {
	ctx := context.Background()
	wc := newMapWarmCache()
	base := Options{Nodes: 2, Warmup: 4000, Measure: 4000}

	variants := []Options{
		base,
		{Nodes: 2, Warmup: 4000, Measure: 8000},
		{Nodes: 2, Warmup: 4000, Measure: 4000, LinkBandwidth: 0.05},
	}
	for i, opt := range variants {
		fresh, err := runOne(ctx, D2MNSR, "tpc-c", opt)
		if err != nil {
			t.Fatal(err)
		}
		warm, err := runOneWarm(ctx, D2MNSR, "tpc-c", opt, wc)
		if err != nil {
			t.Fatal(err)
		}
		assertSameResult(t, "variant", fresh, warm)
		if i == 0 && wc.misses != 1 {
			t.Fatalf("first run: %d misses, want 1", wc.misses)
		}
	}
	if wc.hits != len(variants)-1 || wc.misses != 1 {
		t.Errorf("cache saw %d hits / %d misses, want %d / 1 (variants must share one warmup)",
			wc.hits, wc.misses, len(variants)-1)
	}
}

// TestReplicateWarmDeterministic checks a warm-cached replicated run
// equals the plain one byte-for-byte — on a cold cache (populating)
// and again on the warm cache (every seed restored).
func TestReplicateWarmDeterministic(t *testing.T) {
	ctx := context.Background()
	opt := Options{Nodes: 2, Warmup: 2000, Measure: 4000}
	const n = 4

	plain, err := replicateN(ctx, D2MNSR, "tpc-c", opt, n, nil)
	if err != nil {
		t.Fatal(err)
	}
	wc := newMapWarmCache()
	for round := 0; round < 2; round++ {
		warm, err := replicateN(ctx, D2MNSR, "tpc-c", opt, n, wc)
		if err != nil {
			t.Fatal(err)
		}
		pj, _ := json.Marshal(plain)
		wj, _ := json.Marshal(warm)
		if string(pj) != string(wj) {
			t.Errorf("round %d: warm replicate differs:\n plain %s\n warm  %s", round, pj, wj)
		}
	}
	if wc.misses != n || wc.hits != n {
		t.Errorf("cache saw %d hits / %d misses, want %d / %d (each seed warms once)",
			wc.hits, wc.misses, n, n)
	}
}

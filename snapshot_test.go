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
	"errors"
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

// replicateN runs ReplicatePlan in process: its seed cells through
// RunCells, then the projection.
func replicateN(ctx context.Context, kind Kind, bench string, opt Options, n int) (Replicated, error) {
	p := ReplicatePlan(kind, bench, opt, n)
	results, err := RunCells(ctx, p.Cells)
	if err != nil {
		return Replicated{}, err
	}
	return p.Project(results)
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
// through a warm cache and compares each run with a fresh one (no warm
// cache) of the same spec: the capturing run (miss, publishes the
// snapshot with its window), a repeat of it (hit, projected from the
// stored window), a run of a window the capture did not measure (hit,
// restores and walks), and projections of the stored window at a
// binding and at a non-binding link bandwidth. All must produce
// byte-identical Results.
func TestSnapshotExactnessMatrix(t *testing.T) {
	ctx := context.Background()
	for _, kind := range allKinds() {
		for _, src := range snapshotSources() {
			spec := src.spec
			spec.Kind = kind
			t.Run(kind.String()+"/"+src.name, func(t *testing.T) {
				t.Parallel()
				wc := newMapWarmCache()
				warm := func(label string, mutate func(*Options)) Result {
					t.Helper()
					s := spec
					mutate(&s.Options)
					fresh, err := Run(ctx, s)
					if err != nil {
						t.Fatal(err)
					}
					s.Warm = wc
					got, err := Run(ctx, s)
					if err != nil {
						t.Fatal(err)
					}
					assertSameResult(t, label, fresh.Result, got.Result)
					return got.Result
				}
				same := func(*Options) {}
				warm("cold-through-cache", same)
				warm("projected", same)
				warm("restored, new window", func(o *Options) { o.Measure += 1000 })
				if bound := warm("projected, binding bandwidth", func(o *Options) { o.LinkBandwidth = 1e-4 }); !bound.BandwidthBound {
					t.Error("link bandwidth 1e-4 did not bind")
				}
				if free := warm("projected, non-binding bandwidth", func(o *Options) { o.LinkBandwidth = 1e3 }); free.BandwidthBound {
					t.Error("link bandwidth 1e3 bound")
				}
				if wc.hits != 4 || wc.misses != 1 {
					t.Fatalf("warm cache saw %d hits / %d misses, want 4 / 1", wc.hits, wc.misses)
				}
				ws := wc.m[spec.Key().String()]
				if ws.windows[spec.Options.Measure] == nil {
					t.Error("the snapshot does not carry its capturing run's window")
				}
				if len(ws.windows) != 1 {
					t.Errorf("the snapshot carries %d windows, want 1: a restored walk must not record into it", len(ws.windows))
				}
			})
		}
	}
}

// TestConcurrentProjections answers runs of one captured window from
// several goroutines at once, each at its own link bandwidth: every
// projection must equal its fresh run, and, under the race detector,
// no projection (nor a caller writing to its Result) may touch the
// shared raw outcome.
func TestConcurrentProjections(t *testing.T) {
	ctx := context.Background()
	base := RunSpec{Kind: D2MNSR, Benchmark: "tpc-c", Options: Options{Nodes: 2, Warmup: 2000, Measure: 4000, Seed: 3}}
	bands := []float64{0, 1e-4, 2e-4, 1e-3, 1e3}
	want := make([]string, len(bands))
	for i, bw := range bands {
		s := base
		s.Options.LinkBandwidth = bw
		out, err := Run(ctx, s)
		if err != nil {
			t.Fatal(err)
		}
		want[i] = resultJSON(t, out.Result)
	}
	wc := newMapWarmCache()
	base.Warm = wc
	if _, err := Run(ctx, base); err != nil {
		t.Fatal(err)
	}
	const workers = 4
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i, bw := range bands {
				s := base
				s.Options.LinkBandwidth = bw
				out, err := Run(ctx, s)
				if err != nil {
					t.Error(err)
					return
				}
				if got, _ := json.Marshal(out.Result); string(got) != want[i] {
					t.Errorf("projection at link bandwidth %g differs from a fresh run:\n fresh     %s\n projected %s", bw, want[i], got)
				}
				out.Result.NodeCycles[0]++
				out.Result.EnergyByOp["dram"]++
			}
		}()
	}
	wg.Wait()
	if wc.hits != workers*len(bands) || wc.misses != 1 {
		t.Errorf("warm cache saw %d hits / %d misses, want %d / 1", wc.hits, wc.misses, workers*len(bands))
	}
}

// cancelOnCapture is a WarmCache whose capture gate cancels the run it
// answers: the gate runs after the warmup, so the capturing walk is
// cancelled before its first measured block.
type cancelOnCapture struct {
	*mapWarmCache
	cancel context.CancelFunc
}

func (c cancelOnCapture) WantWarm(string) bool {
	c.cancel()
	return true
}

// TestCancelledCapturePublishes cancels a capturing run mid-walk: it
// must still publish its snapshot, holding no window, and a later run
// must restore that snapshot, walk, and equal a fresh run.
func TestCancelledCapturePublishes(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	spec := RunSpec{Kind: D2MNSR, Benchmark: "tpc-c", Options: Options{Nodes: 2, Warmup: 2000, Measure: 4000}}
	wc := cancelOnCapture{newMapWarmCache(), cancel}
	capture := spec
	capture.Warm = wc
	if _, err := Run(ctx, capture); !errors.Is(err, context.Canceled) {
		t.Fatalf("capturing run cancelled mid-walk: err = %v, want context.Canceled", err)
	}
	ws := wc.m[spec.Key().String()]
	if ws == nil {
		t.Fatal("a capturing run cancelled mid-walk published no snapshot")
	}
	if len(ws.windows) != 0 {
		t.Errorf("the snapshot carries %d windows, want 0 from a walk that completed none", len(ws.windows))
	}
	fresh, err := Run(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	capture.Warm = wc.mapWarmCache
	restored, err := Run(context.Background(), capture)
	if err != nil {
		t.Fatal(err)
	}
	if wc.hits != 1 {
		t.Fatalf("warm cache saw %d hits, want 1", wc.hits)
	}
	assertSameResult(t, "restored after a cancelled capture", fresh.Result, restored.Result)
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
// LinkBandwidth share one snapshot, and each restored or projected run
// still byte-matches its own fresh equivalent.
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

// TestReplicateWarmDeterministic checks a replicated plan projected
// from warm-cached seed runs equals the plain one byte-for-byte — on a
// cold cache (populating) and again on the warm cache (every seed
// restored).
func TestReplicateWarmDeterministic(t *testing.T) {
	ctx := context.Background()
	opt := Options{Nodes: 2, Warmup: 2000, Measure: 4000}
	const n = 4

	plain, err := replicateN(ctx, D2MNSR, "tpc-c", opt, n)
	if err != nil {
		t.Fatal(err)
	}
	p := ReplicatePlan(D2MNSR, "tpc-c", opt, n)
	wc := newMapWarmCache()
	for round := 0; round < 2; round++ {
		results := make(map[CellKey]Result, n)
		for _, c := range p.Cells {
			r, err := runOneWarm(ctx, c.Kind, c.Benchmark, c.Options, wc)
			if err != nil {
				t.Fatal(err)
			}
			results[c.Key()] = r
		}
		warm, err := p.Project(results)
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

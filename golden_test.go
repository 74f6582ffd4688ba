package d2m

// Golden Result digests: the simulated numbers are the product, so any
// change to them must be explicit. Every case below runs one kind on
// one workload source under one option set in one execution mode, and
// the SHA-256 of the Result's compact JSON is compared with the digest
// committed in testdata/golden/results.json. A refactor of the run
// path must leave every digest unchanged; a deliberate change to
// simulated output regenerates the file with
//
//	go test -run TestGolden -update .
//
// and the diff of the file is the review record of what moved.

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"testing"
)

var updateGolden = flag.Bool("update", false, "regenerate the committed digests under testdata/")

const goldenPath = "testdata/golden/results.json"

// goldenOptionSets are the option variations every kind and source
// runs under, on top of goldenBase.
var goldenOptionSets = []struct {
	name string
	set  func(*Options)
}{
	{"default", func(*Options) {}},
	{"ring", func(o *Options) { o.Topology = "ring" }},
	{"mesh", func(o *Options) { o.Topology = "mesh" }},
	{"torus", func(o *Options) { o.Topology = "torus" }},
	{"bypass", func(o *Options) { o.Bypass = true }},
	{"prefetch", func(o *Options) { o.Prefetch = true }},
	{"place-local", func(o *Options) { o.Placement = "local" }},
	{"place-spread", func(o *Options) { o.Placement = "spread" }},
	{"mdscale2", func(o *Options) { o.MDScale = 2 }},
	{"bw0.05", func(o *Options) { o.LinkBandwidth = 0.05 }},
	{"seed7", func(o *Options) { o.Seed = 7 }},
}

var goldenBase = Options{Nodes: 4, Warmup: 2000, Measure: 6000}

// Execution modes. Each source is recorded in the modes its entry point
// supported when the file was generated — kernels and custom specs had
// their own entry points then — so the digest set, and the file, stay
// fixed. The snapshot and lane matrices cover the other modes.
const (
	modeCold  = "cold"  // one fresh run
	modeWarm  = "warm"  // the second of two runs sharing a warm cache (restored)
	modeGroup = "group" // the case's lane of a 3-lane RunGroup
	modeRep   = "rep3"  // ReplicatePlan with 3 seeds (the mean-projected Result)
)

var allModes = []string{modeCold, modeWarm, modeGroup, modeRep}

// goldenSource is one workload source: spec carries its Benchmark or
// Workload, modes the execution modes it is recorded in.
type goldenSource struct {
	name  string
	spec  RunSpec
	modes []string
}

// runGolden runs the source's spec for one kind and option set in one
// mode.
func runGolden(ctx context.Context, spec RunSpec, mode string) (Result, error) {
	switch mode {
	case modeWarm:
		spec.Warm = newMapWarmCache()
		if _, err := Run(ctx, spec); err != nil {
			return Result{}, err
		}
	case modeGroup:
		opt := spec.Options
		lanes := make([]GroupLane, 3)
		for i, m := range []int{opt.Measure / 2, opt.Measure, opt.Measure * 3 / 2} {
			s := spec
			s.Options.Measure = m
			lanes[i] = GroupLane{Spec: s}
		}
		outs, err := RunGroup(ctx, lanes)
		if err != nil {
			return Result{}, err
		}
		return outs[1].Output.Result, outs[1].Err
	case modeRep:
		p := ReplicatePlan(spec.Kind, spec.Benchmark, spec.Options, 3)
		results, err := RunCells(ctx, p.Cells)
		if err != nil {
			return Result{}, err
		}
		agg, err := p.Project(results)
		return agg.MeanResult(results[p.Cells[0].Key()]), err
	}
	out, err := Run(ctx, spec)
	return out.Result, err
}

func goldenSources(traceBench string) []goldenSource {
	w := exampleWorkload()
	return []goldenSource{
		{"fft", RunSpec{Benchmark: "fft"}, allModes},
		{"tpc-c", RunSpec{Benchmark: "tpc-c"}, allModes},
		{"trace-tpc-c", RunSpec{Benchmark: traceBench}, allModes},
		{"kernel-stencil", RunSpec{Benchmark: KernelPrefix + "stencil"}, []string{modeCold, modeWarm}},
		{"custom-kvstore", RunSpec{Workload: &w}, []string{modeCold}},
	}
}

// goldenDigest hashes a Result's compact JSON.
func goldenDigest(r Result) string {
	b, err := json.Marshal(r)
	if err != nil {
		panic(err)
	}
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

func TestGolden(t *testing.T) {
	setTraceLib(t)
	var enc bytes.Buffer
	if _, err := RecordTrace("tpc-c", goldenBase.Nodes, 6000, &enc); err != nil {
		t.Fatal(err)
	}
	info, err := ImportTrace(&enc, "golden-tpc-c")
	if err != nil {
		t.Fatal(err)
	}

	type job struct {
		name string
		spec RunSpec
		mode string
	}
	var jobs []job
	for _, src := range goldenSources(TracePrefix + info.ID) {
		for _, kind := range allKinds() {
			for _, set := range goldenOptionSets {
				spec := src.spec
				spec.Kind, spec.Options = kind, goldenBase
				set.set(&spec.Options)
				for _, mode := range src.modes {
					name := kind.String() + "/" + src.name + "/" + set.name + "/" + mode
					jobs = append(jobs, job{name, spec, mode})
				}
			}
		}
	}

	got := make(map[string]string, len(jobs))
	var mu sync.Mutex
	ch := make(chan job)
	var wg sync.WaitGroup
	for w := 0; w < runtime.GOMAXPROCS(0); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := range ch {
				res, err := runGolden(context.Background(), j.spec, j.mode)
				mu.Lock()
				if err != nil {
					t.Errorf("%s: %v", j.name, err)
				} else {
					got[j.name] = goldenDigest(res)
				}
				mu.Unlock()
			}
		}()
	}
	for _, j := range jobs {
		ch <- j
	}
	close(ch)
	wg.Wait()
	if t.Failed() {
		return
	}

	data, err := json.MarshalIndent(got, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	data = append(data, '\n')
	if *updateGolden {
		if err := os.MkdirAll(filepath.Dir(goldenPath), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenPath, data, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatalf("%v (generate it with -update)", err)
	}
	var wantMap map[string]string
	if err := json.Unmarshal(want, &wantMap); err != nil {
		t.Fatal(err)
	}
	for name, d := range got {
		if w, ok := wantMap[name]; !ok {
			t.Errorf("%s: no committed digest", name)
		} else if w != d {
			t.Errorf("%s: digest %s, committed %s", name, d, w)
		}
	}
	for name := range wantMap {
		if _, ok := got[name]; !ok {
			t.Errorf("%s: committed digest has no case", name)
		}
	}
	if !bytes.Equal(data, want) && !t.Failed() {
		t.Error("golden file is not in canonical form; regenerate it with -update")
	}
}

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
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"slices"
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
// mode. It returns the Result the digest pins and every single-run
// Result the mode produced on the way: the warm mode's capture run, the
// group's three lanes, the replicated mode's seed runs.
func runGolden(ctx context.Context, spec RunSpec, mode string) (Result, []Result, error) {
	switch mode {
	case modeWarm:
		spec.Warm = newMapWarmCache()
		first, err := Run(ctx, spec)
		if err != nil {
			return Result{}, nil, err
		}
		out, err := Run(ctx, spec)
		return out.Result, []Result{first.Result, out.Result}, err
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
			return Result{}, nil, err
		}
		var runs []Result
		for _, o := range outs {
			if o.Err != nil {
				return Result{}, nil, o.Err
			}
			runs = append(runs, o.Output.Result)
		}
		return runs[1], runs, nil
	case modeRep:
		p := ReplicatePlan(spec.Kind, spec.Benchmark, spec.Options, 3)
		results, err := RunCells(ctx, p.Cells)
		if err != nil {
			return Result{}, nil, err
		}
		agg, err := p.Project(results)
		var runs []Result
		for _, c := range p.Cells {
			runs = append(runs, results[c.Key()])
		}
		return agg.MeanResult(results[p.Cells[0].Key()]), runs, err
	}
	out, err := Run(ctx, spec)
	return out.Result, []Result{out.Result}, err
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

// goldenRun is one golden case's outcome: the Result its digest pins
// and the single-run Results behind it.
type goldenRun struct {
	kind Kind
	res  Result
	runs []Result
	err  error
}

var (
	goldenOnce  sync.Once
	goldenCases map[string]goldenRun
)

// goldenResults runs every golden case once per test binary, so that
// TestGolden and TestGoldenAccounting read the same runs.
func goldenResults(t *testing.T) map[string]goldenRun {
	goldenOnce.Do(func() { goldenCases = runGoldenCases(t) })
	if goldenCases == nil {
		t.Fatal("the golden cases could not be set up")
	}
	return goldenCases
}

func runGoldenCases(t *testing.T) map[string]goldenRun {
	setTraceLib(t)
	var enc bytes.Buffer
	if _, err := RecordTrace("tpc-c", goldenBase.Nodes, 6000, &enc); err != nil {
		t.Error(err)
		return nil
	}
	info, err := ImportTrace(&enc, "golden-tpc-c")
	if err != nil {
		t.Error(err)
		return nil
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

	got := make(map[string]goldenRun, len(jobs))
	var mu sync.Mutex
	ch := make(chan job)
	var wg sync.WaitGroup
	for w := 0; w < runtime.GOMAXPROCS(0); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := range ch {
				res, runs, err := runGolden(context.Background(), j.spec, j.mode)
				mu.Lock()
				got[j.name] = goldenRun{j.spec.Kind, res, runs, err}
				mu.Unlock()
			}
		}()
	}
	for _, j := range jobs {
		ch <- j
	}
	close(ch)
	wg.Wait()
	return got
}

func TestGolden(t *testing.T) {
	got := make(map[string]string)
	for name, c := range goldenResults(t) {
		if c.err != nil {
			t.Errorf("%s: %v", name, c.err)
		} else {
			got[name] = goldenDigest(c.res)
		}
	}
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

// TestGoldenAccounting checks accounting identities on every
// single-run Result behind the golden cases: the metrics are
// projections of one counter set, so they must agree with each other
// whatever the kind, source, option set or run mode.
func TestGoldenAccounting(t *testing.T) {
	cases := goldenResults(t)
	names := make([]string, 0, len(cases))
	for name := range cases {
		names = append(names, name)
	}
	slices.Sort(names)
	for _, name := range names {
		c := cases[name]
		if c.err != nil {
			t.Errorf("%s: %v", name, c.err)
			continue
		}
		mech, err := mechFor(c.kind)
		if err != nil {
			t.Fatal(err)
		}
		for i, r := range c.runs {
			for _, msg := range accountingViolations(r, mech.Baseline) {
				t.Errorf("%s run %d: %s", name, i, msg)
			}
		}
	}
}

// accountingViolations lists the identities r breaks. A baseline Result
// must also leave every D2M-only metric at zero, and a D2M Result every
// baseline-only one: both families count into one counter set, and a
// family's zeros are what keep the other's fields exact.
func accountingViolations(r Result, baseline bool) []string {
	var bad []string
	check := func(ok bool, format string, args ...any) {
		if !ok {
			bad = append(bad, fmt.Sprintf(format, args...))
		}
	}
	check(r.Cycles == slices.Max(r.NodeCycles), "Cycles %d != max NodeCycles %d", r.Cycles, slices.Max(r.NodeCycles))
	check(r.D2MMessages <= r.Messages, "D2MMessages %d > Messages %d", r.D2MMessages, r.Messages)
	check(r.DataBytes <= r.Bytes, "DataBytes %d > Bytes %d", r.DataBytes, r.Bytes)
	dynamic := 0.0
	for _, pj := range r.EnergyByOp {
		dynamic += pj
	}
	check(dynamic <= r.EnergyPJ*(1+1e-9), "sum of EnergyByOp %g > EnergyPJ %g", dynamic, r.EnergyPJ)
	// applyBandwidth stretches Cycles but not EDP, which keeps the
	// unstretched delay, so the identity holds only where nothing was
	// stretched.
	if !r.BandwidthBound {
		check(r.EDP == r.EnergyPJ*float64(r.Cycles), "EDP %g != EnergyPJ*Cycles %g", r.EDP, r.EnergyPJ*float64(r.Cycles))
	}
	if baseline {
		check(r.D2MMessages == 0 && r.MD3Lookups == 0 && r.MD2Accesses == 0,
			"baseline D2M traffic/metadata %d/%d/%d, want 0", r.D2MMessages, r.MD3Lookups, r.MD2Accesses)
		check(r.Events == PKMO{}, "baseline PKMO events %+v, want zero", r.Events)
		check(r.PredSpeculations == 0 && r.PredHits == 0 && r.PredMispredicts == 0 && r.PredCyclesSaved == 0 && r.Repartitions == 0,
			"baseline predictor/repartition counters set")
		check(r.MD1HitFrac == 0 && r.PrivateMissFrac == 0 && r.DirectMissFrac == 0,
			"baseline MD1HitFrac/PrivateMissFrac/DirectMissFrac %g/%g/%g, want 0", r.MD1HitFrac, r.PrivateMissFrac, r.DirectMissFrac)
	} else {
		check(r.DirLookups == 0 && r.L2TagAccesses == 0,
			"D2M DirLookups/L2TagAccesses %d/%d, want 0", r.DirLookups, r.L2TagAccesses)
	}
	return bad
}

package d2m

import (
	"cmp"
	"context"
	"errors"
	"fmt"
	"io"
	"math"
	"runtime"
	"strings"
	"sync"

	"d2m/internal/baseline"
	"d2m/internal/core"
	"d2m/internal/energy"
	"d2m/internal/mem"
	"d2m/internal/noc"
	"d2m/internal/sim"
	"d2m/internal/trace"
	"d2m/internal/workloads"
)

// Kind identifies one of the five evaluated system configurations
// (Figure 4 plus the D2M variants of §V-A).
type Kind int

const (
	// Base2L is the two-level baseline: L1s + shared inclusive LLC +
	// full-map directory (ARM A57-like, perfect L1 way prediction).
	Base2L Kind = iota
	// Base3L adds a 256kB private L2 per core.
	Base3L
	// D2MFS is the split hierarchy with a far-side LLC.
	D2MFS
	// D2MNS moves the LLC slices to the near side of the interconnect
	// with the simple pressure-based allocation policy (§IV-B).
	D2MNS
	// D2MNSR adds the replication heuristics and dynamic indexing
	// (§IV-C, §IV-D).
	D2MNSR
	// D2MHybrid is the §III-A interoperability variant: D2M-NS-R's
	// backend behind unmodified cores with conventional TLBs and tagged
	// L1 caches ("achieving most of the reported D2M advantages").
	D2MHybrid
	// D2MAdaptive is D2M-NS-R with adaptive way repartitioning: each
	// node shares a fixed way budget between its L1-D and MD1-D, and an
	// epoch-boundary policy moves ways toward whichever side missed
	// more during the elapsed interval.
	D2MAdaptive
	// D2MLevelPred is D2M-NS-R with a per-region level predictor that
	// launches a speculative data probe of the predicted serving level
	// in parallel with the metadata walk.
	D2MLevelPred
)

// Kinds returns the paper's five configurations in its presentation
// order (Figure 4 plus §V-A). The variants beyond the paper's
// comparison set — the hybrid and the adaptive mechanisms — are in
// AllKinds.
func Kinds() []Kind { return []Kind{Base2L, Base3L, D2MFS, D2MNS, D2MNSR} }

// AllKinds returns every registered configuration in presentation
// order. The list is derived from the mechanism registry, so a newly
// registered mechanism appears here — and everywhere this feeds (kind
// parsing, capabilities, sweeps) — without further wiring.
func AllKinds() []Kind {
	mechs := core.Mechanisms()
	out := make([]Kind, 0, len(mechs))
	for _, m := range mechs {
		out = append(out, Kind(m.Order))
	}
	return out
}

func (k Kind) String() string {
	if m, ok := core.MechanismByOrder(int(k)); ok {
		return m.Name
	}
	return fmt.Sprintf("Kind(%d)", int(k))
}

// IsD2M reports whether the kind is a split-hierarchy configuration.
func (k Kind) IsD2M() bool {
	m, ok := core.MechanismByOrder(int(k))
	return ok && m.D2M
}

// MarshalText renders the kind by name, so JSON output (d2msim -json,
// experiments -json) says "D2M-NS-R" rather than 4 — including when the
// kind is a map key.
func (k Kind) MarshalText() ([]byte, error) { return []byte(k.String()), nil }

// UnmarshalText parses a kind name (case-insensitive, dashes optional).
func (k *Kind) UnmarshalText(text []byte) error {
	m, ok := core.MechanismByName(string(text))
	if !ok {
		return fmt.Errorf("d2m: unknown kind %q", text)
	}
	*k = Kind(m.Order)
	return nil
}

// Options control a simulation run. The zero value selects the paper's
// setup: 8 nodes, a 100k-access warmup and a 400k-access measurement
// window, MD structures at 1x scale.
type Options struct {
	// Nodes is the core count (1..8).
	Nodes int
	// Warmup is the number of untimed cache-warming accesses.
	Warmup int
	// Measure is the number of measured accesses.
	Measure int
	// Seed offsets the workload seeds, for replicated experiments.
	Seed uint64
	// MDScale scales the MD1/MD2/MD3 entry counts (1, 2 or 4; the
	// scaling study of §V-D footnote 5). Zero means 1.
	MDScale int
	// Bypass enables the cache-bypass optimization on the D2M kinds
	// (the §I optimization list; see core.Config.CacheBypass).
	Bypass bool
	// Prefetch enables the metadata-guided next-line prefetcher on the
	// D2M kinds (a §IV-D extension; see core.Config.Prefetch).
	Prefetch bool
	// Topology selects the interconnect: "crossbar" (default), "ring",
	// "mesh" or "torus". The crossbar is what the calibrated results
	// use; the others make hop distance placement-dependent, growing
	// the near-side locality advantage.
	Topology string
	// Placement selects the NS-LLC victim-slice policy on the near-side
	// D2M kinds: "pressure" (default, the paper's §IV-B heuristic),
	// "local" (always the own slice), or "spread" (uniform across
	// slices, approximating address interleaving). The endpoints bound
	// the §IV-B design space for ablations.
	Placement string
	// LinkBandwidth models a bandwidth-constrained interconnect: each
	// of the machine's links moves this many flits per cycle, and a run
	// whose flit-hop volume exceeds the link capacity over its runtime
	// is stretched to fit. Zero keeps the paper's infinite-bandwidth
	// evaluation ("To avoid mixing the performance effects of traffic
	// reduction and latency reduction, we have simulated a system with
	// infinite bandwidth", §V-D — the constrained mode reproduces the
	// remark that the traffic cut alone "could potentially result in a
	// 2x speedup").
	LinkBandwidth float64
}

// placement resolves the Options.Placement string.
func (o Options) placement() (core.PlacementPolicy, error) {
	switch o.Placement {
	case "", "pressure":
		return core.PlacePressure, nil
	case "local":
		return core.PlaceLocal, nil
	case "spread":
		return core.PlaceSpread, nil
	default:
		return 0, fmt.Errorf("d2m: unknown placement %q (want pressure, local or spread)", o.Placement)
	}
}

// gridDims picks the mesh/torus shape for a node count.
func gridDims(nodes int) (w, h int) {
	if nodes >= 4 && nodes%2 == 0 {
		return nodes / 2, 2
	}
	return nodes, 1
}

// topology resolves the Options.Topology string.
func (o Options) topology() (noc.Topology, error) {
	switch o.Topology {
	case "", "crossbar":
		return noc.Crossbar{}, nil
	case "ring":
		return noc.Ring{Nodes: o.Nodes}, nil
	case "mesh":
		w, h := gridDims(o.Nodes)
		return noc.Mesh{W: w, H: h}, nil
	case "torus":
		w, h := gridDims(o.Nodes)
		return noc.Torus{W: w, H: h}, nil
	default:
		return nil, fmt.Errorf("d2m: unknown topology %q (want crossbar, ring, mesh or torus)", o.Topology)
	}
}

func (o Options) withDefaults() Options {
	if o.Nodes == 0 {
		o.Nodes = 8
	}
	if o.Warmup == 0 {
		o.Warmup = 100_000
	}
	if o.Measure == 0 {
		o.Measure = 400_000
	}
	if o.MDScale == 0 {
		o.MDScale = 1
	}
	return o
}

// PKMO holds the appendix's protocol event frequencies, in events per
// kilo memory operation.
type PKMO struct {
	ALLC, AMem, ANode float64 // case A by master location
	B                 float64
	C                 float64
	D1, D2, D3, D4    float64
	E, F              float64
}

// A returns the total read-miss-with-metadata-hit rate.
func (p PKMO) A() float64 { return p.ALLC + p.AMem + p.ANode }

// D returns the total metadata-miss rate.
func (p PKMO) D() float64 { return p.D1 + p.D2 + p.D3 + p.D4 }

// Result is the outcome of running one benchmark on one configuration.
type Result struct {
	Kind      Kind
	Benchmark string
	Suite     string

	// Timing.
	Cycles uint64
	// NodeCycles are the per-node clocks behind Cycles (their max);
	// MixPlan uses them to attribute time to co-scheduled programs.
	NodeCycles     []uint64
	Instructions   uint64
	Accesses       uint64
	AvgMissLatency float64
	// Miss-latency distribution (cycles at the 50th/95th/99th
	// percentile): the tail the averages hide — D2M's deterministic
	// location lookup cuts the tail harder than the mean.
	MissLatP50, MissLatP95, MissLatP99 uint64

	// Traffic (Figure 5).
	Messages     uint64
	D2MMessages  uint64
	Bytes        uint64
	DataBytes    uint64
	MsgsPerKI    float64
	D2MMsgsPerKI float64
	// Hops is the hop-weighted traffic (link crossings); on ring/mesh
	// topologies it separates near from far messages, the "fewer
	// network hops" effect the paper attributes to D2M.
	Hops uint64

	// Energy (Figure 6).
	EnergyPJ float64
	EDP      float64

	// Cache behaviour (Table IV).
	MissRatioI, MissRatioD float64
	LateHitI, LateHitD     float64
	// NearHitI/NearHitD: for D2M-NS kinds, the fraction of LLC hits
	// served by the local slice; for Base-3L, the L2 hit ratio (the
	// "(L2 hits)" cell of Table IV); zero for Base-2L and D2M-FS.
	NearHitI, NearHitD float64

	// Coherence (Table V).
	InvRecv         uint64
	PrivateMissFrac float64
	DirectMissFrac  float64

	// Metadata/directory pressure (§V-B) and protocol events.
	MD3Lookups uint64
	DirLookups uint64
	// MD1HitFrac is the fraction of accesses whose active metadata was
	// found in the first-level MD (§II-A reports 98.8% combined
	// coverage for D2D).
	MD1HitFrac float64
	// MD2Accesses and L2TagAccesses support the §V-B structure-pressure
	// comparison ("MD2 is accessed 58% as often as the L2-tags in
	// Base-3L").
	MD2Accesses   uint64
	L2TagAccesses uint64
	// BypassedReads counts reads served without L1 allocation when
	// Options.Bypass is set.
	BypassedReads uint64
	// PrefetchIssued and PrefetchUseful report the metadata-guided
	// prefetcher when Options.Prefetch is set. Note: prefetch fetches
	// are accounted in the LLC/DRAM/event counters like demand fetches.
	PrefetchIssued, PrefetchUseful uint64
	// EnergyByOp is the dynamic-energy breakdown in pJ, keyed by
	// operation class (l1-tag, l1-data, md1, dram, noc-flit, ...).
	EnergyByOp map[string]float64
	// LockCollisionRate is the fraction of blocking region transactions
	// that would have stalled on a hashed lock bit held by an unrelated
	// region (appendix: negligible with 1K bits).
	LockCollisionRate float64
	// Repartitions counts the epoch-boundary way moves between L1-D and
	// MD1-D on the adaptive kind (D2M-Adaptive).
	Repartitions uint64
	// Level-predictor accounting (D2M-LevelPred): speculative parallel
	// probes launched, how many matched the serving level, how many
	// probed the wrong level, and the critical-path cycles hidden.
	PredSpeculations, PredHits, PredMispredicts uint64
	PredCyclesSaved                             uint64
	// BandwidthBound reports that Options.LinkBandwidth stretched the
	// runtime (the interconnect, not latency, limited the run).
	BandwidthBound bool
	Events         PKMO

	DRAMReads, DRAMWrites uint64
}

// mechOptions projects the run options onto the mechanism-neutral
// construction options of the registry. Placement and topology were
// validated by Options.Validate before any run reaches here.
func mechOptions(opt Options) core.MechOptions {
	pl, _ := opt.placement()
	topo, _ := opt.topology()
	return core.MechOptions{
		Nodes:     opt.Nodes,
		Seed:      opt.Seed,
		MDScale:   opt.MDScale,
		Bypass:    opt.Bypass,
		Prefetch:  opt.Prefetch,
		Placement: pl,
		Topology:  topo,
	}
}

// mechFor resolves a kind's registry entry.
func mechFor(kind Kind) (*core.Mechanism, error) {
	m, ok := core.MechanismByOrder(int(kind))
	if !ok {
		return nil, fmt.Errorf("d2m: kind %v has no registered mechanism", kind)
	}
	return m, nil
}

// RunSpec describes one simulation for Run: the configuration kind,
// the workload, the run options, and the execution knobs that used to
// be separate entry points (replication and warm-state reuse).
type RunSpec struct {
	Kind Kind
	// Benchmark names the workload: a catalog benchmark, a stored trace
	// ("trace:<id>") or an algorithmic kernel ("kernel:<name>").
	Benchmark string
	// Workload, when non-nil, runs this custom generator instead; the
	// spec then leaves Benchmark empty.
	Workload *WorkloadSpec
	Options  Options
	// Replicates, when >= 2, runs the spec that many times with
	// decorrelated seeds (Options.Seed+1 ..) and fills
	// RunOutput.Replicated next to the mean-projected Result. 0 and 1
	// both mean a single run; negative is an error.
	Replicates int
	// Warm, when non-nil, lets runs sharing a warm identity (CellKey.Warm)
	// restore the post-warmup machine state instead of re-simulating
	// the warmup. Nil always warms from scratch.
	Warm WarmCache
}

// RunOutput is Run's result. Result holds the single-run metrics — or,
// for a replicated spec, the mean projection of the aggregate (see
// Replicated.MeanResult); Replicated is set only when spec.Replicates
// was >= 2.
type RunOutput struct {
	Result     Result
	Replicated *Replicated
	// Engine names the execution path that produced Result: EngineScalar
	// for Run, EngineVector for a RunGroup lane. The two are
	// byte-identical by contract; the field exists so services can report
	// which path served a job.
	Engine string
}

// Run simulates one RunSpec and returns the extracted metrics. It is
// the package's single entry point: every workload source (see
// RunSpec.Benchmark and RunSpec.Workload) runs through it, cancellation
// comes from ctx (the simulation stops at the next engine checkpoint
// when ctx is done), replication and warm-state reuse from the spec.
func Run(ctx context.Context, spec RunSpec) (RunOutput, error) {
	opt, src, err := prepare(spec)
	if err != nil {
		return RunOutput{}, err
	}
	return run(ctx, spec, opt, src)
}

// prepare is the one validation every run path performs: the replicate
// count, the options and the workload source. It returns the defaulted
// options and the resolved source. The kind is checked when the
// executor looks up its mechanism.
func prepare(spec RunSpec) (Options, source, error) {
	if spec.Replicates < 0 {
		return Options{}, source{}, fmt.Errorf("d2m: Run with Replicates = %d", spec.Replicates)
	}
	opt := spec.Options.withDefaults()
	src, err := resolve(spec, opt)
	if err != nil {
		return Options{}, source{}, err
	}
	if err := opt.Validate(); err != nil {
		return Options{}, source{}, err
	}
	return opt, src, nil
}

// run executes a prepared spec on the scalar path.
func run(ctx context.Context, spec RunSpec, opt Options, src source) (RunOutput, error) {
	if spec.Replicates >= 2 {
		// A named source's aggregate carries the requested name; a custom
		// spec's (which has none) its spec name.
		label := cmp.Or(spec.Benchmark, src.name)
		agg, err := replicate(ctx, spec, label, src, opt)
		if err != nil {
			return RunOutput{}, err
		}
		res := agg.MeanResult()
		res.Benchmark, res.Suite = src.name, src.suite
		return RunOutput{Result: res, Replicated: &agg, Engine: EngineScalar}, nil
	}
	rs, err := execute(ctx, spec.Key(), src, []Options{opt}, spec.Warm, nil)
	if err != nil {
		return RunOutput{}, err
	}
	return RunOutput{Result: *rs[0], Engine: EngineScalar}, nil
}

// execute is the one executor behind every run path: Run, RunGroup
// and replication. It builds the kind's machine through the
// mechanism registry and brings it to the warmup boundary — restoring
// wc's snapshot for the warm identity when there is one, and otherwise
// simulating the warmup and depositing a snapshot for its successors.
// It then measures every lane's window in one walk (sim.MeasureLanes)
// and extracts each lane's Result at that lane's boundary, reading the
// flit-hop meter there so the lane's bandwidth stretch sees exactly the
// traffic a lone run of that lane generates.
//
// lanes are validated, defaulted options sharing key's warm identity:
// key's kind and lane 0 shape the machine and the stream, and each lane
// contributes its own Measure and LinkBandwidth. active (nil: every
// lane) reports whether a lane still wants its result; a lane that
// drops out gets a nil Result. A nil wc always warms from scratch.
func execute(ctx context.Context, key CellKey, src source, lanes []Options, wc WarmCache, active func(lane int) bool) ([]*Result, error) {
	mech, err := mechFor(key.kind)
	if err != nil {
		return nil, err
	}
	opt := lanes[0]
	inst := mech.New(mechOptions(opt))
	defer inst.Release() // recycle the hierarchy's arrays for the next run
	engine := sim.NewEngine(inst, opt.Nodes)

	var snap *WarmSnapshot
	var wkey string
	if wc != nil {
		wkey = key.String()
		snap = wc.GetWarm(wkey)
	}
	stream, err := warmedStream(ctx, engine, snap, func() *trace.Interleaver { return trace.NewInterleaver(src.streams(opt)) }, opt.Warmup)
	if err != nil {
		return nil, err
	}
	if snap != nil {
		inst.Restore(snap.state)
	} else if wc != nil && wantWarm(wc, wkey) {
		ws := &WarmSnapshot{key: wkey, warmup: opt.Warmup, state: inst.Snapshot()}
		ws.finish(stream)
		wc.PutWarm(ws)
	}

	measures := make([]int, len(lanes))
	for i, l := range lanes {
		measures[i] = l.Measure
	}
	if active == nil {
		active = func(int) bool { return true }
	}
	out := make([]*Result, len(lanes))
	var sinkErr error
	err = engine.MeasureLanes(ctx, stream, measures, active, func(lane int, rep sim.Report) {
		var err error
		if out[lane], err = laneResult(key.kind, src, inst, mech, rep, lanes[lane]); err != nil {
			sinkErr = err
		}
	})
	if err == nil {
		err = sinkErr
	}
	if err != nil {
		return nil, err
	}
	return out, nil
}

// laneResult builds a lane's Result from the engine's report at the
// lane's boundary: the common metrics, the mechanism family's metrics
// read off inst's concrete system, and the runtime stretch its flit-hop
// count needs at the lane's own link bandwidth.
func laneResult(kind Kind, src source, inst core.MechInstance, mech *core.Mechanism, rep sim.Report, lane Options) (*Result, error) {
	r := &Result{Kind: kind, Benchmark: src.name, Suite: src.suite}
	r.fillCommon(rep)
	var meter *energy.Meter
	switch s := inst.Underlying().(type) {
	case *baseline.System:
		r.fillBaseline(s, rep)
		meter = s.Meter()
	case *core.System:
		r.fillCore(s, rep, mech)
		meter = s.Meter()
	default:
		return nil, fmt.Errorf("d2m: mechanism %s exposes unknown system type %T", mech.Name, s)
	}
	r.applyBandwidth(lane, meter.Count(energy.OpNoCFlit))
	return r, nil
}

// applyBandwidth stretches the runtime when the interconnect cannot
// carry the run's flit-hop volume in the computed cycles: the aggregate
// fabric capacity is one link per node plus the hub link, each moving
// LinkBandwidth flits per cycle.
func (r *Result) applyBandwidth(opt Options, flitHops uint64) {
	if opt.LinkBandwidth <= 0 || r.Cycles == 0 {
		return
	}
	links := float64(opt.Nodes + 1)
	bwCycles := float64(flitHops) / (links * opt.LinkBandwidth)
	if bwCycles > float64(r.Cycles) {
		r.BandwidthBound = true
		// The whole machine is held back together: every node's clock
		// stretches by the same factor (the fabric is shared).
		scale := bwCycles / float64(r.Cycles)
		for i, c := range r.NodeCycles {
			r.NodeCycles[i] = uint64(float64(c) * scale)
		}
		r.Cycles = uint64(bwCycles)
	}
}

func (r *Result) fillCommon(rep sim.Report) {
	r.Cycles = rep.Cycles
	r.NodeCycles = rep.NodeCycles
	r.Instructions = rep.Instructions
	r.Accesses = rep.Accesses
	r.MissLatP50 = rep.MissLatencyPercentile(0.50)
	r.MissLatP95 = rep.MissLatencyPercentile(0.95)
	r.MissLatP99 = rep.MissLatencyPercentile(0.99)
	r.LateHitI = rep.LateHitRatioI()
	r.LateHitD = rep.LateHitRatioD()
}

func perKI(count, instructions uint64) float64 {
	if instructions == 0 {
		return 0
	}
	return float64(count) / float64(instructions) * 1000
}

func (r *Result) fillBaseline(s *baseline.System, rep sim.Report) {
	st := s.Stats()
	fab := s.Fabric()
	r.Messages = fab.Messages()
	r.Bytes = fab.Bytes()
	r.DataBytes = fab.DataBytes()
	r.MsgsPerKI = perKI(fab.Messages(), rep.Instructions)
	r.Hops = fab.Hops()
	r.EnergyPJ = s.Meter().TotalPJ(rep.Cycles)
	r.EDP = s.Meter().EDP(rep.Cycles)
	r.EnergyByOp = s.Meter().BreakdownPJ()
	r.MissRatioI = st.MissRatioI()
	r.MissRatioD = st.MissRatioD()
	if s.Config().L2Sets > 0 {
		l2 := st.L2HitRatio()
		r.NearHitI, r.NearHitD = l2, l2
	}
	r.AvgMissLatency = st.AvgMissLatency()
	r.InvRecv = st.InvRecv + st.BackInv
	r.DirLookups = st.DirLookups
	r.L2TagAccesses = s.Meter().Count(energy.OpL2Tag)
	r.DRAMReads = st.DRAMReads
	r.DRAMWrites = st.DRAMWrites
}

func (r *Result) fillCore(s *core.System, rep sim.Report, mech *core.Mechanism) {
	st := s.Stats()
	fab := s.Fabric()
	r.Messages = fab.Messages()
	r.D2MMessages = fab.D2MMessages()
	r.Bytes = fab.Bytes()
	r.DataBytes = fab.DataBytes()
	r.MsgsPerKI = perKI(fab.Messages(), rep.Instructions)
	r.D2MMsgsPerKI = perKI(fab.D2MMessages(), rep.Instructions)
	r.Hops = fab.Hops()
	r.EnergyPJ = s.Meter().TotalPJ(rep.Cycles)
	r.EDP = s.Meter().EDP(rep.Cycles)
	r.EnergyByOp = s.Meter().BreakdownPJ()
	r.MissRatioI = st.MissRatioI()
	r.MissRatioD = st.MissRatioD()
	if mech.ReportNearHit {
		r.NearHitI = st.NearSideHitRatioI()
		r.NearHitD = st.NearSideHitRatioD()
	}
	r.AvgMissLatency = st.AvgMissLatency()
	r.InvRecv = st.InvRecv
	r.PrivateMissFrac = st.PrivateMissFraction()
	r.DirectMissFrac = st.DirectMissFraction()
	r.MD3Lookups = st.MD3Lookups
	r.BypassedReads = st.BypassedReads
	r.PrefetchIssued = st.PrefetchIssued
	r.PrefetchUseful = st.PrefetchUseful
	r.LockCollisionRate = st.LockCollisionRate()
	r.Repartitions = st.Repartitions
	r.PredSpeculations = st.PredSpeculations
	r.PredHits = st.PredHits
	r.PredMispredicts = st.PredMispredicts
	r.PredCyclesSaved = st.PredCyclesSaved
	r.MD2Accesses = s.Meter().Count(energy.OpMD2)
	if st.Accesses > 0 {
		r.MD1HitFrac = float64(st.MD1Hits) / float64(st.Accesses)
	}
	r.DRAMReads = st.DRAMReads
	r.DRAMWrites = st.DRAMWrites
	pk := func(c uint64) float64 { return st.PKMO(c) }
	r.Events = PKMO{
		ALLC: pk(st.EvALLC), AMem: pk(st.EvAMem), ANode: pk(st.EvANode),
		B: pk(st.EvB), C: pk(st.EvC),
		D1: pk(st.EvD1), D2: pk(st.EvD2), D3: pk(st.EvD3), D4: pk(st.EvD4),
		E: pk(st.EvE), F: pk(st.EvF),
	}
}

// Benchmarks returns every available benchmark name.
func Benchmarks() []string { return workloads.Names() }

// Suites returns the five suite names.
func Suites() []string { return workloads.Suites() }

// SuiteVector is the strided/vector extras suite: synthetic SIMD
// streaming kernels outside the paper's five-suite catalog (not in
// Suites() or Benchmarks()), resolvable by name like any benchmark and
// advertised separately in the service's capabilities.
const SuiteVector = workloads.SuiteVector

// BenchmarksOf returns the benchmarks of one suite, in catalog order.
func BenchmarksOf(suite string) []string {
	var out []string
	for _, sp := range workloads.BySuite(suite) {
		out = append(out, sp.Name)
	}
	return out
}

// RecordTrace generates a named source's access stream (interleaved
// across nodes) and writes it as a v2 binary trace file (varint-delta
// records, CRC-protected footer), usable with ImportTrace, AnalyzeTrace
// or external tools. bench is any benchmark name Run accepts: a catalog
// benchmark, "kernel:<name>" or "trace:<id>".
func RecordTrace(bench string, nodes, accesses int, w io.Writer) (int, error) {
	src, err := namedStream(bench, nodes)
	if err != nil {
		return 0, err
	}
	if accesses < 1 {
		return 0, fmt.Errorf("d2m: accesses = %d", accesses)
	}
	fw, err := trace.NewFileWriter(w)
	if err != nil {
		return 0, err
	}
	buf := make([]mem.Access, sim.BlockAccesses)
	for done := 0; done < accesses; {
		k := src.Fill(buf[:min(len(buf), accesses-done)])
		for j, a := range buf[:k] {
			if err := fw.Append(a); err != nil {
				return done + j, err
			}
		}
		done += k
	}
	return accesses, fw.Close()
}

// Replicated runs one benchmark on one configuration n times with
// decorrelated workload seeds and returns the per-metric mean and
// standard deviation, for experiments that want error bars on top of
// the deterministic single-seed runs.
type Replicated struct {
	Kind      Kind
	Benchmark string
	N         int
	// Mean and Std hold, in order: cycles, msgs/KI, EDP, L1-D miss
	// ratio, average miss latency.
	CyclesMean, CyclesStd   float64
	MsgsPerKIMean, MsgsStd  float64
	EDPMean, EDPStd         float64
	MissDMean, MissDStd     float64
	MissLatMean, MissLatStd float64
	PrivateMean, PrivateStd float64
}

// MeanResult projects the aggregate onto the single-run Result shape,
// so replicated runs flow through the same caches, stores, and sweep
// plumbing as single runs. Count-style fields that have no meaningful
// mean stay zero.
func (r Replicated) MeanResult() Result {
	suite, _ := SuiteOf(r.Benchmark)
	return Result{
		Kind:            r.Kind,
		Benchmark:       strings.TrimPrefix(r.Benchmark, KernelPrefix),
		Suite:           suite,
		Cycles:          uint64(r.CyclesMean),
		MsgsPerKI:       r.MsgsPerKIMean,
		EDP:             r.EDPMean,
		MissRatioD:      r.MissDMean,
		AvgMissLatency:  r.MissLatMean,
		PrivateMissFrac: r.PrivateMean,
	}
}

// replicate is the replication engine behind Run: the n seeded runs
// are independent simulations, so they execute concurrently on
// GOMAXPROCS workers; samples are gathered by seed index and aggregated
// in that fixed order, so the result is byte-identical to running the
// seeds serially.
// When a run fails, the remaining runs are cancelled and the error of
// the lowest-indexed failed seed is returned (a context error only if
// no seed failed on its own). spec.Warm, when non-nil, lets each
// seeded run reuse a warm-state snapshot for its own (seed-specific)
// warm identity. label is the aggregate's Benchmark.
func replicate(ctx context.Context, spec RunSpec, label string, src source, opt Options) (Replicated, error) {
	n := spec.Replicates
	workers := min(runtime.GOMAXPROCS(0), n)

	runCtx, cancel := context.WithCancel(ctx)
	defer cancel()
	samples := make([]repSample, n)
	errs := make([]error, n)
	idx := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range idx {
				s := spec
				s.Options = opt
				s.Options.Seed = opt.Seed + uint64(i) + 1
				rs, err := execute(runCtx, s.Key(), src, []Options{s.Options}, spec.Warm, nil)
				if err != nil {
					errs[i] = err
					cancel() // a failed seed fails the aggregate; stop the rest
					continue
				}
				r := rs[0]
				samples[i] = repSample{
					float64(r.Cycles), r.MsgsPerKI, r.EDP, r.MissRatioD, r.AvgMissLatency, r.PrivateMissFrac,
				}
			}
		}()
	}
	for i := 0; i < n; i++ {
		idx <- i
	}
	close(idx)
	wg.Wait()

	// Prefer a seed's own error over the context-cancellation errors the
	// siblings observed, lowest index first, so the reported error does
	// not depend on scheduling.
	var ctxErr error
	for i, err := range errs {
		if err == nil {
			continue
		}
		if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
			if ctxErr == nil {
				ctxErr = errs[i]
			}
			continue
		}
		return Replicated{}, err
	}
	if ctxErr != nil {
		return Replicated{}, ctxErr
	}
	return aggregate(spec.Kind, label, samples), nil
}

// repSample holds the metrics of one replicated run that enter the
// aggregate: cycles, msgs/KI, EDP, L1-D miss ratio, average miss
// latency, private-miss fraction.
type repSample struct{ cyc, msg, edp, missd, lat, priv float64 }

// aggregate folds per-seed samples (in seed order) into the mean/std
// summary.
func aggregate(kind Kind, bench string, samples []repSample) Replicated {
	n := len(samples)
	mean := func(get func(repSample) float64) float64 {
		sum := 0.0
		for _, s := range samples {
			sum += get(s)
		}
		return sum / float64(n)
	}
	std := func(get func(repSample) float64, m float64) float64 {
		if n < 2 {
			return 0
		}
		sum := 0.0
		for _, s := range samples {
			d := get(s) - m
			sum += d * d
		}
		return math.Sqrt(sum / float64(n-1))
	}
	out := Replicated{Kind: kind, Benchmark: bench, N: n}
	out.CyclesMean = mean(func(s repSample) float64 { return s.cyc })
	out.CyclesStd = std(func(s repSample) float64 { return s.cyc }, out.CyclesMean)
	out.MsgsPerKIMean = mean(func(s repSample) float64 { return s.msg })
	out.MsgsStd = std(func(s repSample) float64 { return s.msg }, out.MsgsPerKIMean)
	out.EDPMean = mean(func(s repSample) float64 { return s.edp })
	out.EDPStd = std(func(s repSample) float64 { return s.edp }, out.EDPMean)
	out.MissDMean = mean(func(s repSample) float64 { return s.missd })
	out.MissDStd = std(func(s repSample) float64 { return s.missd }, out.MissDMean)
	out.MissLatMean = mean(func(s repSample) float64 { return s.lat })
	out.MissLatStd = std(func(s repSample) float64 { return s.lat }, out.MissLatMean)
	out.PrivateMean = mean(func(s repSample) float64 { return s.priv })
	out.PrivateStd = std(func(s repSample) float64 { return s.priv }, out.PrivateMean)
	return out
}

package d2m

import (
	"context"
	"fmt"
	"io"
	"maps"
	"slices"

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
// the workload, the run options, and warm-state reuse.
type RunSpec struct {
	Kind Kind
	// Benchmark names the workload: a catalog benchmark, a stored trace
	// ("trace:<id>") or an algorithmic kernel ("kernel:<name>").
	Benchmark string
	// Workload, when non-nil, runs this custom generator instead; the
	// spec then leaves Benchmark empty.
	Workload *WorkloadSpec
	Options  Options
	// Warm, when non-nil, lets runs sharing a warm identity (CellKey.Warm)
	// restore the post-warmup machine state instead of re-simulating
	// the warmup, or, when the snapshot already stores the run's
	// measurement window, project the stored outcome without
	// simulating. Nil always warms from scratch.
	Warm WarmCache
}

// RunOutput is Run's result: the run's metrics and the path that
// produced them.
type RunOutput struct {
	Result Result
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
// when ctx is done), warm-state reuse from the spec. A replicated run
// is a plan of seed runs (ReplicatePlan).
func Run(ctx context.Context, spec RunSpec) (RunOutput, error) {
	opt, src, err := prepare(spec)
	if err != nil {
		return RunOutput{}, err
	}
	return run(ctx, spec, opt, src)
}

// prepare is the one validation every run path performs: the options
// and the workload source. It returns the defaulted options and the
// resolved source. The kind is checked when the executor looks up its
// mechanism.
func prepare(spec RunSpec) (Options, source, error) {
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
	rs, err := execute(ctx, spec.Key(), src, []Options{opt}, spec.Warm, nil)
	if err != nil {
		return RunOutput{}, err
	}
	return RunOutput{Result: *rs[0], Engine: EngineScalar}, nil
}

// execute is the one executor behind every run path: Run and
// RunGroup. A lane's Result is a projection of its window's raw
// outcome (windowOutcome): lanes that share a Measure share one
// outcome, and each applies its own link-bandwidth stretch to it.
//
// When wc holds a snapshot for the warm identity that already carries
// every active lane's window, the run is answered by projection alone,
// without building a machine. Otherwise execute builds the kind's
// machine through the mechanism registry and brings it to the warmup
// boundary — restoring wc's snapshot when there is one, and otherwise
// simulating the warmup and capturing a snapshot for its successors.
// It then measures every distinct window in one walk
// (sim.MeasureLanes) and extracts each window's outcome at that
// window's boundary, reading the flit-hop meter there so each lane's
// stretch sees exactly the traffic a lone run of that lane generates.
// A captured snapshot is published after the walk, carrying the
// outcomes of the windows the walk completed.
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
	if active == nil {
		active = func(int) bool { return true }
	}
	var snap *WarmSnapshot
	var wkey string
	if wc != nil {
		wkey = key.String()
		snap = wc.GetWarm(wkey)
	}
	if snap != nil {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		if out, ok := snap.project(lanes, active); ok {
			return out, nil
		}
	}

	opt := lanes[0]
	inst := mech.New(mechOptions(opt))
	defer inst.Release() // recycle the hierarchy's arrays for the next run
	engine := sim.NewEngine(inst, opt.Nodes)
	stream, err := warmedStream(ctx, engine, snap, func() *trace.Interleaver { return trace.NewInterleaver(src.streams(opt)) }, opt.Warmup)
	if err != nil {
		return nil, err
	}
	var capture *WarmSnapshot
	if snap != nil {
		inst.Restore(snap.state)
	} else if wc != nil && wantWarm(wc, wkey) {
		capture = &WarmSnapshot{key: wkey, warmup: opt.Warmup, state: inst.Snapshot()}
		capture.finish(stream)
	}

	// One window per distinct Measure; a window stays active while any
	// of its lanes is.
	var measures []int
	var byWindow [][]int // window -> its lanes
	for i, l := range lanes {
		w := slices.Index(measures, l.Measure)
		if w < 0 {
			w = len(measures)
			measures = append(measures, l.Measure)
			byWindow = append(byWindow, nil)
		}
		byWindow[w] = append(byWindow[w], i)
	}
	outcomes := make([]*windowOutcome, len(measures))
	out := make([]*Result, len(lanes))
	var sinkErr error
	err = engine.MeasureLanes(ctx, stream, measures,
		func(w int) bool { return slices.ContainsFunc(byWindow[w], active) },
		func(w int, rep sim.Report) {
			o, err := windowResult(key.kind, src, inst, mech, rep)
			if err != nil {
				sinkErr = err
				return
			}
			outcomes[w] = o
			for _, lane := range byWindow[w] {
				if active(lane) {
					out[lane] = o.project(lanes[lane])
				}
			}
		})
	if capture != nil {
		capture.publish(measures, outcomes)
		wc.PutWarm(capture)
	}
	if err == nil {
		err = sinkErr
	}
	if err != nil {
		return nil, err
	}
	return out, nil
}

// windowOutcome is the raw outcome of one measurement window: the
// Result extracted at the window's boundary before any bandwidth
// stretch, and the flit-hop count there that the stretch reads. A
// link bandwidth changes neither the machine's path nor any other
// statistic, so every lane of the window is a projection of it.
type windowOutcome struct {
	res      Result
	flitHops uint64
}

// project returns a lane's Result: a copy of the raw Result with its
// own NodeCycles and EnergyByOp, stretched at the lane's link
// bandwidth. The outcome itself is never modified, so projections may
// run concurrently.
func (o *windowOutcome) project(lane Options) *Result {
	r := o.res
	r.NodeCycles = slices.Clone(o.res.NodeCycles)
	r.EnergyByOp = maps.Clone(o.res.EnergyByOp)
	r.applyBandwidth(lane, o.flitHops)
	return &r
}

// windowResult builds a window's raw outcome from the engine's report
// at its boundary: the common metrics, the mechanism family's metrics
// read off inst's concrete system, and the flit-hop count.
func windowResult(kind Kind, src source, inst core.MechInstance, mech *core.Mechanism, rep sim.Report) (*windowOutcome, error) {
	o := &windowOutcome{res: Result{Kind: kind, Benchmark: src.name, Suite: src.suite}}
	r := &o.res
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
	o.flitHops = meter.Count(energy.OpNoCFlit)
	return o, nil
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

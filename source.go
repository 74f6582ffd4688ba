package d2m

import (
	"fmt"
	"strings"

	"d2m/internal/kernels"
	"d2m/internal/mem"
	"d2m/internal/trace"
	"d2m/internal/workloads"
)

// Workload sources. Every simulation draws its accesses from one
// source, and every source is resolved here, in one place:
//
//   - a catalog benchmark name ("tpc-c", see Benchmarks);
//   - a stored trace, "trace:<id>" (see ImportTrace);
//   - an algorithmic kernel, "kernel:<name>" (see Kernels);
//   - two co-scheduled programs, "mix:<a>+<b>" (see MixPrefix);
//   - a custom generator, RunSpec.Workload (see WorkloadSpec).
//
// The first four are names, accepted anywhere a benchmark name is —
// Run, RunGroup, sweeps, the service API. All five run through the same
// executor, so warm snapshots, lane groups and replication apply to
// each of them alike.

// KernelPrefix marks a benchmark name as an algorithmic kernel:
// "kernel:<name>" runs the kernel of that name.
const KernelPrefix = "kernel:"

// MixPrefix marks a benchmark name as two co-scheduled programs:
// "mix:<a>+<b>" runs program <a> on the lower half of the nodes and <b>
// on the upper half, in disjoint address spaces. Each program is a
// catalog or "kernel:" name; "mix:<a>+" runs <a> alone on the lower
// half, the upper half idle. The node count must be even.
const MixPrefix = "mix:"

// Pseudo-suites reported for the non-catalog sources. Like SuiteTrace,
// they are not part of Suites().
const (
	SuiteKernel = "Kernel"
	SuiteMix    = "Mix"
	SuiteCustom = "Custom"
)

// asidStride separates co-scheduled programs' address spaces (every
// workload base is far below 2^36).
const asidStride mem.Addr = 1 << 36

// source is a resolved workload: the labels its Results carry and a
// factory returning independent streams at position zero for the given
// (defaulted) options — one per node for a generator, which the
// executor merges round-robin, or a stored trace's one merged stream.
type source struct {
	name, suite string
	streams     func(Options) []trace.Stream
}

// resolve validates a spec's workload and resolves it to a source:
// RunSpec.Workload when set, the benchmark name otherwise.
func resolve(spec RunSpec, opt Options) (source, error) {
	w := spec.Workload
	if w == nil {
		return benchStream(spec.Benchmark, opt)
	}
	if spec.Benchmark != "" {
		return source{}, fmt.Errorf("d2m: RunSpec sets both Benchmark %q and Workload", spec.Benchmark)
	}
	if err := w.Validate(); err != nil {
		return source{}, err
	}
	sp := w.toInternal()
	return source{sp.Name, sp.Suite, func(o Options) []trace.Stream { return specStreams(sp, o) }}, nil
}

// benchStream resolves a benchmark name — a catalog entry, a
// "trace:<id>" reference, a "kernel:<name>" or a "mix:<a>+<b>" — to
// its source. Trace streams read the stored file chunk-at-a-time
// (bounded memory) and loop when shorter than warmup+measure.
func benchStream(bench string, opt Options) (source, error) {
	if id, ok := traceName(bench); ok {
		lib := traceLibrary()
		if lib == nil {
			return source{}, errNoTraceDir
		}
		fr0, info, err := lib.OpenReader(id)
		if err != nil {
			return source{}, fmt.Errorf("d2m: unknown benchmark %q: %w", bench, err)
		}
		if info.Nodes > opt.Nodes {
			return source{}, fmt.Errorf("d2m: trace %s uses %d nodes but Nodes = %d", id, info.Nodes, opt.Nodes)
		}
		fr0.Loop = true
		// fr0 stays parked at record zero; every run replays through its
		// own clone, sharing the one cached file handle underneath.
		return source{bench, SuiteTrace, func(Options) []trace.Stream { return []trace.Stream{fr0.Clone()} }}, nil
	}
	if rest, ok := strings.CutPrefix(bench, MixPrefix); ok {
		return mixStream(bench, rest, opt)
	}
	if name, ok := strings.CutPrefix(bench, KernelPrefix); ok {
		k, ok := kernels.ByName(name)
		if !ok {
			return source{}, fmt.Errorf("d2m: unknown kernel %q (see Kernels())", name)
		}
		return source{k.Name(), SuiteKernel, func(o Options) []trace.Stream { return k.Streams(o.Nodes) }}, nil
	}
	sp, ok := workloads.ByName(bench)
	if !ok {
		return source{}, fmt.Errorf("d2m: unknown benchmark %q (see Benchmarks())", bench)
	}
	return source{sp.Name, sp.Suite, func(o Options) []trace.Stream { return specStreams(sp, o) }}, nil
}

// mixStream resolves "mix:<a>+<b>" (rest is "<a>+<b>"): program a's
// per-node streams on the lower half of the nodes, b's moved to the
// upper half and into their own address space. A program is a catalog
// or "kernel:" name, never a trace or another mix.
func mixStream(bench, rest string, opt Options) (source, error) {
	if opt.Nodes < 2 || opt.Nodes%2 != 0 {
		return source{}, fmt.Errorf("d2m: mix %q needs an even node count, got Nodes = %d", bench, opt.Nodes)
	}
	an, bn, ok := strings.Cut(rest, "+")
	var progs [2]source // progs[1].streams stays nil for "mix:<a>+"
	for i, name := range []string{an, bn} {
		if !ok || an == "" || strings.HasPrefix(name, MixPrefix) || strings.HasPrefix(name, TracePrefix) {
			return source{}, fmt.Errorf("d2m: mix %q is not mix:<a>+<b> or mix:<a>+ of catalog or kernel names", bench)
		}
		if name != "" {
			var err error
			if progs[i], err = benchStream(name, opt); err != nil {
				return source{}, err
			}
		}
	}
	return source{bench, SuiteMix, func(o Options) []trace.Stream {
		o.Nodes /= 2
		streams := progs[0].streams(o)
		if progs[1].streams != nil {
			for _, s := range progs[1].streams(o) {
				streams = append(streams, trace.Offset(s, o.Nodes, asidStride))
			}
		}
		return streams
	}}, nil
}

// specStreams builds the workload streams, applying the run seed.
func specStreams(sp *workloads.Spec, opt Options) []trace.Stream {
	if opt.Seed == 0 {
		return sp.Streams(opt.Nodes)
	}
	copySpec := *sp
	copySpec.Seed ^= opt.Seed * 0x9e3779b97f4a7c15
	return copySpec.Streams(opt.Nodes)
}

// namedStream resolves a named source for the stream tools (RecordTrace,
// AnalyzeBenchmark), which take an explicit node count and no machine.
func namedStream(bench string, nodes int) (*trace.Interleaver, error) {
	if nodes < 1 || nodes > 8 {
		return nil, fmt.Errorf("d2m: nodes = %d out of range 1..8", nodes)
	}
	opt := Options{Nodes: nodes}
	src, err := benchStream(bench, opt)
	if err != nil {
		return nil, err
	}
	return trace.NewInterleaver(src.streams(opt)), nil
}

// SuiteOf returns the suite of a benchmark name: the catalog suite,
// SuiteTrace for a stored-trace reference ("trace:<id>"), SuiteKernel
// for an algorithmic kernel ("kernel:<name>") or SuiteMix for a mix of
// two programs ("mix:<a>+<b>").
func SuiteOf(bench string) (string, bool) {
	if id, ok := traceName(bench); ok {
		if _, ok := TraceByID(id); ok {
			return SuiteTrace, true
		}
		return "", false
	}
	// Any other source resolves without I/O; a mix needs an even node
	// count, which the name alone does not fix.
	src, err := benchStream(bench, Options{Nodes: 2})
	return src.suite, err == nil
}

// CheckBenchmark reports why a benchmark name cannot run under opt
// (defaults applied): unlike SuiteOf it sees the node count, which a mix
// (even) and a stored trace (at least its recorded nodes) constrain.
// Admission calls it so such a run is refused, not failed once queued.
func CheckBenchmark(bench string, opt Options) error {
	_, err := benchStream(bench, opt.withDefaults())
	return err
}

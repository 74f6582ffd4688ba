package d2m

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"strings"

	"d2m/internal/kernels"
	"d2m/internal/trace"
	"d2m/internal/workloads"
)

// Workload sources. Every simulation draws its accesses from one
// source, and every source is resolved here, in one place:
//
//   - a catalog benchmark name ("tpc-c", see Benchmarks);
//   - a stored trace, "trace:<id>" (see ImportTrace);
//   - an algorithmic kernel, "kernel:<name>" (see Kernels);
//   - a custom generator, RunSpec.Workload (see WorkloadSpec).
//
// The first three are names, accepted anywhere a benchmark name is —
// Run, RunGroup, sweeps, the service API. All four run through the same
// executor, so warm snapshots, lane groups and replication apply to
// each of them alike.

// KernelPrefix marks a benchmark name as an algorithmic kernel:
// "kernel:<name>" runs the kernel of that name.
const KernelPrefix = "kernel:"

// Pseudo-suites reported for the non-catalog sources. Like SuiteTrace,
// they are not part of Suites().
const (
	SuiteKernel = "Kernel"
	SuiteCustom = "Custom"
)

// source is a resolved workload: the labels its Results carry, the
// scope of its warm identity, and a factory returning an independent
// stream at position zero for the given (defaulted) options.
type source struct {
	name, suite string
	scope       string
	stream      func(Options) trace.Stream
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
	return source{
		name: sp.Name, suite: sp.Suite, scope: warmScope(spec),
		stream: func(o Options) trace.Stream { return trace.NewInterleaver(specStreams(sp, o)) },
	}, nil
}

// warmScope is the workload part of a spec's warm identity. A named
// source is scoped by its name; a custom spec by the SHA-256 of its
// JSON, so two different specs never share a snapshot or a lane group.
func warmScope(spec RunSpec) string {
	if spec.Workload == nil {
		return "bench:" + spec.Benchmark
	}
	b, _ := json.Marshal(spec.Workload) // a struct of plain fields always marshals
	sum := sha256.Sum256(b)
	return "custom:" + hex.EncodeToString(sum[:])
}

// benchStream resolves a benchmark name — a catalog entry, a
// "trace:<id>" reference or a "kernel:<name>" — to its source. Trace
// streams read the stored file chunk-at-a-time (bounded memory) and
// loop when shorter than warmup+measure.
func benchStream(bench string, opt Options) (source, error) {
	scope := "bench:" + bench
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
		return source{bench, SuiteTrace, scope, func(Options) trace.Stream { return fr0.Clone() }}, nil
	}
	if name, ok := strings.CutPrefix(bench, KernelPrefix); ok {
		k, ok := kernels.ByName(name)
		if !ok {
			return source{}, fmt.Errorf("d2m: unknown kernel %q (see Kernels())", name)
		}
		return source{k.Name(), SuiteKernel, scope, func(o Options) trace.Stream {
			return trace.NewInterleaver(k.Streams(o.Nodes))
		}}, nil
	}
	sp, ok := workloads.ByName(bench)
	if !ok {
		return source{}, fmt.Errorf("d2m: unknown benchmark %q (see Benchmarks())", bench)
	}
	return source{sp.Name, sp.Suite, scope, func(o Options) trace.Stream {
		return trace.NewInterleaver(specStreams(sp, o))
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
func namedStream(bench string, nodes int) (trace.Stream, error) {
	if nodes < 1 || nodes > 8 {
		return nil, fmt.Errorf("d2m: nodes = %d out of range 1..8", nodes)
	}
	opt := Options{Nodes: nodes}
	src, err := benchStream(bench, opt)
	if err != nil {
		return nil, err
	}
	return src.stream(opt), nil
}

// SuiteOf returns the suite of a benchmark name: the catalog suite,
// SuiteTrace for a stored-trace reference ("trace:<id>"), or
// SuiteKernel for an algorithmic kernel ("kernel:<name>").
func SuiteOf(bench string) (string, bool) {
	if id, ok := traceName(bench); ok {
		if _, ok := TraceByID(id); ok {
			return SuiteTrace, true
		}
		return "", false
	}
	if name, ok := strings.CutPrefix(bench, KernelPrefix); ok {
		if _, ok := kernels.ByName(name); ok {
			return SuiteKernel, true
		}
		return "", false
	}
	sp, ok := workloads.ByName(bench)
	if !ok {
		return "", false
	}
	return sp.Suite, true
}

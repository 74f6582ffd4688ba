package d2m

import (
	"io"

	"d2m/internal/trace"
)

// Analysis characterizes an access stream independently of any cache
// model: access mix, footprints, cross-node sharing, spatial locality,
// and an exact LRU reuse-distance profile. It answers "what is this
// workload like?" before any simulation — the lens the paper's Table IV
// commentary looks through.
type Analysis = trace.Analysis

// AnalyzeBenchmark characterizes n accesses of a named source: a
// catalog benchmark, "kernel:<name>" or "trace:<id>".
func AnalyzeBenchmark(bench string, nodes, n int) (Analysis, error) {
	src, err := namedStream(bench, nodes)
	if err != nil {
		return Analysis{}, err
	}
	return trace.AnalyzeStream(src, n), nil
}

// AnalyzeTrace characterizes an entire recorded binary trace (the
// format RecordTrace writes).
func AnalyzeTrace(r io.Reader) (Analysis, error) {
	tr, err := trace.ReadTrace(r)
	if err != nil {
		return Analysis{}, err
	}
	return trace.AnalyzeReader(tr), nil
}

package d2m

import (
	"bytes"
	"strings"
	"testing"
)

func TestAnalyzeBenchmark(t *testing.T) {
	an, err := AnalyzeBenchmark("tpc-c", 8, 100_000)
	if err != nil {
		t.Fatal(err)
	}
	if an.Accesses != 100_000 || an.Nodes != 8 {
		t.Fatalf("accesses/nodes = %d/%d", an.Accesses, an.Nodes)
	}
	// tpc-c is the paper's instruction-heavy, sharing-heavy database
	// workload; its characterization must reflect that.
	if an.IFetchFrac < 0.5 {
		t.Errorf("tpc-c ifetch fraction %.2f, want instruction-dominated", an.IFetchFrac)
	}
	if an.SharedRgns < 0.2 {
		t.Errorf("tpc-c shared-region fraction %.2f, want substantial", an.SharedRgns)
	}
	if !strings.Contains(an.Render(), "footprint") {
		t.Error("Render missing footprint line")
	}
}

func TestAnalyzeKernelLU(t *testing.T) {
	an, err := AnalyzeBenchmark(KernelPrefix+"lu-inplace", 4, 100_000)
	if err != nil {
		t.Fatal(err)
	}
	// The LU pathology is a mapping problem, not a capacity problem:
	// reuse is tight (nearly everything within 512 lines) even though a
	// power-of-two-indexed cache of that size thrashes on it.
	if an.ReuseCDF[9] < 0.9 {
		t.Errorf("lu reuse within 512 lines = %.2f, want tight reuse", an.ReuseCDF[9])
	}
	if an.Lines < 1000 {
		t.Errorf("lu footprint %d lines, want the whole matrix", an.Lines)
	}
}

func TestAnalyzeErrors(t *testing.T) {
	if _, err := AnalyzeBenchmark("nope", 8, 10); err == nil {
		t.Error("unknown benchmark accepted")
	}
	if _, err := AnalyzeBenchmark("tpc-c", 9, 10); err == nil {
		t.Error("bad node count accepted")
	}
	if _, err := AnalyzeBenchmark(KernelPrefix+"nope", 8, 10); err == nil {
		t.Error("unknown kernel accepted")
	}
	if _, err := AnalyzeBenchmark(KernelPrefix+"bfs", 0, 10); err == nil {
		t.Error("bad node count accepted")
	}
	if _, err := AnalyzeTrace(bytes.NewReader([]byte("not a trace"))); err == nil {
		t.Error("garbage trace accepted")
	}
}

func TestAnalyzeTraceRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	n, err := RecordTrace("fft", 4, 50_000, &buf)
	if err != nil {
		t.Fatal(err)
	}
	if n != 50_000 {
		t.Fatalf("recorded %d accesses", n)
	}
	an, err := AnalyzeTrace(&buf)
	if err != nil {
		t.Fatal(err)
	}
	direct, err := AnalyzeBenchmark("fft", 4, 50_000)
	if err != nil {
		t.Fatal(err)
	}
	if an != direct {
		t.Fatalf("trace analysis differs from direct analysis:\n%+v\n%+v", an, direct)
	}
}

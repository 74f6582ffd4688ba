package main

import (
	"context"
	"testing"

	"d2m"
)

func smallRun(t *testing.T) d2m.Result {
	t.Helper()
	out, err := d2m.Run(context.Background(), d2m.RunSpec{Kind: d2m.D2MNSR, Benchmark: "fft",
		Options: d2m.Options{Nodes: 2, Warmup: 1000, Measure: 2000, Seed: 5}})
	if err != nil {
		t.Fatal(err)
	}
	return out.Result
}

func TestDigestCheckFailsOnOneChangedField(t *testing.T) {
	r := smallRun(t)
	want := []string{resultDigest(r)}
	if failed := checkDigests(want, []engineRun{{idx: 0, digest: resultDigest(r)}}); failed != 0 {
		t.Fatalf("identical result failed the check")
	}
	changed := r
	changed.Cycles++
	if failed := checkDigests(want, []engineRun{{idx: 0, digest: resultDigest(changed)}}); failed != 1 {
		t.Fatalf("a result with Cycles+1 passed the check")
	}
	changed = r
	changed.NodeCycles = append([]uint64(nil), r.NodeCycles...)
	changed.NodeCycles[1]++
	if resultDigest(changed) == want[0] {
		t.Fatal("a changed per-node cycle count kept the digest")
	}
}

func TestCheckDigestsAcrossPasses(t *testing.T) {
	want := make([]string, 2)
	runs := []engineRun{{idx: 0, digest: "a"}, {idx: 1, digest: "b"}, {idx: 0, digest: "a"}, {idx: 1, digest: "c"}}
	if failed := checkDigests(want, runs); failed != 1 {
		t.Fatalf("failed = %d, want the one disagreeing pass", failed)
	}
}

// TestCommittedDigestMatches re-runs one grid entry at the paper's
// default options and compares it with the committed digest.
func TestCommittedDigestMatches(t *testing.T) {
	if testing.Short() {
		t.Skip("runs a full-size simulation")
	}
	df, err := loadDigests()
	if err != nil {
		t.Fatal(err)
	}
	es, err := setupEngine(t.TempDir(), 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	want, ok := df.golden(0, es.labels)
	if !ok {
		t.Fatal("no committed digests for seed 0 over the current grid")
	}
	for _, i := range []int{0, len(es.grid) - 1} { // Base-2L/blackscholes and the trace replay
		out, err := d2m.Run(context.Background(), es.grid[i])
		if err != nil {
			t.Fatal(err)
		}
		if got := resultDigest(out.Result); got != want[i] {
			t.Errorf("%s: digest %s, committed %s", es.labels[i], got, want[i])
		}
	}
}

package main

import (
	"encoding/json"
	"math"
	"reflect"
	"testing"
)

func sequence(seed uint64, client, n int) []op {
	g := newMixGen(seed, client)
	ops := make([]op, n)
	for i := range ops {
		ops[i] = g.next()
	}
	return ops
}

func TestMixDeterministicBySeed(t *testing.T) {
	a, b := sequence(7, 0, 500), sequence(7, 0, 500)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("same seed and client gave different sequences")
	}
	ja, _ := json.Marshal(a)
	for _, other := range [][]op{sequence(8, 0, 500), sequence(7, 1, 500)} {
		jo, _ := json.Marshal(other)
		if string(ja) == string(jo) {
			t.Error("a different seed or client gave the same sequence")
		}
	}
}

func TestMixShares(t *testing.T) {
	want := [numClasses]float64{0.55, 0.15, 0.15, 0.10, 0.05}
	// A run rarely ends on a cycle boundary: check odd lengths too.
	for _, n := range []int{200, 997, 3001} {
		var count [numClasses]int
		for _, o := range sequence(3, 0, n) {
			count[o.Class]++
		}
		for c := opClass(0); c < numClasses; c++ {
			share := float64(count[c]) / float64(n)
			if math.Abs(share-want[c]) > 0.01 {
				t.Errorf("n=%d: %s share %.4f, want %.2f within 1 point", n, c, share, want[c])
			}
		}
	}
}

func TestMixRequestsHitTheirClass(t *testing.T) {
	ops := sequence(11, 0, 2000)
	if ops[0].Class != opCold {
		t.Fatalf("first op is %s, want cold", ops[0].Class)
	}
	seen := map[string]bool{}  // every spec sent so far
	colds := map[string]bool{} // cold specs
	ident := func(o op) string {
		r := o.Runs[0]
		r.LinkBandwidth = 0
		b, _ := json.Marshal(r)
		return string(b)
	}
	key := func(v any) string { b, _ := json.Marshal(v); return string(b) }
	for i, o := range ops {
		switch o.Class {
		case opCold:
			if seen[key(o.Runs[0])] {
				t.Fatalf("op %d: cold run repeats a spec", i)
			}
			colds[key(o.Runs[0])] = true
		case opRepeat:
			if !colds[key(o.Runs[0])] {
				t.Fatalf("op %d: repeat of a spec never run cold", i)
			}
		case opWarm:
			if seen[key(o.Runs[0])] || !colds[ident(o)] {
				t.Fatalf("op %d: warm run is not a new bandwidth on a cold identity", i)
			}
		case opBatch:
			if len(o.Runs) != batchRuns {
				t.Fatalf("op %d: batch of %d", i, len(o.Runs))
			}
			for _, r := range o.Runs[1:] {
				if r.Seed != o.Runs[0].Seed || r.Kind != o.Runs[0].Kind || r.Benchmark != o.Runs[0].Benchmark {
					t.Fatalf("op %d: batch runs do not share a warm identity", i)
				}
			}
		case opSweep:
			cells, err := o.Sweep.SweepSpec.Expand()
			if err != nil || len(cells) != o.results() || o.results() != 16 {
				t.Fatalf("op %d: sweep expands to %d cells (%v)", i, len(cells), err)
			}
		}
		for _, r := range o.Runs {
			seen[key(r)] = true
		}
	}
}

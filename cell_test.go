package d2m

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"testing"
)

// refWarmKey is the warm identity's string form as the package built
// it before CellKey existed. Snapshot caches and the cluster's shard
// ring are keyed by these bytes, so CellKey.String must reproduce them.
func refWarmKey(kind Kind, scope string, opt Options) string {
	opt = opt.withDefaults()
	topo := opt.Topology
	if topo == "" {
		topo = "crossbar"
	}
	place := opt.Placement
	if place == "" {
		place = "pressure"
	}
	return fmt.Sprintf("%s|%s|n%d|w%d|s%d|md%d|b%t|p%t|%s|%s",
		scope, kind, opt.Nodes, opt.Warmup, opt.Seed, opt.MDScale,
		opt.Bypass, opt.Prefetch, topo, place)
}

// refScope is the workload part of the reference warm string: a named
// source's name, or the SHA-256 of a custom spec's JSON.
func refScope(spec RunSpec) string {
	if spec.Workload == nil {
		return "bench:" + spec.Benchmark
	}
	b, _ := json.Marshal(spec.Workload)
	sum := sha256.Sum256(b)
	return "custom:" + hex.EncodeToString(sum[:])
}

// cellInput is one fuzzed cell: a named source, or a custom workload
// named src, and every Options field.
type cellInput struct {
	kind     uint8
	src      string
	custom   bool
	nodes    int
	warmup   int
	measure  int
	seed     uint64
	mdScale  int
	bypass   bool
	prefetch bool
	topo     string
	place    string
	bw       float64
}

func (in cellInput) spec() RunSpec {
	s := RunSpec{Kind: Kind(in.kind), Options: Options{
		Nodes: in.nodes, Warmup: in.warmup, Measure: in.measure, Seed: in.seed,
		MDScale: in.mdScale, Bypass: in.bypass, Prefetch: in.prefetch,
		Topology: in.topo, Placement: in.place, LinkBandwidth: in.bw,
	}}
	if in.custom {
		w := exampleWorkload()
		w.Name = in.src
		s.Workload = &w
	} else {
		s.Benchmark = in.src
	}
	return s
}

// mix returns a with the fields whose mask bit is set taken from b, so
// the fuzzer reaches pairs that differ in a few fields only.
func mix(mask uint16, a, b cellInput) cellInput {
	pick := func(bit int) bool { return mask&(1<<bit) != 0 }
	if pick(0) {
		a.kind = b.kind
	}
	if pick(1) {
		a.src, a.custom = b.src, b.custom
	}
	if pick(2) {
		a.nodes = b.nodes
	}
	if pick(3) {
		a.warmup = b.warmup
	}
	if pick(4) {
		a.measure = b.measure
	}
	if pick(5) {
		a.seed = b.seed
	}
	if pick(6) {
		a.mdScale = b.mdScale
	}
	if pick(7) {
		a.bypass = b.bypass
	}
	if pick(8) {
		a.prefetch = b.prefetch
	}
	if pick(9) {
		a.topo = b.topo
	}
	if pick(10) {
		a.place = b.place
	}
	if pick(11) {
		a.bw = b.bw
	}
	return a
}

// FuzzCellKey checks CellKey against the reference warm string on
// valid cells: String reproduces the reference bytes, two warm
// identities are equal exactly when their reference strings are, and
// two keys are equal exactly when, in addition, their defaulted
// measure windows and link bandwidths are.
func FuzzCellKey(f *testing.F) {
	add := func(mask uint16, a, b cellInput) {
		f.Add(mask,
			a.kind, a.src, a.custom, a.nodes, a.warmup, a.measure, a.seed, a.mdScale, a.bypass, a.prefetch, a.topo, a.place, a.bw,
			b.kind, b.src, b.custom, b.nodes, b.warmup, b.measure, b.seed, b.mdScale, b.bypass, b.prefetch, b.topo, b.place, b.bw)
	}
	tpcc := cellInput{kind: uint8(D2MNSR), src: "tpc-c"}
	explicit := cellInput{kind: uint8(D2MNSR), src: "tpc-c", nodes: 8, warmup: 100_000, measure: 400_000,
		mdScale: 1, topo: "crossbar", place: "pressure"}
	add(0, tpcc, tpcc)
	add(0xffff, tpcc, explicit)
	add(1<<9|1<<10, tpcc, explicit)
	add(1<<4|1<<11, tpcc, cellInput{measure: 2000, bw: 0.05})
	add(1<<1, tpcc, cellInput{src: "tpc-c", custom: true})
	add(0xffff,
		cellInput{kind: uint8(Base3L), src: "kernel:stencil", nodes: 4, seed: 7, mdScale: 2, bypass: true, topo: "ring", place: "local"},
		cellInput{kind: uint8(D2MFS), src: "trace:0123456789abcdef", nodes: 2, warmup: 2000, prefetch: true, topo: "torus", place: "spread", bw: 1.5})
	f.Fuzz(func(t *testing.T, mask uint16,
		kindA uint8, srcA string, customA bool, nodesA, warmupA, measureA int, seedA uint64, mdA int, bypassA, prefetchA bool, topoA, placeA string, bwA float64,
		kindB uint8, srcB string, customB bool, nodesB, warmupB, measureB int, seedB uint64, mdB int, bypassB, prefetchB bool, topoB, placeB string, bwB float64) {
		a := cellInput{kindA, srcA, customA, nodesA, warmupA, measureA, seedA, mdA, bypassA, prefetchA, topoA, placeA, bwA}
		b := mix(mask, a, cellInput{kindB, srcB, customB, nodesB, warmupB, measureB, seedB, mdB, bypassB, prefetchB, topoB, placeB, bwB})
		sa, sb := a.spec(), b.spec()
		if sa.Options.Validate() != nil || sb.Options.Validate() != nil {
			return // keys are only taken of validated options
		}
		ka, kb := sa.Key(), sb.Key()
		ra := refWarmKey(sa.Kind, refScope(sa), sa.Options)
		rb := refWarmKey(sb.Kind, refScope(sb), sb.Options)
		if ka.String() != ra {
			t.Fatalf("String() = %q, reference %q", ka.String(), ra)
		}
		if (ka.Warm() == kb.Warm()) != (ra == rb) {
			t.Fatalf("warm identities equal = %v, reference strings %q and %q", ka.Warm() == kb.Warm(), ra, rb)
		}
		oa, ob := sa.Options.WithDefaults(), sb.Options.WithDefaults()
		if want := ra == rb && oa.Measure == ob.Measure && oa.LinkBandwidth == ob.LinkBandwidth; (ka == kb) != want {
			t.Fatalf("keys equal = %v, want %v for %+v and %+v", ka == kb, want, sa.Options, sb.Options)
		}
	})
}

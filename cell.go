package d2m

import (
	"cmp"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"strconv"
	"strings"
)

// CellKey is the identity of one simulation: everything that decides
// its Result. RunSpec.Key builds it canonically, with the defaults
// applied and "" read as the default topology and placement, so two
// cells run the same simulation exactly when their keys are equal.
// Dedup (DistinctCells, RunCells, Plan.Project) compares whole keys;
// warm snapshots, lane groups and the service's sweep chunking compare
// Warm; sweep baseline pairing (SummarizeSweep) compares keys with the
// kind replaced. String renders the warm identity for the string-keyed
// WarmCache and the cluster's shard ring.
type CellKey struct {
	// The stream: workload scope ("bench:<name>", or "custom:<SHA-256
	// of the spec's JSON>"), nodes, warmup and seed.
	scope         string
	nodes, warmup int
	seed          uint64
	// The machine, besides its node count.
	kind                Kind
	mdScale             int
	bypass, prefetch    bool
	topology, placement string
	// The measure side, applied after the warmup boundary.
	measure       int
	linkBandwidth float64
}

// Key returns the spec's identity. A named source is scoped by its
// name; a custom spec by the SHA-256 of its JSON, so two different
// specs never share a key.
func (s RunSpec) Key() CellKey {
	scope := "bench:" + s.Benchmark
	if s.Workload != nil {
		b, _ := json.Marshal(s.Workload) // a struct of plain fields always marshals
		sum := sha256.Sum256(b)
		scope = "custom:" + hex.EncodeToString(sum[:])
	}
	opt := s.Options.withDefaults()
	return CellKey{scope, opt.Nodes, opt.Warmup, opt.Seed,
		s.Kind, opt.MDScale, opt.Bypass, opt.Prefetch, cmp.Or(opt.Topology, "crossbar"), cmp.Or(opt.Placement, "pressure"),
		opt.Measure, opt.LinkBandwidth}
}

// Key returns the cell's identity.
func (c SweepCell) Key() CellKey {
	return RunSpec{Kind: c.Kind, Benchmark: c.Benchmark, Options: c.Options}.Key()
}

// Warm returns the warm identity, the key without its measure side:
// runs sharing it share a warm snapshot and may run as one lane group.
func (k CellKey) Warm() CellKey {
	k.measure, k.linkBandwidth = 0, 0
	return k
}

// String renders the warm identity, the key's only string form:
// scope|kind|n<nodes>|w<warmup>|s<seed>|md<scale>|b<bypass>|p<prefetch>|topology|placement.
func (k CellKey) String() string {
	return strings.Join([]string{k.scope, k.kind.String(),
		"n" + strconv.Itoa(k.nodes), "w" + strconv.Itoa(k.warmup), "s" + strconv.FormatUint(k.seed, 10),
		"md" + strconv.Itoa(k.mdScale), "b" + strconv.FormatBool(k.bypass), "p" + strconv.FormatBool(k.prefetch),
		k.topology, k.placement}, "|")
}

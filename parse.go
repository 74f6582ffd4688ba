package d2m

import (
	"fmt"
	"math"
	"strings"
)

// This file holds the request-parsing and validation helpers shared by
// every front end (cmd/d2msim, cmd/d2mserver via internal/service,
// library callers): one code path decides what a valid kind, topology,
// placement or Options is.

// KindNames returns the accepted configuration names, in presentation
// order. The list is derived from the mechanism registry, so a newly
// registered mechanism appears here (and everywhere downstream — CLI,
// capabilities document, sweeps) without further wiring.
func KindNames() []string {
	kinds := AllKinds()
	out := make([]string, 0, len(kinds))
	for _, k := range kinds {
		out = append(out, k.String())
	}
	return out
}

// ParseKind parses a configuration name. Matching is case-insensitive
// and dashes are optional, so "d2m-ns-r", "D2M-NS-R" and "d2mnsr" all
// name the same kind.
func ParseKind(s string) (Kind, error) {
	var k Kind
	if err := k.UnmarshalText([]byte(s)); err != nil {
		return 0, fmt.Errorf("d2m: unknown kind %q (want %s)",
			s, strings.Join(KindNames(), ", "))
	}
	return k, nil
}

// Topologies returns the accepted Options.Topology strings. The empty
// string selects the first entry.
func Topologies() []string { return []string{"crossbar", "ring", "mesh", "torus"} }

// Placements returns the accepted Options.Placement strings. The empty
// string selects the first entry.
func Placements() []string { return []string{"pressure", "local", "spread"} }

// WithDefaults returns the options with zero fields replaced by the
// paper's defaults: 8 nodes, 100k warmup, 400k measured accesses,
// MDScale 1. The service's result cache keys on this form. Cells are
// deduplicated by CellKey, which also reads "" as the default topology
// and placement.
func (o Options) WithDefaults() Options { return o.withDefaults() }

// Validate reports whether the options describe a runnable simulation:
// node count in range, a supported MDScale, known topology and
// placement strings, and a finite, non-negative LinkBandwidth. Zero
// fields are defaulted before checking, so the zero Options is valid.
func (o Options) Validate() error {
	o = o.withDefaults()
	if o.Nodes < 1 || o.Nodes > 8 {
		return fmt.Errorf("d2m: Nodes = %d out of range 1..8", o.Nodes)
	}
	if o.Warmup < 0 {
		return fmt.Errorf("d2m: Warmup = %d is negative", o.Warmup)
	}
	if o.Measure < 1 {
		return fmt.Errorf("d2m: Measure = %d, want at least 1", o.Measure)
	}
	if o.MDScale != 1 && o.MDScale != 2 && o.MDScale != 4 {
		return fmt.Errorf("d2m: MDScale = %d, want 1, 2 or 4", o.MDScale)
	}
	if _, err := o.placement(); err != nil {
		return err
	}
	if _, err := o.topology(); err != nil {
		return err
	}
	if !(o.LinkBandwidth >= 0) || math.IsInf(o.LinkBandwidth, 1) {
		return fmt.Errorf("d2m: LinkBandwidth = %v, want a finite value >= 0 (0: unlimited)", o.LinkBandwidth)
	}
	return nil
}

// Package baseline implements the paper's comparison systems (§V-A,
// Figure 4): Base-2L, a two-level hierarchy with per-node L1s and an
// inclusive shared LLC, and Base-3L, which adds a 256kB private L2 per
// node. Both use conventional tagged caches with perfect L1 way
// prediction, TLBs, and a full-map MESI directory co-located with the
// LLC.
//
// The protocol is resolved as atomic transactions, exactly like the D2M
// implementation it is compared against, so that traffic, latency and
// energy accounting are apples-to-apples.
package baseline

import (
	"fmt"

	"d2m/internal/noc"
)

// Config describes a baseline system.
type Config struct {
	// Nodes is the number of cores.
	Nodes int
	// L1Sets and L1Ways give each L1-I/L1-D geometry.
	L1Sets, L1Ways int
	// L2Sets and L2Ways give the per-node L2; zero sets means Base-2L.
	L2Sets, L2Ways int
	// LLCSets and LLCWays give the inclusive shared LLC.
	LLCSets, LLCWays int
	// TLBSets/TLBWays and TLB2Sets/TLB2Ways give the two TLB levels.
	TLBSets, TLBWays   int
	TLB2Sets, TLB2Ways int
	// Topology selects the interconnect model (nil = crossbar).
	Topology noc.Topology
}

// Base2L returns the paper's Base-2L configuration: 32kB 8-way L1s and
// an 8MB 32-way shared LLC.
func Base2L() Config {
	return Config{
		Nodes:  8,
		L1Sets: 64, L1Ways: 8,
		LLCSets: 4096, LLCWays: 32,
		TLBSets: 8, TLBWays: 8, // 64-entry L1 TLB
		TLB2Sets: 128, TLB2Ways: 8, // 1k-entry L2 TLB
	}
}

// Base3L returns the paper's Base-3L configuration: Base-2L plus a 256kB
// 8-way private L2 per core.
func Base3L() Config {
	c := Base2L()
	c.L2Sets, c.L2Ways = 512, 8
	return c
}

// Validate reports whether the configuration is internally consistent.
func (c Config) Validate() error {
	switch {
	case c.Nodes < 1 || c.Nodes > 16:
		return fmt.Errorf("baseline: Nodes = %d, want 1..16", c.Nodes)
	case c.L1Sets <= 0 || c.L1Ways <= 0:
		return fmt.Errorf("baseline: L1 geometry %dx%d invalid", c.L1Sets, c.L1Ways)
	case c.L2Sets < 0 || (c.L2Sets > 0 && c.L2Ways <= 0):
		return fmt.Errorf("baseline: L2 geometry %dx%d invalid", c.L2Sets, c.L2Ways)
	case c.LLCSets <= 0 || c.LLCWays <= 0:
		return fmt.Errorf("baseline: LLC geometry %dx%d invalid", c.LLCSets, c.LLCWays)
	case c.TLBSets <= 0 || c.TLBWays <= 0 || c.TLB2Sets <= 0 || c.TLB2Ways <= 0:
		return fmt.Errorf("baseline: TLB geometry invalid")
	}
	return nil
}

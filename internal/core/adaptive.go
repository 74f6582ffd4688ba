package core

import "d2m/internal/energy"

// Adaptive way repartitioning (the D2M-Adaptive mechanism): each node
// shares a fixed way budget between its L1-D data store and its MD1-D
// metadata table, and an epoch-boundary policy moves one way at a time
// toward whichever side missed more during the elapsed interval. The
// policy mirrors the shared-cache evolve step of Graphite's OCache
// (grow the side under pressure, shrink the other), applied to the
// data-vs-metadata split that is unique to a tag-less hierarchy: a
// metadata-starved node trades L1-D capacity for MD1-D reach and vice
// versa.
//
// Repartitioning is a maintenance action off the critical path: the
// latency of drains is not charged to any access, but every coherence
// side effect (writebacks, MD updates) pays its energy as usual, so
// EDP comparisons against the static kinds stay honest.

// EpochLen returns the system's epoch interval in accesses; <= 0 means
// the sim engine never fires EpochTick. Only the adaptive configuration
// uses epochs today, but the hook is mechanism-neutral.
func (s *System) EpochLen() int {
	if !s.cfg.AdaptiveWays {
		return 0
	}
	if s.cfg.EpochLen > 0 {
		return s.cfg.EpochLen
	}
	return DefaultEpochLen
}

// EpochTick fires at each epoch boundary of the driving engine and
// reconsiders every node's way split.
func (s *System) EpochTick() {
	if !s.cfg.AdaptiveWays {
		return
	}
	for _, n := range s.nodes {
		s.repartitionNode(n)
	}
}

// repartitionNode applies the one-way evolve step: compare the
// interval's data-side and metadata-side miss counts and move a single
// way toward the needier side, bounded by [AdaptiveMinWays,
// AdaptiveMaxWays] per side. Quiet intervals (too few misses to signal
// anything) leave the split alone.
func (s *System) repartitionNode(n *node) {
	dm, mm := n.epochDataMisses, n.epochMDMisses
	n.epochDataMisses, n.epochMDMisses = 0, 0
	if dm+mm < adaptiveMinActivity {
		return
	}
	switch {
	case dm > mm && n.l1dActive < AdaptiveMaxWays && n.md1dActive > AdaptiveMinWays:
		// Data side under pressure: give it a way from MD1-D.
		n.md1dActive--
		s.shrinkMD1D(n)
		n.l1dActive++
		n.l1d.activeWays = n.l1dActive
		s.st.Repartitions++
	case mm > dm && n.md1dActive < AdaptiveMaxWays && n.l1dActive > AdaptiveMinWays:
		// Metadata side under pressure: give it a way from L1-D.
		n.l1dActive--
		n.l1d.activeWays = n.l1dActive
		s.shrinkL1D(n)
		n.md1dActive++
		s.st.Repartitions++
	}
}

// shrinkL1D drains the way that just left the L1-D's active prefix.
// Lines whose metadata points at the drained slot go through the full
// eviction cascade (master handoff, writeback, LI repointing); slots
// the metadata no longer claims are clean-master orphans left behind by
// earlier MD evictions and are coherent to drop silently.
func (s *System) shrinkL1D(n *node) {
	st := n.l1d
	w := n.l1dActive // first inactive way
	t := &txn{}      // maintenance transaction: latency off the critical path
	for set := 0; set < st.tbl.Sets(); set++ {
		sl := st.at(set, w)
		if !sl.valid {
			continue
		}
		line := sl.line
		ent := n.entry(line.Region())
		idx := line.Index()
		if ent != nil && !ent.instrStream && ent.li[idx].Kind == LocL1 && int(ent.li[idx].Way) == w {
			s.evictNodeLine(n, ent, idx, t)
		} else {
			st.drop(set, w)
		}
	}
}

// shrinkMD1D drains the way that just left the MD1-D's active prefix:
// each entry demotes to MD2 (a local flag flip, charged as an MD2
// write), exactly like an ordinary MD1 victim spill.
func (s *System) shrinkMD1D(n *node) {
	md1 := n.md1d
	w := n.md1dActive // first inactive way (already decremented)
	for set := 0; set < md1.Sets(); set++ {
		if !md1.Valid(set, w) {
			continue
		}
		ent := n.md1dEnt[md1.Index(set, w)]
		n.md1Drop(ent)
		s.meter.Do(energy.OpMD2, 1)
	}
}

// md1ActiveWaysFor returns the install-time way bound for the stream's
// MD1: the data table is bounded by the adaptive split, the instruction
// table (and everything outside adaptive mode) uses its full
// associativity (0 = unbounded).
func (n *node) md1ActiveWaysFor(instr bool) int {
	if instr {
		return 0
	}
	return n.md1dActive
}

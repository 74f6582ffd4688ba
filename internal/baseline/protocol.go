package baseline

import (
	"fmt"

	"d2m/internal/cache"
	"d2m/internal/energy"
	"d2m/internal/mem"
	"d2m/internal/noc"
	"d2m/internal/timing"
)

// Result describes one access's outcome.
type Result struct {
	Latency uint64
	L1Hit   bool
}

// pageWalkCycles is the fixed cost of a page-table walk after a TLB2
// miss (both designs walk identically; D2M's MD2 pays TLB2 the same way).
const pageWalkCycles = 60

// l2TagCycles is the L2 tag-compare time: an L2 miss is detected this
// early and the request forwarded; the full timing.L2 applies to hits.
const l2TagCycles = 4

// Access performs one memory access against the baseline hierarchy.
func (s *System) Access(a mem.Access) Result {
	if a.Node < 0 || a.Node >= s.cfg.Nodes {
		panic(fmt.Sprintf("baseline: access from node %d of %d", a.Node, s.cfg.Nodes))
	}
	n := s.nodes[a.Node]
	line := a.Addr.Line()

	s.st.Accesses++
	switch a.Kind {
	case mem.IFetch:
		s.st.Instr++
	case mem.Load:
		s.st.Reads++
	default:
		s.st.Writes++
	}

	lat := s.translate(n, a.Addr)
	l1 := n.l1d
	if a.Kind.IsInstr() {
		l1 = n.l1i
	}

	// L1 lookup: tag search plus one way-predicted data access.
	s.meter.Do(energy.OpL1Tag, 1)
	s.meter.Do(energy.OpL1Data, 1)
	lat += timing.L1
	set, way, ok := l1.lookup(line)
	if ok {
		l1.tbl.Touch(set, way)
		st := l1.stateAt(set, way)
		if a.Kind.IsWrite() && *st == stShared {
			lat += s.upgrade(n, line)
			*st = stModified
			*l1.dirtyAt(set, way) = true
		} else if a.Kind.IsWrite() {
			*st = stModified
			*l1.dirtyAt(set, way) = true
		}
		s.hitMiss(a, true)
		if s.debug {
			s.oracle(a, line)
		}
		return Result{Latency: lat, L1Hit: true}
	}

	// L1 miss: search the L2 (Base-3L), then the LLC. A miss is known
	// after the tag compare; the full L2 latency applies only to hits.
	if n.l2 != nil {
		s.meter.Do(energy.OpL2Tag, 1)
		lat += l2TagCycles
		if set2, way2, ok2 := n.l2.lookup(line); ok2 {
			lat += timing.L2 - l2TagCycles
			s.meter.Do(energy.OpL2Data, 1)
			n.l2.tbl.Touch(set2, way2)
			st2 := *n.l2.stateAt(set2, way2)
			if a.Kind.IsWrite() && st2 == stShared {
				lat += s.upgrade(n, line)
				st2 = stModified
				*n.l2.stateAt(set2, way2) = stModified
			}
			s.st.L2Hits++
			s.fillL1(n, l1, line, st2, a.Kind.IsWrite(), &lat)
			s.hitMiss(a, false)
			s.st.MissCount++
			s.st.MissLatencySum += lat
			if s.debug {
				s.oracle(a, line)
			}
			return Result{Latency: lat, L1Hit: false}
		}
	}

	lat += s.llcAccess(n, l1, line, a.Kind.IsWrite())
	s.hitMiss(a, false)
	s.st.MissCount++
	s.st.MissLatencySum += lat
	if s.debug {
		s.oracle(a, line)
	}
	return Result{Latency: lat, L1Hit: false}
}

// translate charges the TLB hierarchy for the access's page.
func (s *System) translate(n *node, addr mem.Addr) (lat uint64) {
	page := addr.Page()
	s.meter.Do(energy.OpTLB, 1)
	set, way, ok := lookupTable(n.tlb, page)
	if ok {
		n.tlb.Touch(set, way)
		return 0 // overlapped with the L1 access
	}
	s.st.TLBMisses++
	s.meter.Do(energy.OpTLB2, 1)
	lat = timing.TLB2
	set2, way2, ok2 := lookupTable(n.tlb2, page)
	if ok2 {
		n.tlb2.Touch(set2, way2)
	} else {
		s.st.TLB2Misses++
		lat += pageWalkCycles
		s.meter.Do(energy.OpDRAM, 1) // page-table fetch
		v2 := n.tlb2.VictimWay(set2)
		n.tlb2.Put(set2, v2, page)
	}
	v := n.tlb.VictimWay(set)
	n.tlb.Put(set, v, page)
	return lat
}

func lookupTable(t *cache.Table, key uint64) (set, way int, ok bool) {
	set = t.SetFor(key)
	way, ok = t.Lookup(set, key)
	return set, way, ok
}

// hitMiss updates the L1 hit/miss demographics.
func (s *System) hitMiss(a mem.Access, hit bool) {
	switch {
	case a.Kind.IsInstr() && hit:
		s.st.L1IHits++
	case a.Kind.IsInstr():
		s.st.L1IMisses++
	case hit:
		s.st.L1DHits++
	default:
		s.st.L1DMisses++
	}
}

// upgrade performs an S->M upgrade through the directory: invalidate
// every other sharer.
func (s *System) upgrade(n *node, line mem.LineAddr) (lat uint64) {
	s.st.Upgrades++
	lat += s.fab.SendEP(noc.NodeEP(n.id), noc.DirEP, noc.Ctrl, noc.Base) // UpgradeReq
	s.fab.SendEP(noc.DirEP, noc.Hub, noc.Ctrl, noc.Base)                 // directory/LLC exchange
	s.meter.Do(energy.OpDir, 1)
	s.st.DirLookups++
	lat += timing.Dir
	set := s.llc.SetFor(uint64(line))
	way, ok := s.llc.Lookup(set, uint64(line))
	if !ok {
		// Inclusion guarantees an LLC entry for any cached line.
		panic(fmt.Sprintf("baseline: upgrade for uncached line %v", line))
	}
	d := s.dirAt(set, way)
	s.invalidateSharers(d, line, n.id)
	d.sharers = 1 << uint(n.id)
	d.owner = int8(n.id)
	lat += noc.TraversalCycles * 2 // Inv/Ack round trip
	return lat
}

// invalidateSharers sends invalidations to every sharer except keep and
// drops their copies. Stale sharer bits (left by silent clean evictions)
// still cost an invalidation message, as in real full-map directories.
func (s *System) invalidateSharers(d *dirEntry, line mem.LineAddr, keep int) {
	for id := 0; id < s.cfg.Nodes; id++ {
		if id == keep || d.sharers&(1<<uint(id)) == 0 {
			continue
		}
		s.fab.SendEP(noc.DirEP, noc.NodeEP(id), noc.Ctrl, noc.Base)        // Inv
		s.fab.SendEP(noc.NodeEP(id), noc.NodeEP(keep), noc.Ctrl, noc.Base) // Ack
		s.st.InvRecv++
		s.dropNodeCopies(s.nodes[id], line)
	}
	d.sharers &= 1 << uint(keep)
	if d.owner != int8(keep) {
		d.owner = -1
	}
}

// dropNodeCopies removes the line from every level of a node.
func (s *System) dropNodeCopies(n *node, line mem.LineAddr) {
	for _, c := range []*nodeCache{n.l1i, n.l1d, n.l2} {
		if c == nil {
			continue
		}
		if set, way, ok := c.lookup(line); ok {
			c.drop(set, way)
			s.meter.Do(energy.OpL1Tag, 1)
		}
	}
}

// llcAccess handles an access that missed the node's private levels.
func (s *System) llcAccess(n *node, l1 *nodeCache, line mem.LineAddr, write bool) (lat uint64) {
	lat += s.fab.SendEP(noc.NodeEP(n.id), noc.Hub, noc.Ctrl, noc.Base) // request
	s.meter.Do(energy.OpLLCTag, 1)
	s.meter.Do(energy.OpDir, 1)
	s.st.DirLookups++
	lat += timing.LLCTag + timing.Dir
	// The directory is a separate structure on the interconnect
	// (Figure 4): the LLC controller exchanges a lookup/response pair
	// with it for every shared-level access.
	s.fab.SendEP(noc.Hub, noc.DirEP, noc.Ctrl, noc.Base)
	s.fab.SendEP(noc.DirEP, noc.Hub, noc.Ctrl, noc.Base)

	set := s.llc.SetFor(uint64(line))
	way, ok := s.llc.Lookup(set, uint64(line))
	if !ok {
		// LLC miss: fetch from memory, allocate (inclusive), install.
		s.st.LLCMisses++
		s.meter.Do(energy.OpDRAM, 1)
		lat += timing.DRAM
		s.st.DRAMReads++
		way = s.evictLLCVictim(set)
		s.llc.Put(set, way, uint64(line))
		d := s.dirAt(set, way)
		*d = dirEntry{sharers: 1 << uint(n.id), owner: int8(n.id)}
		if s.debug {
			s.verLine[line] = s.verMem[line]
		}
		st := stExclusive
		if write {
			st = stModified
			d.dirty = true
		}
		lat += s.fab.SendEP(noc.Hub, noc.NodeEP(n.id), noc.Data, noc.Base)
		s.fillL2(n, line, st, &lat)
		s.fillL1(n, l1, line, st, write, &lat)
		return lat
	}

	// LLC hit.
	s.llc.Touch(set, way)
	s.st.LLCHits++
	d := s.dirAt(set, way)

	if d.owner >= 0 && int(d.owner) != n.id {
		// The line is E/M in another node: forward through it.
		s.st.Fwd++
		lat += s.fab.SendEP(noc.DirEP, noc.NodeEP(int(d.owner)), noc.Ctrl, noc.Base) // Fwd
		owner := s.nodes[d.owner]
		s.meter.Do(energy.OpL1Tag, 1)
		lat += timing.L1
		ownerDirty := s.ownerHasDirty(owner, line)
		if ownerDirty {
			d.dirty = true // dirty data folded back into the LLC
			s.meter.Do(energy.OpLLCData, 1)
		}
		if write {
			s.dropNodeCopies(owner, line)
			d.sharers &^= 1 << uint(d.owner)
		} else {
			s.downgradeOwner(owner, line)
		}
		lat += s.fab.SendEP(noc.NodeEP(int(d.owner)), noc.NodeEP(n.id), noc.Data, noc.Base) // owner -> requester
		d.owner = -1
	} else {
		s.meter.Do(energy.OpLLCData, 1)
		lat += timing.LLCData
		lat += s.fab.SendEP(noc.Hub, noc.NodeEP(n.id), noc.Data, noc.Base)
	}

	var st state
	if write {
		s.invalidateSharers(d, line, n.id)
		d.sharers = 1 << uint(n.id)
		d.owner = int8(n.id)
		d.dirty = true
		st = stModified
	} else {
		d.sharers |= 1 << uint(n.id)
		if d.sharers == 1<<uint(n.id) && d.owner < 0 {
			d.owner = int8(n.id)
			st = stExclusive
		} else {
			st = stShared
		}
	}
	s.fillL2(n, line, st, &lat)
	s.fillL1(n, l1, line, st, write, &lat)
	return lat
}

// ownerHasDirty reports whether the owner holds the line modified.
func (s *System) ownerHasDirty(owner *node, line mem.LineAddr) bool {
	for _, c := range []*nodeCache{owner.l1i, owner.l1d, owner.l2} {
		if c == nil {
			continue
		}
		if set, way, ok := c.lookup(line); ok && *c.stateAt(set, way) == stModified {
			return true
		}
	}
	return false
}

// downgradeOwner moves the owner's copy to Shared.
func (s *System) downgradeOwner(owner *node, line mem.LineAddr) {
	for _, c := range []*nodeCache{owner.l1i, owner.l1d, owner.l2} {
		if c == nil {
			continue
		}
		if set, way, ok := c.lookup(line); ok {
			*c.stateAt(set, way) = stShared
			*c.dirtyAt(set, way) = false
		}
	}
}

// fillL2 installs the line into the node's L2 (Base-3L), evicting a
// victim with inclusion back-invalidation of the L1s.
func (s *System) fillL2(n *node, line mem.LineAddr, st state, lat *uint64) {
	if n.l2 == nil {
		return
	}
	set := n.l2.tbl.SetFor(uint64(line))
	if _, ok := n.l2.tbl.Lookup(set, uint64(line)); ok {
		return
	}
	way := n.l2.tbl.VictimWay(set)
	if n.l2.tbl.Valid(set, way) {
		s.evictNodeLine(n, n.l2, set, way, true, lat)
	}
	s.meter.Do(energy.OpL2Data, 1)
	n.l2.tbl.Put(set, way, uint64(line))
	*n.l2.stateAt(set, way) = st
	*n.l2.dirtyAt(set, way) = st == stModified
}

// fillL1 installs the line into the L1.
func (s *System) fillL1(n *node, l1 *nodeCache, line mem.LineAddr, st state, write bool, lat *uint64) {
	set := l1.tbl.SetFor(uint64(line))
	way, ok := l1.tbl.Lookup(set, uint64(line))
	if !ok {
		way = l1.tbl.VictimWay(set)
		if l1.tbl.Valid(set, way) {
			s.evictNodeLine(n, l1, set, way, false, lat)
		}
	}
	s.meter.Do(energy.OpL1Data, 1)
	l1.tbl.Put(set, way, uint64(line))
	if write {
		st = stModified
	}
	*l1.stateAt(set, way) = st
	*l1.dirtyAt(set, way) = st == stModified && write
	if st == stModified {
		*l1.dirtyAt(set, way) = true
	}
}

// evictNodeLine evicts a line from a node cache level. Dirty data is
// written back into the (inclusive) LLC; an L2 eviction back-invalidates
// the L1 copies first.
func (s *System) evictNodeLine(n *node, c *nodeCache, set, way int, isL2 bool, lat *uint64) {
	key, _ := c.tbl.KeyAt(set, way)
	line := mem.LineAddr(key)
	dirty := *c.dirtyAt(set, way)
	st := *c.stateAt(set, way)
	if isL2 {
		// Inclusion: the L1s may hold the line too.
		for _, l1 := range []*nodeCache{n.l1i, n.l1d} {
			if s1, w1, ok := l1.lookup(line); ok {
				dirty = dirty || *l1.dirtyAt(s1, w1)
				s.st.BackInv++
				l1.drop(s1, w1)
				s.meter.Do(energy.OpL1Tag, 1)
			}
		}
	}
	c.drop(set, way)

	llcSet := s.llc.SetFor(uint64(line))
	llcWay, ok := s.llc.Lookup(llcSet, uint64(line))
	if !ok {
		panic(fmt.Sprintf("baseline: inclusion violated, %v not in LLC on eviction", line))
	}
	d := s.dirAt(llcSet, llcWay)
	if dirty {
		*lat += s.fab.SendEP(noc.NodeEP(n.id), noc.Hub, noc.Data, noc.Base) // writeback
		s.meter.Do(energy.OpLLCData, 1)
		d.dirty = true
	}
	if !isL2 && n.l2 != nil {
		// The L2 still holds the line (inclusive within the node); the
		// directory state is unchanged.
		if s2, w2, ok2 := n.l2.lookup(line); ok2 {
			if dirty {
				*n.l2.dirtyAt(s2, w2) = true
				*n.l2.stateAt(s2, w2) = stModified
			}
			return
		}
	}
	// The node no longer holds the line anywhere.
	d.sharers &^= 1 << uint(n.id)
	if d.owner == int8(n.id) {
		d.owner = -1
		if st == stExclusive || st == stModified {
			s.fab.SendEP(noc.NodeEP(n.id), noc.DirEP, noc.Ctrl, noc.Base) // ownership release notice
		}
	}
	_ = st
}

// evictLLCVictim frees a way in an LLC set, back-invalidating every
// holder (inclusive LLC) and writing dirty data to memory.
func (s *System) evictLLCVictim(set int) int {
	way := s.llc.VictimWay(set)
	if !s.llc.Valid(set, way) {
		return way
	}
	key, _ := s.llc.KeyAt(set, way)
	line := mem.LineAddr(key)
	d := s.dirAt(set, way)
	dirty := d.dirty
	for id := 0; id < s.cfg.Nodes; id++ {
		if d.sharers&(1<<uint(id)) == 0 {
			continue
		}
		n := s.nodes[id]
		// Recall dirty data before the back-invalidation.
		if s.ownerHasDirty(n, line) {
			dirty = true
			s.fab.SendEP(noc.NodeEP(id), noc.Hub, noc.Data, noc.Base)
		}
		s.fab.SendEP(noc.Hub, noc.NodeEP(id), noc.Ctrl, noc.Base) // back-invalidation
		s.st.BackInv++
		s.st.InvRecv++
		s.dropNodeCopies(n, line)
	}
	if dirty {
		s.meter.Do(energy.OpDRAM, 1)
		s.st.DRAMWrites++
		if s.debug {
			s.verMem[line] = s.verLine[line]
		}
	}
	*d = dirEntry{owner: -1}
	s.llc.Invalidate(set, way)
	if s.debug {
		delete(s.verLine, line)
	}
	return way
}

// oracle verifies (under the coherence debug mode) that the access
// observed the latest write. It is not inlined, so the per-access call
// sites test s.debug themselves and pay no call when debugging is off. The inclusive LLC funnels all cached data,
// so one version per line suffices: it lives in verLine while the line
// is cached and in verMem otherwise.
func (s *System) oracle(a mem.Access, line mem.LineAddr) {
	if !s.debug {
		return
	}
	if a.Kind.IsWrite() {
		s.verSeq++
		s.verLine[line] = s.verSeq
		s.verLatest[line] = s.verSeq
		return
	}
	got, cached := s.verLine[line]
	if !cached {
		got = s.verMem[line]
	}
	if want := s.verLatest[line]; got != want {
		panic(fmt.Sprintf("baseline: coherence violation: %v read version %d of %v, latest write is %d",
			a, got, line, want))
	}
}

package core

import (
	"fmt"

	"d2m/internal/energy"
	"d2m/internal/mem"
	"d2m/internal/noc"
	"d2m/internal/timing"
)

// Result describes one access's outcome, consumed by the simulation
// engine's timing model.
type Result struct {
	// Latency is the access's critical-path latency in cycles,
	// excluding what the core pipeline hides for L1 hits.
	Latency uint64
	// L1Hit reports whether the line was present in the L1.
	L1Hit bool
	// Instr reports whether this was an instruction fetch.
	Instr bool
	// Write reports whether this was a store.
	Write bool
}

// Access performs one memory access against the split hierarchy,
// resolving it as a single atomic region transaction (the MD3 blocking
// mechanism guarantees one outstanding transaction per region, which is
// what makes this serialization faithful).
func (s *System) Access(a mem.Access) Result {
	if a.Node < 0 || a.Node >= s.cfg.Nodes {
		panic(fmt.Sprintf("core: access from node %d of %d", a.Node, s.cfg.Nodes))
	}
	s.tickEpoch()
	n := s.nodes[a.Node]
	line := a.Addr.Line()
	r := line.Region()
	idx := line.Index()

	s.st.Accesses++
	switch a.Kind {
	case mem.IFetch:
		s.st.Instr++
	case mem.Load:
		s.st.Reads++
	default:
		s.st.Writes++
	}

	t := &txn{}
	s.bypassServed = false
	instr := a.Kind.IsInstr()
	ent, lvl := s.lookupMD(n, instr, r, t)
	indirect := false
	if ent == nil {
		ent = s.mdMiss(n, instr, r, t)
		indirect = true
	}
	li := ent.li[idx]
	if lvl == mdHitMD1 {
		switch li.Kind {
		case LocL1:
			s.st.MD1CoverL1++
		case LocL2:
			s.st.MD1CoverL2++
		case LocLLC:
			s.st.MD1CoverLLC++
		case LocMem:
			s.st.MD1CoverMem++
		}
	}
	ent.noteTouch()
	if s.cfg.TraditionalL1 && lvl == mdHitMD2 && li.Kind != LocL1 {
		// Hybrid front-end (§III-A): the miss consults MD2 (with its
		// TLB2 translation) to obtain the direct-to-master location.
		s.meter.Do(energy.OpTLB2, 1)
		s.meter.Do(energy.OpMD2, 1)
		t.add(timing.TLB2 + timing.MD2)
	}

	// Level prediction (D2M-LevelPred): consult the predictor and mark
	// the metadata walk's latency; the speculation settles after the
	// dispatch below, when the serving level is known.
	mdLat := t.lat
	predIdx, predicted, predValid := 0, LocInvalid, false
	if n.pred != nil {
		predIdx = n.predSlot(r)
		if v := n.pred[predIdx]; v != 0 {
			predicted, predValid = LocKind(v-1), true
		}
	}

	var hit bool
	if a.Kind.IsWrite() {
		var ind bool
		hit, ind = s.write(n, ent, idx, line, t)
		indirect = indirect || ind
	} else {
		var ind bool
		hit, ind = s.read(n, ent, idx, line, li, instr, t)
		indirect = indirect || ind
	}
	if s.verMem != nil {
		s.oracleCheck(n, ent, idx, line, a.Kind.IsWrite())
	}
	if s.cfg.Prefetch && !hit && !a.Kind.IsWrite() && !s.bypassServed && !s.inPrefetch {
		s.prefetchNext(n, ent, idx, instr)
	}
	if s.cfg.AdaptiveWays && !instr {
		// Interval counters for the epoch repartitioning policy: a
		// data-stream MD1 miss signals metadata pressure, a data-stream
		// L1 miss signals data pressure.
		if lvl != mdHitMD1 {
			n.epochMDMisses++
		}
		if !hit {
			n.epochDataMisses++
		}
	}
	if n.pred != nil {
		s.levelPredResolve(n, predIdx, predicted, predValid, li, mdLat, t)
	}

	if hit {
		if instr {
			s.st.L1IHits++
		} else {
			s.st.L1DHits++
		}
	} else {
		if instr {
			s.st.L1IMisses++
		} else {
			s.st.L1DMisses++
		}
		s.st.MissCount++
		s.st.MissLatencySum += t.lat
		if ent.private {
			s.st.PrivateMisses++
		} else {
			s.st.SharedMisses++
		}
		if indirect {
			s.st.IndirectMisses++
		} else {
			s.st.DirectMisses++
		}
	}
	return Result{Latency: t.lat, L1Hit: hit, Instr: instr, Write: a.Kind.IsWrite()}
}

// verOf returns the oracle version of the data sl holds, 0 when the
// oracle is off. Read a slot's version before dropping the slot: an
// install overwrites it.
func (s *System) verOf(sl *slot) uint64 {
	if s.vers == nil {
		return 0
	}
	return s.vers[sl]
}

// setVer records v as the oracle version of the data sl holds; a no-op
// when the oracle is off. Every install sets its slot's version.
func (s *System) setVer(sl *slot, v uint64) {
	if s.vers != nil {
		s.vers[sl] = v
	}
}

// oracleCheck runs under Config.CoherenceDebug after every access. Every
// access leaves the line in the L1, so the final slot is inspected: a
// write stamps a fresh global version; a read must observe the version of
// the latest write (or 0 for never-written lines) — the memory-consistency
// statement the protocol must uphold.
func (s *System) oracleCheck(n *node, ent *nodeRegion, idx int, line mem.LineAddr, write bool) {
	if s.bypassServed {
		// Bypassed read: the data went straight to the core; the staged
		// transfer version is what it observed.
		if want := s.verLatest[line]; s.xfer != want {
			panic(fmt.Sprintf("core: coherence violation on bypassed read: node %d saw version %d of %v, latest write is %d",
				n.id, s.xfer, line, want))
		}
		return
	}
	if ent.li[idx].Kind != LocL1 {
		panic(fmt.Sprintf("core: access to %v left LI at %v, want L1", line, ent.li[idx]))
	}
	_, _, sl := n.localSlot(ent, idx)
	if write {
		s.verSeq++
		s.setVer(sl, s.verSeq)
		s.verLatest[line] = s.verSeq
		return
	}
	if got, want := s.verOf(sl), s.verLatest[line]; got != want {
		panic(fmt.Sprintf("core: coherence violation: node %d read version %d of %v, latest write is %d",
			n.id, got, line, want))
	}
}

// ensureStream makes region ent's L1-resident lines live in the L1 array
// matching the access stream, force-evicting them from the other array on
// a stream switch (regions are overwhelmingly single-stream; this keeps
// the single-LI-per-line invariant on the rare mixed region).
func (s *System) ensureStream(n *node, ent *nodeRegion, instr bool, t *txn) {
	if ent.instrStream == instr {
		return
	}
	for idx := range ent.li {
		if ent.li[idx].Kind == LocL1 {
			s.evictNodeLine(n, ent, idx, t)
		}
	}
	ent.instrStream = instr
}

// installL1 places line into node n's stream-matching L1 and points the
// region LI at it.
func (s *System) installL1(n *node, ent *nodeRegion, idx int, line mem.LineAddr, instr, master, dirty, excl bool, rp Location, t *txn) {
	s.ensureStream(n, ent, instr, t)
	st := n.l1d
	if instr {
		st = n.l1i
	}
	set := st.setFor(line, ent.scramble)
	way := s.freeWay(n, st, set, t)
	// The eviction cascade freeWay just ran may have reclaimed the LLC
	// slot a replica RP (captured before the cascade) points at. Degrade
	// the RP to the staged master location if one is known (it may hold
	// dirty data memory lacks), and to memory otherwise (a reclaimed
	// master always writes back first, so memory is then coherent).
	if checked := s.validateRP(line, ent.scramble, rp); checked != rp {
		rp = s.validateRP(line, ent.scramble, s.rpFallback)
	}
	s.rpFallback = Mem()
	s.meter.Do(st.op, 1)
	s.setVer(st.install(set, way, line, master, dirty, excl, rp), s.xfer)
	ent.noteInstall()
	ent.li[idx] = InL1(way)
}

// validateRP checks that a concrete LLC Replacement Pointer still names
// a slot holding line, degrading to memory when the slot was reclaimed
// by a concurrent eviction cascade.
func (s *System) validateRP(line mem.LineAddr, scramble uint64, rp Location) Location {
	if rp.Kind != LocLLC || rp.Way == WayUnresolved {
		return rp
	}
	st := s.llcStore(rp)
	sl := st.at(st.setFor(line, scramble), int(rp.Way))
	if !sl.valid || sl.line != line {
		return Mem()
	}
	return rp
}

// read services a load or instruction fetch given the node's region
// metadata and the line's LI (li must be ent.li[idx] as of the call —
// callers that already loaded it pass it through). It returns whether
// the L1 held the line and whether the access needed an MD3
// indirection.
func (s *System) read(n *node, ent *nodeRegion, idx int, line mem.LineAddr, li Location, instr bool, t *txn) (hit, indirect bool) {
	switch li.Kind {
	case LocL1:
		if ent.instrStream != instr {
			// Stream switch: refetch through the normal path (the
			// eviction may have moved the line, so reload the LI).
			s.ensureStream(n, ent, instr, t)
			return s.read(n, ent, idx, line, ent.li[idx], instr, t)
		}
		st, i, sl := n.localSlotI(ent, idx)
		st.tbl.TouchSlot(i)
		s.meter.Do(st.op, 1)
		t.add(st.lat)
		if sl.prefetched {
			sl.prefetched = false
			s.st.PrefetchUseful++
		}
		return true, false

	case LocL2:
		// Move the line up into the L1 (the node shuffles its own
		// levels without telling anyone, §III-A).
		st, set, sl := n.localSlot(ent, idx)
		s.meter.Do(st.op, 1)
		t.add(st.lat)
		cp, ver := *sl, s.verOf(sl)
		st.drop(set, int(li.Way))
		s.st.L2Hits++
		s.xfer = ver
		s.installL1(n, ent, idx, line, instr, cp.master, cp.dirty, cp.excl, cp.rp, t)
		return false, false

	case LocLLC:
		if s.shouldBypass(ent, instr) {
			s.bypassReadLLC(n, ent, idx, line, instr, li, t)
			s.st.EvALLC++
			return false, false
		}
		s.readFromLLC(n, ent, idx, line, instr, li, t)
		s.st.EvALLC++
		return false, false

	case LocNode:
		ind := s.readFromNode(n, ent, idx, line, instr, int(li.Node), t, 0)
		s.st.EvANode++
		return false, ind

	case LocMem:
		if s.shouldBypass(ent, instr) {
			s.bypassReadMem(n, ent, idx, line, instr, t)
			s.st.EvAMem++
			return false, false
		}
		s.readFromMem(n, ent, idx, line, instr, t)
		s.st.EvAMem++
		return false, false

	default:
		panic(fmt.Sprintf("core: read with LI %v", li))
	}
}

// readFromLLC performs a direct read of an LLC location the metadata
// guarantees valid, installs an L1 replica, and applies the replication
// heuristic for remote near-side hits.
func (s *System) readFromLLC(n *node, ent *nodeRegion, idx int, line mem.LineAddr, instr bool, li Location, t *txn) {
	st := s.llcStore(li)
	set := st.setFor(line, ent.scramble)
	sl := st.get(set, int(li.Way), line)
	local := s.llcIsLocal(li, n.id)
	s.meter.Do(st.op, 1)
	if local {
		t.add(st.lat)
	} else {
		t.add(s.sendLLC(n.id, li, noc.Ctrl, noc.Base)) // direct read request
		t.add(st.lat)
		t.add(s.sendLLC(n.id, li, noc.Data, noc.Base)) // data reply
	}
	st.touch(set, int(li.Way))
	s.st.LLCHits++
	switch {
	case instr && local:
		s.st.LLCLocalHitsI++
	case instr:
		s.st.LLCRemoteHitsI++
	case local:
		s.st.LLCLocalHitsD++
	default:
		s.st.LLCRemoteHitsD++
	}

	rp := li // the L1 replica's RP names the copy it was read from
	ver := s.verOf(sl)
	s.xfer = ver
	// Stage the true master location as the RP degradation fallback.
	if sl.master {
		s.rpFallback = li
	} else {
		s.rpFallback = sl.rp
	}
	if !local && s.shouldReplicate(instr, st, set, int(li.Way)) {
		// §IV-C: replicate into the local slice; the L1 replica then
		// chains to the local replica, which chains to the master.
		masterLoc := li
		if !sl.master {
			masterLoc = sl.rp
		}
		rp = s.llcInstallReplica(n.id, line, ent, masterLoc, ver, t)
		s.st.Replications++
	}
	s.xfer = ver
	s.installL1(n, ent, idx, line, instr, false, false, false, rp, t)
}

// prefetchNext brings the region's next line into the L1 off the
// critical path when the metadata already knows a concrete location for
// it (an LLC slot or memory). The traffic and energy are charged; no
// latency is, since the demand access has already completed.
func (s *System) prefetchNext(n *node, ent *nodeRegion, idx int, instr bool) {
	next := idx + 1
	if next >= mem.LinesPerRegion {
		return
	}
	li := ent.li[next]
	if li.Kind != LocLLC && li.Kind != LocMem {
		return
	}
	s.inPrefetch = true
	defer func() { s.inPrefetch = false }()
	line := ent.region.Line(next)
	pt := &txn{} // prefetch latency is off the critical path
	s.read(n, ent, next, line, li, instr, pt)
	s.st.PrefetchIssued++
	if ent.li[next].Kind == LocL1 {
		_, _, sl := n.localSlot(ent, next)
		sl.prefetched = true
	}
}

// shouldBypass decides whether a data read of a streaming region skips
// L1 allocation. Instructions and writes never bypass.
func (s *System) shouldBypass(ent *nodeRegion, instr bool) bool {
	return s.cfg.CacheBypass && !s.inPrefetch && !instr && ent.streaming()
}

// bypassReadLLC serves a read directly from an LLC location without
// allocating in the L1: the LI keeps naming the LLC slot, so a re-touch
// (rare, by the predictor) hits the LLC again.
func (s *System) bypassReadLLC(n *node, ent *nodeRegion, idx int, line mem.LineAddr, instr bool, li Location, t *txn) {
	st := s.llcStore(li)
	set := st.setFor(line, ent.scramble)
	sl := st.get(set, int(li.Way), line)
	local := s.llcIsLocal(li, n.id)
	s.meter.Do(st.op, 1)
	if local {
		t.add(st.lat)
	} else {
		t.add(s.sendLLC(n.id, li, noc.Ctrl, noc.Base))
		t.add(st.lat)
		t.add(s.sendLLC(n.id, li, noc.Data, noc.Base))
	}
	st.touch(set, int(li.Way))
	s.st.LLCHits++
	if local {
		s.st.LLCLocalHitsD++
	} else {
		s.st.LLCRemoteHitsD++
	}
	s.st.BypassedReads++
	s.xfer = s.verOf(sl)
	s.bypassServed = true
}

// bypassReadMem serves a read from memory and allocates the line at the
// LLC level only (classic install-at-LLC bypass): the core gets the
// data, the LI points at the new LLC slot, and the L1 stays unpolluted.
func (s *System) bypassReadMem(n *node, ent *nodeRegion, idx int, line mem.LineAddr, instr bool, t *txn) {
	t.add(s.sendHub(n.id, noc.Ctrl, noc.Base))
	s.meter.Do(energy.OpDRAM, 1)
	t.add(timing.DRAM)
	t.add(s.sendHub(n.id, noc.Data, noc.Base))
	s.st.DRAMReads++
	ver := uint64(0)
	if s.verMem != nil {
		ver = s.verMem[line]
	}
	// Install at the LLC level. For a near-side system the line lands in
	// the reader's slice (one NoC transfer from the memory controller);
	// the far-side monolith is co-located with it. fromNode is the
	// memory side, so pass an id that never matches a slice.
	slice := s.chooseSlice(n.id)
	loc := s.llcInstall(slice, line, ent.region, ent.scramble, true, false, Mem(), -1, ver, t)
	ent.li[idx] = loc
	if !ent.private {
		s.fab.SendEP(s.llcEP(loc), noc.Hub, noc.Ctrl, noc.D2MOnly)
		s.meter.Do(energy.OpMD3, 1)
		if d := s.md3Probe(ent.region); d != nil {
			d.li[idx] = loc
		}
	}
	s.st.BypassedReads++
	s.xfer = ver
	s.bypassServed = true
}

// llcInstallReplica installs a replica of line into node's own slice.
func (s *System) llcInstallReplica(nodeID int, line mem.LineAddr, ent *nodeRegion, masterLoc Location, ver uint64, t *txn) Location {
	st := s.slices[nodeID]
	set := st.setFor(line, ent.scramble)
	way := st.victimWay(set, func(v *slot) int {
		if !v.master {
			return 3
		}
		if !v.dirty {
			return 2
		}
		return 0
	})
	if st.at(set, way).valid {
		s.llcEvictSlot(st, nodeID, set, way, t)
		s.notePressure(nodeID)
	}
	s.meter.Do(st.op, 1)
	s.setVer(st.install(set, way, line, false, false, false, masterLoc), ver)
	return InSlice(nodeID, way)
}

// readFromMem fetches the line from memory. The reader becomes the
// master (E for private regions, F-like clean forwarder for shared
// regions, in which case MD3 is informed off the critical path so the
// shared metadata keeps naming a valid master).
func (s *System) readFromMem(n *node, ent *nodeRegion, idx int, line mem.LineAddr, instr bool, t *txn) {
	t.add(s.sendHub(n.id, noc.Ctrl, noc.Base))
	s.meter.Do(energy.OpDRAM, 1)
	t.add(timing.DRAM)
	t.add(s.sendHub(n.id, noc.Data, noc.Base))
	s.st.DRAMReads++
	if s.verMem != nil {
		s.xfer = s.verMem[line]
	}
	if ent.private {
		s.installL1(n, ent, idx, line, instr, true, false, true, s.allocRP(n.id), t)
		return
	}
	// Shared region: MD3 must keep naming a valid master. If MD3 already
	// tracks one (our Mem LI was stale — legal only while every copy is
	// clean, so the memory data just read is coherent), adopt it rather
	// than sever it; otherwise we become the clean master (F) and MD3
	// learns our NodeID, off the critical path.
	s.sendHub(n.id, noc.Ctrl, noc.D2MOnly)
	s.meter.Do(energy.OpMD3, 1)
	d := s.md3Probe(ent.region)
	if d != nil {
		switch cur := d.li[idx]; {
		case cur.Kind == LocLLC && cur.Way != WayUnresolved:
			rp := cur
			if s.cfg.Replication && instr && !s.llcIsLocal(cur, n.id) {
				rp = s.llcInstallReplica(n.id, line, ent, cur, s.xfer, t)
				s.st.Replications++
			}
			s.installL1(n, ent, idx, line, instr, false, false, false, rp, t)
			return
		case cur.Kind == LocNode && int(cur.Node) != n.id:
			rp := cur
			if s.cfg.Replication && instr {
				rp = s.llcInstallReplica(n.id, line, ent, cur, s.xfer, t)
				s.st.Replications++
			}
			s.installL1(n, ent, idx, line, instr, false, false, false, rp, t)
			return
		default:
			d.li[idx] = InNode(n.id)
		}
	}
	s.installL1(n, ent, idx, line, instr, true, false, false, s.allocRP(n.id), t)
}

// readFromNode reads a line whose master is tracked in a remote node:
// the request goes directly to that node, whose own metadata locates the
// line (one MD2 — and possibly MD1 — lookup there). Stale pointers are
// chased (Redirect) and dead ones fall back to MD3 (Nack). depth is the
// shared budget of the mutual recursion with serveConcrete — see
// maxChase.
func (s *System) readFromNode(n *node, ent *nodeRegion, idx int, line mem.LineAddr, instr bool, target int, t *txn, depth int) (indirect bool) {
	r := ent.region
	for hop := 0; hop <= 2*s.cfg.Nodes; hop++ {
		if target == n.id {
			// A self-pointer is stale by construction; resolve via MD3.
			loc, ind := s.md3Resolve(n, r, idx, t)
			indirect = indirect || ind
			if loc.Kind == LocNode {
				target = int(loc.Node)
				continue
			}
			s.serveConcrete(n, ent, idx, line, instr, loc, t, depth+1)
			return indirect
		}
		m := s.nodes[target]
		t.add(s.sendNodes(n.id, target, noc.Ctrl, noc.Base)) // direct read request
		s.meter.Do(energy.OpMD2, 1)
		t.add(timing.MD2)
		entM := m.entry(r)
		if entM == nil {
			// NACK: the tracking entry is gone; MD3 has fresher data.
			s.st.NackMD3++
			loc, _ := s.md3Resolve(n, r, idx, t)
			indirect = true
			if loc.Kind == LocNode {
				target = int(loc.Node)
				continue
			}
			s.serveConcrete(n, ent, idx, line, instr, loc, t, depth+1)
			return indirect
		}
		if entM.active != activeMD2 {
			s.meter.Do(energy.OpMD1, 1)
			t.add(timing.MD1)
		}
		liM := entM.li[idx]
		switch liM.Kind {
		case LocL1, LocL2:
			st, set, sl := m.localSlot(entM, idx)
			s.meter.Do(st.op, 1)
			t.add(st.lat)
			st.touch(set, int(liM.Way))
			if sl.master {
				sl.excl = false // a sharer now exists
			}
			t.add(s.sendNodes(target, n.id, noc.Data, noc.Base))
			ver := s.verOf(sl)
			s.xfer = ver
			rp := InNode(target)
			if s.cfg.Replication && instr {
				// §IV-C: instructions are always replicated into the
				// reader's own slice, whatever served them.
				rp = s.llcInstallReplica(n.id, line, ent, InNode(target), ver, t)
				s.st.Replications++
			}
			s.installL1(n, ent, idx, line, instr, false, false, false, rp, t)
			return indirect
		case LocLLC, LocMem:
			// The master moved out of the node silently; redirect.
			s.st.Redirect++
			s.sendNodes(target, n.id, noc.Ctrl, noc.Base) // redirect reply
			s.serveConcrete(n, ent, idx, line, instr, liM, t, depth+1)
			return indirect
		case LocNode:
			s.st.Redirect++
			s.sendNodes(target, n.id, noc.Ctrl, noc.Base)
			target = int(liM.Node)
		default:
			panic(fmt.Sprintf("core: remote node %d has LI %v for %v", target, liM, line))
		}
	}
	panic(fmt.Sprintf("core: unterminated master chase for %v", line))
}

// md3Resolve asks MD3 where the master of (r, idx) is.
func (s *System) md3Resolve(n *node, r mem.RegionAddr, idx int, t *txn) (Location, bool) {
	t.add(s.sendHub(n.id, noc.Ctrl, noc.Base))
	s.meter.Do(energy.OpMD3, 1)
	t.add(timing.MD3)
	s.st.MD3Lookups++
	d := s.md3Probe(r)
	if d == nil {
		return Mem(), true
	}
	loc := d.li[idx]
	if loc.Kind == LocInvalid || (loc.Kind == LocLLC && loc.Way == WayUnresolved) ||
		(loc.Kind == LocNode && int(loc.Node) == n.id) {
		// No valid global knowledge (or a stale self-pointer): with no
		// dirty master anywhere, memory has the data.
		return Mem(), true
	}
	return loc, true
}

// maxChase bounds the mutual recursion between serveConcrete and
// readFromNode. Clean masters move silently (PROTOCOL.md deviation 2),
// so referral chains can go stale — and stale referrals can form a
// cycle: a node's LI naming a replica in its own slice whose RP names a
// node whose LI names the replica again. A cycle implies every link in
// it is clean-master drift (a write would have repointed every tracking
// LI at the writer and reclaimed every LLC copy of the line), so memory
// is guaranteed current and serves as the terminal authority.
func (s *System) maxChase() int { return 2*s.cfg.Nodes + 4 }

// serveConcrete completes a read from a concrete non-node location (LLC
// slot or memory) discovered by a redirect. depth is the shared chase
// budget (see maxChase).
func (s *System) serveConcrete(n *node, ent *nodeRegion, idx int, line mem.LineAddr, instr bool, loc Location, t *txn, depth int) {
	switch loc.Kind {
	case LocLLC:
		st := s.llcStore(loc)
		set := st.setFor(line, ent.scramble)
		sl := st.at(set, int(loc.Way))
		if !sl.valid || sl.line != line {
			// The redirect target raced away too (e.g. the LLC slot was
			// reclaimed); memory always has valid data for a line with
			// no dirty master.
			s.readFromMem(n, ent, idx, line, instr, t)
			return
		}
		if !sl.master {
			// The slot is another node's slice replica; pointing our
			// metadata at it would dangle when the owner drops it, so
			// chase its RP to the master instead.
			if depth > s.maxChase() {
				// A referral cycle of stale clean-master pointers:
				// memory is current (see maxChase) and ends the chase.
				s.st.ChaseBreaks++
				s.readFromMem(n, ent, idx, line, instr, t)
				return
			}
			next := sl.rp
			if next.Kind == LocNode {
				ent.li[idx] = next
				s.readFromNode(n, ent, idx, line, instr, int(next.Node), t, depth+1)
				return
			}
			s.serveConcrete(n, ent, idx, line, instr, next, t, depth+1)
			return
		}
		ent.li[idx] = loc
		s.readFromLLC(n, ent, idx, line, instr, loc, t)
	case LocMem:
		s.readFromMem(n, ent, idx, line, instr, t)
	default:
		panic(fmt.Sprintf("core: serveConcrete(%v)", loc))
	}
}

// write services a store. Private regions write with zero coherence
// (case B / silent upgrade); shared regions run the blocking ReadEx
// transaction of case C unless the line is already held exclusively.
func (s *System) write(n *node, ent *nodeRegion, idx int, line mem.LineAddr, t *txn) (hit, indirect bool) {
	s.ensureStream(n, ent, false, t)
	li := ent.li[idx]
	if ent.private {
		return s.writePrivate(n, ent, idx, line, li, t), false
	}

	if li.Kind == LocL1 {
		st, i, sl := n.localSlotI(ent, idx)
		if sl.master && sl.excl {
			// Silent write: exclusivity was established earlier.
			sl.dirty = true
			st.tbl.TouchSlot(i)
			s.meter.Do(st.op, 1)
			t.add(st.lat)
			return true, false
		}
		s.caseC(n, ent, idx, line, t)
		return true, true
	}
	s.caseC(n, ent, idx, line, t)
	return false, true
}

// writePrivate implements case B and the private silent upgrade: data is
// read from wherever the master is, the local L1 copy becomes the new
// dirty master, and any previous master copy is reclaimed — all without
// any coherence with other nodes or MD3.
func (s *System) writePrivate(n *node, ent *nodeRegion, idx int, line mem.LineAddr, li Location, t *txn) (hit bool) {
	switch li.Kind {
	case LocL1:
		st, i, sl := n.localSlotI(ent, idx)
		s.meter.Do(st.op, 1)
		t.add(st.lat)
		st.tbl.TouchSlot(i)
		if sl.master {
			sl.dirty = true
			sl.excl = true
			return true
		}
		// Silent upgrade of a replica: reclaim the old master.
		old := sl.rp
		sl.master, sl.dirty, sl.excl = true, true, true
		sl.rp = s.allocRP(n.id)
		s.reclaimPrivateMaster(n, ent, idx, line, old, t)
		return true

	case LocL2:
		st, set, sl := n.localSlot(ent, idx)
		s.meter.Do(st.op, 1)
		t.add(st.lat)
		cp, ver := *sl, s.verOf(sl)
		st.drop(set, int(li.Way))
		ent.li[idx] = Mem() // in transit (see evictNodeLine)
		s.st.L2Hits++
		old := cp.rp
		rp := cp.rp
		if !cp.master {
			rp = s.allocRP(n.id)
		}
		s.xfer = ver
		s.installL1(n, ent, idx, line, false, true, true, true, rp, t)
		if !cp.master {
			s.reclaimPrivateMaster(n, ent, idx, line, old, t)
		}
		return false

	case LocLLC:
		// Case B with the master in the LLC: direct read, then the L1
		// copy becomes master and the LLC slot is reclaimed.
		st := s.llcStore(li)
		set := st.setFor(line, ent.scramble)
		sl := st.get(set, int(li.Way), line)
		local := s.llcIsLocal(li, n.id)
		s.meter.Do(st.op, 1)
		if local {
			t.add(st.lat)
		} else {
			t.add(s.sendLLC(n.id, li, noc.Ctrl, noc.Base))
			t.add(st.lat)
			t.add(s.sendLLC(n.id, li, noc.Data, noc.Base))
		}
		s.st.LLCHits++
		if local {
			s.st.LLCLocalHitsD++
		} else {
			s.st.LLCRemoteHitsD++
		}
		wasMaster, old := sl.master, sl.rp
		s.xfer = s.verOf(sl)
		st.drop(set, int(li.Way))
		s.installL1(n, ent, idx, line, false, true, true, true, s.allocRP(n.id), t)
		if !wasMaster {
			// The slot was an own-slice replica; reclaim the master it
			// chained to.
			s.reclaimPrivateMaster(n, ent, idx, line, old, t)
		}
		s.st.EvB++
		return false

	case LocMem:
		t.add(s.sendHub(n.id, noc.Ctrl, noc.Base))
		s.meter.Do(energy.OpDRAM, 1)
		t.add(timing.DRAM)
		t.add(s.sendHub(n.id, noc.Data, noc.Base))
		s.st.DRAMReads++
		if s.verMem != nil {
			s.xfer = s.verMem[line]
		}
		s.installL1(n, ent, idx, line, false, true, true, true, s.allocRP(n.id), t)
		s.st.EvB++
		return false

	default:
		panic(fmt.Sprintf("core: private region %v has LI %v", ent.region, li))
	}
}

// reclaimPrivateMaster invalidates the stale master copy at old after a
// private-region write promoted the local copy ("This action makes the
// LI in MD3 invalid for private regions" — here it reclaims the data
// slot so it can be reused).
func (s *System) reclaimPrivateMaster(n *node, ent *nodeRegion, idx int, line mem.LineAddr, old Location, t *txn) {
	switch old.Kind {
	case LocMem:
		// Memory is never "reclaimed".
	case LocLLC:
		st := s.llcStore(old)
		set := st.setFor(line, ent.scramble)
		sl := st.at(set, int(old.Way))
		if sl.valid && sl.line == line {
			if !sl.master {
				// Chain: replica -> master; reclaim both.
				next := sl.rp
				st.drop(set, int(old.Way))
				s.meter.Do(st.op, 1)
				s.reclaimPrivateMaster(n, ent, idx, line, next, t)
				return
			}
			st.drop(set, int(old.Way))
			s.meter.Do(st.op, 1)
			s.sendLLC(n.id, old, noc.Ctrl, noc.Base) // invalidate (free if local)
		}
	case LocNode:
		panic(fmt.Sprintf("core: private region %v master chained to node %d", ent.region, old.Node))
	}
}

// reclaimLLCCopies drops every LLC slot holding line that is reachable
// from MD3 or any PB node's metadata, using the full eviction fix-up so
// every tracker is repointed consistently (to memory; the caseC caller
// then repoints them at the writer).
func (s *System) reclaimLLCCopies(d *dirRegion, r mem.RegionAddr, idx int, line mem.LineAddr, t *txn) {
	drop := func(loc Location) {
		if loc.Kind != LocLLC || loc.Way == WayUnresolved {
			return
		}
		st := s.llcStore(loc)
		set := st.setFor(line, d.scramble)
		sl := st.at(set, int(loc.Way))
		if sl.valid && sl.line == line {
			s.llcEvictSlot(st, int(loc.Node), set, int(loc.Way), t)
		}
	}
	// chase resolves a reference through an own-slice replica (dropping
	// the replica re-chains its owner) before dropping the master.
	chase := func(mid int, ent *nodeRegion, loc Location) {
		if rsl := s.ownSliceReplica(mid, ent, idx, loc); rsl != nil {
			next := rsl.rp
			drop(loc) // llcEvictSlot repoints the owner onto next
			drop(next)
			return
		}
		drop(loc)
	}
	drop(d.li[idx])
	for pb := d.pbSnapshot(); pb != 0; pb = pb.drop() {
		mid := pb.node()
		m := s.nodes[mid]
		ent := m.entry(r)
		if ent == nil {
			continue
		}
		li := ent.li[idx]
		switch {
		case li.Kind == LocLLC:
			chase(mid, ent, li)
		case li.Local():
			if _, _, sl := m.localSlot(ent, idx); !sl.master {
				chase(mid, ent, sl.rp)
			}
		}
	}
}

// caseC is the shared-region write transaction: block the region at MD3,
// read the master copy, invalidate every PB node's copy (they repoint
// their LIs at the writer), install the dirty exclusive master locally,
// update the MD3 LI, and unblock.
func (s *System) caseC(n *node, ent *nodeRegion, idx int, line mem.LineAddr, t *txn) {
	s.st.EvC++
	s.st.MD3Lookups++
	r := ent.region
	s.acquireRegionLock(r)
	t.add(s.sendHub(n.id, noc.Ctrl, noc.Base)) // ReadEx
	s.meter.Do(energy.OpMD3, 1)
	t.add(timing.MD3)
	d := s.md3Probe(r)
	if d == nil {
		panic(fmt.Sprintf("core: caseC on %v with no MD3 entry", r))
	}

	// 1. Reclaim every LLC copy of the line (with the full repoint
	// fix-up). A clean master that moved into the LLC silently may be
	// reachable only through some node's stale pointer or a replica's
	// RP; after this write all those pointers name the writer, so any
	// surviving LLC slot would be orphaned. Running this first also
	// funnels the data acquisition below through memory, which the
	// reclaim has made coherent.
	s.reclaimLLCCopies(d, ent.region, idx, line, t)

	// 2. Acquire the data from wherever the master (or a local copy) is.
	s.acquireForWrite(n, ent, idx, line, d, t)

	// 3. Record the new master in MD3.
	d.li[idx] = InNode(n.id)

	// 3. Invalidate the other PB nodes; they repoint to the writer.
	loc := InNode(n.id)
	var prunedBuf [16]*node
	pruned := prunedBuf[:0]
	for pb := d.pbSnapshot(); pb != 0; pb = pb.drop() {
		mid := pb.node()
		if mid == n.id {
			continue
		}
		m := s.nodes[mid]
		s.fab.SendEP(noc.Hub, noc.NodeEP(mid), noc.Ctrl, noc.Base) // Inv (multicast from MD3)
		s.meter.Do(energy.OpMD2, 1)
		s.st.InvRecv++
		entM := m.entry(r)
		if entM == nil {
			panic(fmt.Sprintf("core: PB node %d without entry for %v", mid, r))
		}
		had := false
		liM := entM.li[idx]
		switch {
		case liM.Local():
			lst, lset, lsl := m.localSlot(entM, idx)
			_ = lsl
			lst.drop(lset, int(liM.Way))
			s.meter.Do(lst.op, 1)
			had = true
		case liM.Kind == LocLLC && s.llcIsLocal(liM, mid):
			st := s.slices[mid]
			lset := st.setFor(line, entM.scramble)
			sl := st.at(lset, int(liM.Way))
			if sl.valid && sl.line == line && !sl.master {
				st.drop(lset, int(liM.Way))
				s.meter.Do(st.op, 1)
				had = true
			}
		}
		entM.li[idx] = loc
		if !had {
			s.st.FalseInvRecv++
		}
		s.sendNodes(mid, n.id, noc.Ctrl, noc.Base) // Ack to the writer
		if s.cfg.MD2Pruning && !m.hasLocalCopies(entM) && entM.active == activeMD2 {
			pruned = append(pruned, m)
		}
	}
	t.add(noc.TraversalCycles * 2)      // Inv/Ack round trip (overlapped)
	s.sendHub(n.id, noc.Ctrl, noc.Base) // Done/unblock

	// 5. Pruning (§IV-A): nodes that received an invalidation for a
	// region they no longer cache drop their metadata, possibly turning
	// the region private for the writer.
	for _, m := range pruned {
		if entM := m.entry(r); entM != nil {
			s.st.MD2Prunes++
			s.md2Spill(m, entM, t)
		}
	}
}

// acquireForWrite obtains the line's data for a caseC writer and installs
// it in the writer's L1 as a dirty exclusive master. It runs after
// reclaimLLCCopies, so every LLC copy of the line is already gone and
// any LI/RP that referenced one now says memory; node-held master data
// is collected here (the Inv fan-out that follows drops those copies).
func (s *System) acquireForWrite(n *node, ent *nodeRegion, idx int, line mem.LineAddr, d *dirRegion, t *txn) {
	li := ent.li[idx]
	rp := s.allocRP(n.id)
	switch li.Kind {
	case LocL1:
		// Upgrade in place.
		_, set, sl := n.localSlot(ent, idx)
		s.meter.Do(n.l1d.op, 1)
		t.add(n.l1d.lat)
		n.l1d.touch(set, int(li.Way))
		if !sl.master {
			sl.rp = rp
		}
		sl.master, sl.dirty, sl.excl = true, true, true
		return
	case LocL2:
		st, set, sl := n.localSlot(ent, idx)
		s.meter.Do(st.op, 1)
		t.add(st.lat)
		cp, ver := *sl, s.verOf(sl)
		st.drop(set, int(li.Way))
		ent.li[idx] = Mem() // in transit (see evictNodeLine)
		s.st.L2Hits++
		if !cp.master {
			cp.rp = rp
		}
		s.xfer = ver
		s.installL1(n, ent, idx, line, false, true, true, true, cp.rp, t)
		return
	default:
		// Fetch from the authoritative master per MD3 (DirectReadEx on
		// behalf of the writer): a node-held master serves its data
		// (its copy dies in the Inv fan-out); otherwise memory is
		// coherent, because the reclaim pass wrote back any dirty LLC
		// copy.
		master := d.li[idx]
		if s.verMem != nil {
			s.xfer = s.verMem[line]
		}
		if master.Kind == LocNode && int(master.Node) != n.id {
			m := s.nodes[master.Node]
			t.add(s.sendNodes(n.id, int(master.Node), noc.Ctrl, noc.Base))
			s.meter.Do(energy.OpMD2, 1)
			t.add(timing.MD2)
			if entM := m.entry(ent.region); entM != nil && entM.li[idx].Local() {
				lst, _, lsl := m.localSlot(entM, idx)
				s.meter.Do(lst.op, 1)
				t.add(lst.lat)
				s.xfer = s.verOf(lsl)
			}
			t.add(s.sendNodes(int(master.Node), n.id, noc.Data, noc.Base))
		} else {
			s.chargeDRAMRead(n.id, t)
		}
		s.installL1(n, ent, idx, line, false, true, true, true, rp, t)
		return
	}
}

func (s *System) chargeDRAMRead(nodeID int, t *txn) {
	t.add(s.sendHub(nodeID, noc.Ctrl, noc.Base))
	s.meter.Do(energy.OpDRAM, 1)
	t.add(timing.DRAM)
	t.add(s.sendHub(nodeID, noc.Data, noc.Base))
	s.st.DRAMReads++
}

// mdMiss is case D: the node has no metadata for the region, so a
// blocking ReadMM goes to MD3, which classifies the transition
// (uncached/untracked/private/shared), gathers metadata — pulling it out
// of the single owner on a private-to-shared transition (D2) — and
// replies with the region entry.
func (s *System) mdMiss(n *node, instr bool, r mem.RegionAddr, t *txn) *nodeRegion {
	s.st.MDMisses++
	s.st.MD3Lookups++
	s.acquireRegionLock(r)
	t.add(s.sendHub(n.id, noc.Ctrl, noc.Base)) // ReadMM
	s.meter.Do(energy.OpMD3, 1)
	t.add(timing.MD3)

	d := s.md3Probe(r)
	private := false
	switch {
	case d == nil:
		// D4: uncached -> private.
		d = s.md3Alloc(r, t)
		d.setPB(n.id)
		private = true
		s.st.EvD4++
	default:
		s.md3Touch(r)
		switch d.class() {
		case Untracked:
			// D1: untracked -> private.
			d.setPB(n.id)
			private = true
			s.st.EvD1++
		case Private:
			// D2: private -> shared. The single owner exports its
			// metadata to MD3 (local locations become its NodeID) and
			// clears its P bit.
			owner := s.nodes[d.solePBNode()]
			s.st.EvD2++
			t.add(s.fab.SendEP(noc.Hub, noc.NodeEP(owner.id), noc.Ctrl, noc.D2MOnly)) // GetMD
			s.meter.Do(energy.OpMD2, 1)
			t.add(timing.MD2)
			entO := owner.entry(r)
			if entO == nil {
				panic(fmt.Sprintf("core: private region %v with absent owner entry", r))
			}
			entO.private = false
			for idx := range entO.li {
				li := entO.li[idx]
				switch {
				case li.Local():
					// The owner's exclusive masters downgrade (E -> F):
					// in a shared region, silent writes are no longer
					// legal and memory/forwarders stay coherent.
					if _, _, sl := owner.localSlot(entO, idx); sl.master {
						sl.excl = false
					}
					d.li[idx] = InNode(owner.id)
				case li.Kind == LocLLC && s.llcIsLocal(li, owner.id) && !s.slotIsMasterLLC(owner, entO, idx):
					// Own-slice replica: the region master is behind it.
					d.li[idx] = InNode(owner.id)
				default:
					d.li[idx] = li
				}
			}
			t.add(s.sendHub(owner.id, noc.MD, noc.D2MOnly)) // metadata to MD3
			d.setPB(n.id)
		case Shared:
			// D3: shared -> shared.
			d.setPB(n.id)
			s.st.EvD3++
		}
	}

	t.add(s.sendHub(n.id, noc.MD, noc.D2MOnly)) // metadata reply
	ent := newNodeRegion(r, private, d.scramble)
	ent.instrStream = instr
	// Install the entry (with all-memory LIs) before adopting the global
	// locations: installing may spill an MD2 victim, whose eviction
	// cascade can move masters around — including lines of this region —
	// and every repoint must see this node's entry (its PB bit is
	// already set). The fresh LIs are copied once the cascade settles.
	s.md2Install(n, ent, instr, t)
	if private {
		// The node owns the region: it adopts the global locations and
		// MD3's LIs become invalid (private regions are tracked only by
		// their owner).
		ent.li = d.li
		for idx := range d.li {
			d.li[idx] = Invalid()
		}
	} else {
		for idx := range d.li {
			li := d.li[idx]
			if li.Kind == LocInvalid {
				li = Mem()
			}
			ent.li[idx] = li
		}
	}
	return ent
}

// slotIsMasterLLC reports whether the own-slice LLC slot named by
// ent.li[idx] holds a master copy.
func (s *System) slotIsMasterLLC(m *node, ent *nodeRegion, idx int) bool {
	li := ent.li[idx]
	st := s.slices[li.Node]
	line := ent.region.Line(idx)
	set := st.setFor(line, ent.scramble)
	sl := st.at(set, int(li.Way))
	return sl.valid && sl.line == line && sl.master
}

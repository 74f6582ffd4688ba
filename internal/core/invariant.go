package core

import (
	"fmt"

	"d2m/internal/mem"
)

// CheckInvariants audits the whole machine against the paper's
// correctness guarantees and this implementation's structural rules. It
// is O(total capacity) and intended for tests, which interleave it with
// random access streams.
//
// Audited properties:
//
//  1. Determinism (§II-B invariant 1): every local LI names a valid slot
//     holding exactly that line; every concrete LLC LI likewise.
//  2. Metadata inclusion (§III): every valid L1/L2 line is tracked by its
//     node's MD2 entry, whose LI points exactly at the slot; MD1 entries
//     appear in MD2; a node's MD2 entry implies an MD3 entry with the
//     node's PB bit set, and vice versa.
//  3. Private classification (§II-B invariant 2): a node's P bit is set
//     iff MD3 classifies the region private with that node as the sole
//     tracker, and private regions have all-invalid MD3 LIs.
//  4. Single-writer: at most one dirty copy of a line exists anywhere;
//     every dirty copy is a master; an excl copy is the only copy.
//  5. No orphans: every LLC master is reachable from MD3 or a tracking
//     node (otherwise a region flush could never find it); every LLC
//     replica is reachable from its owner's metadata.
//  6. Scramble coherence: every tracker of a region agrees with MD3's
//     scramble (dynamic indexing would otherwise compute divergent sets).
func (s *System) CheckInvariants() error {
	if err := s.checkMDStructure(); err != nil {
		return err
	}
	if err := s.checkNodeEntries(); err != nil {
		return err
	}
	orphans, err := s.checkDataStores()
	if err != nil {
		return err
	}
	if err := s.checkLineGlobals(orphans); err != nil {
		return err
	}
	if err := s.checkAdaptive(); err != nil {
		return err
	}
	return nil
}

// checkAdaptive audits the way-repartitioning state (Config.AdaptiveWays):
// each node's split must exhaust the budget within the per-side bounds,
// and the ways outside either active prefix must be fully drained — a
// line or metadata entry parked in an inactive way would be capacity the
// policy believes it reclaimed.
func (s *System) checkAdaptive() error {
	if !s.cfg.AdaptiveWays {
		return nil
	}
	for _, n := range s.nodes {
		if n.l1dActive+n.md1dActive != AdaptiveWayBudget {
			return fmt.Errorf("node %d: adaptive split %d+%d != budget %d", n.id, n.l1dActive, n.md1dActive, AdaptiveWayBudget)
		}
		for _, side := range []int{n.l1dActive, n.md1dActive} {
			if side < AdaptiveMinWays || side > AdaptiveMaxWays {
				return fmt.Errorf("node %d: adaptive side %d outside [%d,%d]", n.id, side, AdaptiveMinWays, AdaptiveMaxWays)
			}
		}
		if n.l1d.activeWays != n.l1dActive {
			return fmt.Errorf("node %d: L1-D activeWays %d != split %d", n.id, n.l1d.activeWays, n.l1dActive)
		}
		for set := 0; set < n.l1d.tbl.Sets(); set++ {
			for w := n.l1dActive; w < n.l1d.ways(); w++ {
				if sl := n.l1d.at(set, w); sl.valid {
					return fmt.Errorf("node %d: L1-D inactive way %d holds %v (active=%d)", n.id, w, sl.line, n.l1dActive)
				}
			}
		}
		for set := 0; set < n.md1d.Sets(); set++ {
			for w := n.md1dActive; w < n.md1d.Ways(); w++ {
				if n.md1d.Valid(set, w) {
					return fmt.Errorf("node %d: MD1-D inactive way %d valid in set %d (active=%d)", n.id, w, set, n.md1dActive)
				}
			}
		}
	}
	return nil
}

func (s *System) checkMDStructure() error {
	for _, n := range s.nodes {
		for _, instr := range []bool{true, false} {
			md1, pay := n.md1For(instr)
			var failure error
			md1.ForEach(func(set, way int, key uint64) {
				ent := pay[md1.Index(set, way)]
				if ent == nil {
					failure = fmt.Errorf("node %d: MD1 slot (%d,%d) valid with nil entry", n.id, set, way)
					return
				}
				if uint64(ent.region) != key {
					failure = fmt.Errorf("node %d: MD1 key %#x holds entry for %v", n.id, key, ent.region)
					return
				}
				wantActive := activeMD1D
				if instr {
					wantActive = activeMD1I
				}
				if ent.active != wantActive {
					failure = fmt.Errorf("node %d: entry %v in MD1(instr=%v) has active=%d", n.id, ent.region, instr, ent.active)
					return
				}
				// MD1 inclusion in MD2.
				if n.entry(ent.region) != ent {
					failure = fmt.Errorf("node %d: MD1 entry %v not present in MD2", n.id, ent.region)
				}
			})
			if failure != nil {
				return failure
			}
		}
	}
	return nil
}

func (s *System) checkNodeEntries() error {
	for _, n := range s.nodes {
		var failure error
		n.md2.ForEach(func(set, way int, key uint64) {
			if failure != nil {
				return
			}
			ent := n.md2Ent[n.md2.Index(set, way)]
			if ent == nil || uint64(ent.region) != key {
				failure = fmt.Errorf("node %d: MD2 slot (%d,%d) inconsistent", n.id, set, way)
				return
			}
			d := s.md3Probe(ent.region)
			if d == nil {
				failure = fmt.Errorf("node %d: entry %v has no MD3 entry (MD3 inclusion)", n.id, ent.region)
				return
			}
			if !d.hasPB(n.id) {
				failure = fmt.Errorf("node %d: entry %v but PB bit clear", n.id, ent.region)
				return
			}
			if ent.scramble != d.scramble {
				failure = fmt.Errorf("node %d: region %v scramble %#x != MD3 %#x", n.id, ent.region, ent.scramble, d.scramble)
				return
			}
			if ent.private != (d.class() == Private) {
				failure = fmt.Errorf("node %d: region %v P=%v but MD3 class %v (PB=%b)", n.id, ent.region, ent.private, d.class(), d.pb)
				return
			}
			for idx := range ent.li {
				li := ent.li[idx]
				line := ent.region.Line(idx)
				// Every stored LI must round-trip the 6-bit Table I
				// encoding: the implementation may never carry more
				// information than the hardware field holds.
				if li.Kind != LocInvalid {
					if got := DecodeLI(EncodeLI(li, s.cfg.NearSide), s.cfg.NearSide); got != li {
						failure = fmt.Errorf("node %d: LI %v does not survive the 6-bit encoding (-> %v)", n.id, li, got)
						return
					}
				}
				switch li.Kind {
				case LocInvalid:
					failure = fmt.Errorf("node %d: region %v line %d has invalid LI", n.id, ent.region, idx)
					return
				case LocL1, LocL2:
					st := n.storeForLocal(li, ent)
					sset := st.setFor(line, ent.scramble)
					sl := st.at(sset, int(li.Way))
					if !sl.valid || sl.line != line {
						failure = fmt.Errorf("node %d: determinism: LI %v for %v, slot holds %v valid=%v", n.id, li, line, sl.line, sl.valid)
						return
					}
				case LocLLC:
					if li.Way == WayUnresolved {
						failure = fmt.Errorf("node %d: unresolved LLC LI in entry %v", n.id, ent.region)
						return
					}
					st := s.llcStore(li)
					sset := st.setFor(line, ent.scramble)
					sl := st.at(sset, int(li.Way))
					if !sl.valid || sl.line != line {
						failure = fmt.Errorf("node %d: determinism: LLC LI %v for %v, slot holds %v valid=%v", n.id, li, line, sl.line, sl.valid)
						return
					}
				case LocNode:
					if li.Node < 0 || int(li.Node) >= s.cfg.Nodes {
						failure = fmt.Errorf("node %d: LI names node %d", n.id, li.Node)
						return
					}
					if ent.private {
						failure = fmt.Errorf("node %d: private region %v has remote LI %v", n.id, ent.region, li)
						return
					}
				}
			}
		})
		if failure != nil {
			return failure
		}
	}
	// PB bit implies MD2 entry (reverse inclusion).
	var failure error
	s.md3.ForEach(func(set, way int, key uint64) {
		if failure != nil {
			return
		}
		d := s.md3Ent[s.md3.Index(set, way)]
		if d == nil || uint64(d.region) != key {
			failure = fmt.Errorf("MD3 slot (%d,%d) inconsistent", set, way)
			return
		}
		for _, mid := range d.pbNodes() {
			if mid >= s.cfg.Nodes {
				failure = fmt.Errorf("region %v: PB names node %d beyond %d nodes", d.region, mid, s.cfg.Nodes)
				return
			}
			if s.nodes[mid].entry(d.region) == nil {
				failure = fmt.Errorf("region %v: PB set for node %d without an MD2 entry", d.region, mid)
				return
			}
		}
		if d.class() == Private {
			for idx := range d.li {
				if d.li[idx].Kind != LocInvalid {
					failure = fmt.Errorf("private region %v has valid MD3 LI %v", d.region, d.li[idx])
					return
				}
			}
		}
		for idx := range d.li {
			li := d.li[idx]
			if li.Kind == LocLLC && li.Way == WayUnresolved {
				failure = fmt.Errorf("region %v: MD3 LI %d unresolved", d.region, idx)
				return
			}
			if got := DecodeLI(EncodeLI(li, s.cfg.NearSide), s.cfg.NearSide); got != li {
				failure = fmt.Errorf("region %v: MD3 LI %v does not survive the 6-bit encoding", d.region, li)
				return
			}
		}
	})
	return failure
}

// checkDataStores verifies the no-orphan property: every valid slot in
// every data store is reachable from metadata. It returns the set of
// tolerated orphans (unreachable clean LLC masters — benign duplicates
// that match memory and await replacement), which the line-global checks
// must not count as live copies.
func (s *System) checkDataStores() (map[*slot]bool, error) {
	orphans := map[*slot]bool{}
	for _, n := range s.nodes {
		stores := []*dataStore{n.l1i, n.l1d}
		if n.l2 != nil {
			stores = append(stores, n.l2)
		}
		for _, st := range stores {
			var failure error
			st.forEach(func(set, way int, sl *slot) {
				if failure != nil {
					return
				}
				ent := n.entry(sl.line.Region())
				if ent == nil {
					failure = fmt.Errorf("%s: line %v untracked by node", st.name, sl.line)
					return
				}
				li := ent.li[sl.line.Index()]
				if !li.Local() || int(li.Way) != way || n.storeForLocal(li, ent) != st ||
					st.setFor(sl.line, ent.scramble) != set {
					failure = fmt.Errorf("%s: line %v at (%d,%d) but LI says %v", st.name, sl.line, set, way, li)
				}
			})
			if failure != nil {
				return nil, failure
			}
		}
	}

	llcs := s.slices
	if !s.cfg.NearSide {
		llcs = []*dataStore{s.far}
	}
	for sliceID, st := range llcs {
		var failure error
		st.forEach(func(set, way int, sl *slot) {
			if failure != nil {
				return
			}
			r := sl.line.Region()
			idx := sl.line.Index()
			loc := InLLC(way)
			if s.cfg.NearSide {
				loc = InSlice(sliceID, way)
			}
			d := s.md3Probe(r)
			if d == nil {
				if sl.master && !sl.dirty {
					// Orphaned clean master: benign duplicate, matches
					// memory, reclaimed by replacement.
					orphans[sl] = true
					return
				}
				failure = fmt.Errorf("%s: line %v (master=%v dirty=%v) with no MD3 entry", st.name, sl.line, sl.master, sl.dirty)
				return
			}
			if !sl.master {
				// Replica: owner is the slice node; must be reachable.
				owner := s.nodes[sliceID]
				ent := owner.entry(r)
				if ent == nil {
					failure = fmt.Errorf("%s: replica %v with no owner entry", st.name, sl.line)
					return
				}
				if ent.li[idx] == loc {
					return
				}
				if ent.li[idx].Local() {
					_, _, lsl := owner.localSlot(ent, idx)
					if !lsl.master && lsl.rp == loc {
						return
					}
				}
				failure = fmt.Errorf("%s: replica %v unreachable from owner %d (LI %v)", st.name, sl.line, sliceID, ent.li[idx])
				return
			}
			// Master: reachable from MD3 LI or from some PB node.
			if d.li[idx] == loc {
				return
			}
			for _, mid := range d.pbNodes() {
				m := s.nodes[mid]
				ent := m.entry(r)
				if ent == nil {
					continue
				}
				if ent.li[idx] == loc {
					return
				}
				if ent.li[idx].Local() {
					_, _, lsl := m.localSlot(ent, idx)
					if lsl.rp == loc {
						return
					}
					// Two-level chain: L1/L2 replica -> own-slice
					// replica -> this master.
					if rsl := s.ownSliceReplica(mid, ent, idx, lsl.rp); rsl != nil && rsl.rp == loc {
						return
					}
				}
				if rsl := s.ownSliceReplica(mid, ent, idx, ent.li[idx]); rsl != nil && rsl.rp == loc {
					return
				}
			}
			if !sl.dirty {
				// Clean orphan master: benign (see above).
				orphans[sl] = true
				return
			}
			failure = fmt.Errorf("%s: orphan dirty master %v at (%d,%d)", st.name, sl.line, set, way)
		})
		if failure != nil {
			return nil, failure
		}
	}
	return orphans, nil
}

// checkLineGlobals scans every copy of every line for the single-writer
// properties. Tolerated orphans are unreachable and therefore do not
// count as copies.
func (s *System) checkLineGlobals(orphans map[*slot]bool) error {
	type copyInfo struct {
		where  string
		dirty  bool
		master bool
		excl   bool
	}
	lines := make(map[mem.LineAddr][]copyInfo)
	collect := func(name string, st *dataStore) {
		st.forEach(func(set, way int, sl *slot) {
			if orphans[sl] {
				return
			}
			lines[sl.line] = append(lines[sl.line], copyInfo{name, sl.dirty, sl.master, sl.excl})
		})
	}
	for _, n := range s.nodes {
		collect(n.l1i.name, n.l1i)
		collect(n.l1d.name, n.l1d)
		if n.l2 != nil {
			collect(n.l2.name, n.l2)
		}
	}
	if s.cfg.NearSide {
		for _, st := range s.slices {
			collect(st.name, st)
		}
	} else {
		collect(s.far.name, s.far)
	}
	for line, copies := range lines {
		dirty := 0
		for _, c := range copies {
			if c.dirty {
				dirty++
				if !c.master {
					return fmt.Errorf("line %v: dirty non-master in %s", line, c.where)
				}
			}
			if c.excl && len(copies) > 1 {
				return fmt.Errorf("line %v: excl copy in %s but %d copies exist", line, c.where, len(copies))
			}
		}
		if dirty > 1 {
			return fmt.Errorf("line %v: %d dirty copies", line, dirty)
		}
	}
	return nil
}

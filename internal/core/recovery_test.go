package core

import (
	"testing"

	"d2m/internal/mem"
)

// These tests exercise the protocol's stale-pointer recovery machinery
// (redirects, NACKs, raced redirect targets) directly: the situations
// arise organically only from rare interleavings, so the tests invoke
// the recovery entry points with crafted-but-legal arguments and then
// run the full invariant audit on the outcome.

// sharedRegion builds a system where `region` is Shared between nodes 0
// and 1 (node 0 owns some lines, node 1 has joined), and returns node
// 1's region entry.
func sharedRegion(t *testing.T, s *System, region int) *nodeRegion {
	t.Helper()
	s.Access(mem.Access{Node: 0, Addr: addrOf(region, 2), Kind: mem.Load})
	s.Access(mem.Access{Node: 1, Addr: addrOf(region, 5), Kind: mem.Load})
	ent := s.nodes[1].entry(mem.RegionAddr(region))
	if ent == nil || ent.private {
		t.Fatalf("setup: region %d not shared at node 1", region)
	}
	mustCheck(t, s)
	return ent
}

// A redirect can point at an LLC slot that was reclaimed before the
// request arrived. The protocol must fall back to memory — legal
// because a line with no dirty master is always valid there.
func TestServeConcreteRacedSlotFallsBackToMemory(t *testing.T) {
	s := NewSystem(testConfig(false))
	ent := sharedRegion(t, s, 30)

	line := mem.RegionAddr(30).Line(9)
	before := s.Stats().DRAMReads
	s.serveConcrete(s.nodes[1], ent, 9, line, false, InLLC(1), &txn{}, 0)
	if s.Stats().DRAMReads != before+1 {
		t.Fatalf("raced LLC redirect did not fall back to memory (DRAM reads %d -> %d)",
			before, s.Stats().DRAMReads)
	}
	if ent.li[9].Kind != LocL1 {
		t.Fatalf("line not installed locally after fallback: LI = %v", ent.li[9])
	}
	mustCheck(t, s)
}

// A redirect can also land on a *replica* slot (another node's slice
// copy). Pointing metadata at it would dangle when its owner drops it,
// so the protocol must chase the replica's RP to the real master.
func TestServeConcreteChasesReplicaRP(t *testing.T) {
	cfg := testConfig(true)
	cfg.Replication = true
	s := NewSystem(cfg)

	// Node 0 masters an instruction line; node 1 fetching it creates a
	// replica in node 1's slice whose RP names node 0.
	line := mem.RegionAddr(31).Line(1)
	s.Access(mem.Access{Node: 0, Addr: line.Addr(), Kind: mem.IFetch})
	s.Access(mem.Access{Node: 1, Addr: line.Addr(), Kind: mem.IFetch})
	var loc Location
	s.slices[1].forEach(func(set, way int, sl *slot) {
		if sl.line == line && !sl.master {
			loc = InSlice(1, way)
		}
	})
	if loc.Kind != LocLLC {
		t.Skip("replication did not create a slice replica in this geometry")
	}
	if sl := s.slices[1].at(s.slices[1].setFor(line, s.md3Probe(mem.RegionAddr(31)).scramble), int(loc.Way)); sl.rp.Kind != LocNode {
		t.Fatalf("setup: replica RP is %v, want a node referral", sl.rp)
	}

	// Node 2 joins the region, then a (stale) redirect hands it the
	// replica's location.
	s.Access(mem.Access{Node: 2, Addr: addrOf(31, 7), Kind: mem.Load})
	ent2 := s.nodes[2].entry(mem.RegionAddr(31))
	if ent2 == nil {
		t.Fatal("setup: node 2 has no entry")
	}
	mustCheck(t, s)

	s.serveConcrete(s.nodes[2], ent2, 1, line, false, loc, &txn{}, 0)
	if ent2.li[1].Kind != LocL1 {
		t.Fatalf("node 2 not served through the replica chase: LI = %v", ent2.li[1])
	}
	mustCheck(t, s)
}

// A referral that names the requester itself is stale by construction;
// the protocol resolves it at MD3 (here: no global knowledge either, so
// memory serves).
func TestReadFromNodeSelfPointerResolvesAtMD3(t *testing.T) {
	s := NewSystem(testConfig(false))
	ent := sharedRegion(t, s, 32)

	line := mem.RegionAddr(32).Line(6)
	lookups := s.Stats().MD3Lookups
	indirect := s.readFromNode(s.nodes[1], ent, 6, line, false, 1, &txn{}, 0)
	if !indirect {
		t.Error("self-pointer resolution not counted as indirect")
	}
	if s.Stats().MD3Lookups != lookups+1 {
		t.Error("self-pointer did not consult MD3")
	}
	if ent.li[6].Kind != LocL1 {
		t.Fatalf("line not installed after MD3 resolution: LI = %v", ent.li[6])
	}
	mustCheck(t, s)
}

// A referral to a node that has since dropped its tracking entry NACKs;
// the requester re-resolves at MD3.
func TestReadFromNodeNacksOnMissingEntry(t *testing.T) {
	s := NewSystem(testConfig(false))
	ent := sharedRegion(t, s, 33)

	// Node 3 never joined region 33: a referral there must NACK.
	line := mem.RegionAddr(33).Line(8)
	nacks := s.Stats().NackMD3
	s.readFromNode(s.nodes[1], ent, 8, line, false, 3, &txn{}, 0)
	if s.Stats().NackMD3 != nacks+1 {
		t.Fatalf("NackMD3 = %d, want %d", s.Stats().NackMD3, nacks+1)
	}
	if ent.li[8].Kind != LocL1 {
		t.Fatalf("line not installed after NACK recovery: LI = %v", ent.li[8])
	}
	mustCheck(t, s)
}

// md3Resolve treats a missing region, an invalid LI, and a stale
// self-pointer identically: memory has the data.
func TestMD3ResolveDegradedCases(t *testing.T) {
	s := NewSystem(testConfig(false))
	ent := sharedRegion(t, s, 34)
	_ = ent

	// Missing region: never accessed.
	if loc, ind := s.md3Resolve(s.nodes[1], mem.RegionAddr(999), 0, &txn{}); loc.Kind != LocMem || !ind {
		t.Errorf("missing region resolved to %v (indirect=%v), want MEM", loc, ind)
	}
	// Stale self-pointer in MD3.
	d := s.md3Probe(mem.RegionAddr(34))
	if d == nil {
		t.Fatal("setup: no MD3 entry")
	}
	saved := d.li[11]
	d.li[11] = InNode(1)
	if loc, _ := s.md3Resolve(s.nodes[1], mem.RegionAddr(34), 11, &txn{}); loc.Kind != LocMem {
		t.Errorf("self-pointer resolved to %v, want MEM", loc)
	}
	// An unresolved-way LLC pointer is also no knowledge.
	d.li[11] = Location{Kind: LocLLC, Way: WayUnresolved}
	if loc, _ := s.md3Resolve(s.nodes[1], mem.RegionAddr(34), 11, &txn{}); loc.Kind != LocMem {
		t.Errorf("unresolved LLC pointer resolved to %v, want MEM", loc)
	}
	d.li[11] = saved
	mustCheck(t, s)
}

// Stale clean-master referrals can form a CYCLE: node 1's LI names a
// replica in its own slice whose RP names node 1 again. Found by
// TestQuickProtocolInvariants as an unbounded recursion (stack
// overflow); the chase budget must break the cycle at memory, which is
// guaranteed current because any write would have reclaimed the replica
// and repointed every LI at the writer.
func TestReferralCycleBreaksAtMemory(t *testing.T) {
	cfg := testConfig(true)
	cfg.Replication = true
	s := NewSystem(cfg)

	// Node 0 masters an instruction line; node 1's fetch creates a
	// replica in slice 1 and an L1 copy pointing at it.
	line := mem.RegionAddr(36).Line(1)
	s.Access(mem.Access{Node: 0, Addr: line.Addr(), Kind: mem.IFetch})
	s.Access(mem.Access{Node: 1, Addr: line.Addr(), Kind: mem.IFetch})
	var loc Location
	var replica *slot
	s.slices[1].forEach(func(set, way int, sl *slot) {
		if sl.line == line && !sl.master {
			loc, replica = InSlice(1, way), sl
		}
	})
	if replica == nil {
		t.Skip("replication did not create a slice replica in this geometry")
	}

	// Age node 1's L1 copy out silently (the replica eviction path:
	// LI := RP) and let the replica's RP drift to name node 1 itself —
	// the self-referential stale state observed in the wild.
	ent1 := s.nodes[1].entry(mem.RegionAddr(36))
	oldLI := ent1.li[1] // the L1 location, carrying the way
	st, set, sl := s.nodes[1].localSlot(ent1, 1)
	rp := sl.rp
	st.drop(set, int(oldLI.Way))
	ent1.li[1] = rp
	if rp != loc {
		t.Fatalf("setup: L1 replica RP %v does not name the slice replica %v", rp, loc)
	}
	replica.rp = InNode(1)

	// A third node whose referral lands in the cycle must still be
	// served, with the break accounted.
	s.Access(mem.Access{Node: 2, Addr: addrOf(36, 7), Kind: mem.Load})
	ent2 := s.nodes[2].entry(mem.RegionAddr(36))
	if ent2 == nil {
		t.Fatal("setup: node 2 has no entry")
	}
	breaks := s.Stats().ChaseBreaks
	dram := s.Stats().DRAMReads
	s.readFromNode(s.nodes[2], ent2, 1, line, false, 1, &txn{}, 0)
	if s.Stats().ChaseBreaks != breaks+1 {
		t.Fatalf("ChaseBreaks = %d, want %d (cycle must be detected)", s.Stats().ChaseBreaks, breaks+1)
	}
	if s.Stats().DRAMReads != dram+1 {
		t.Fatal("cycle break did not serve from memory")
	}
	if ent2.li[1].Kind != LocL1 {
		t.Fatalf("node 2 not served: LI = %v", ent2.li[1])
	}
}

func TestServeConcretePanicsOnLocalLocation(t *testing.T) {
	s := NewSystem(testConfig(false))
	ent := sharedRegion(t, s, 35)
	defer func() {
		if recover() == nil {
			t.Error("serveConcrete accepted a local location")
		}
	}()
	s.serveConcrete(s.nodes[1], ent, 0, mem.RegionAddr(35).Line(0), false, InL1(0), &txn{}, 0)
}

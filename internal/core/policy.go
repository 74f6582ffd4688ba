package core

// NS-LLC placement (§IV-B) and replication (§IV-C) policies.
//
// Placement: each slice's "cache pressure" is the number of replacements
// it performed during the last 10k-access epoch. A node allocates victim
// space in its own slice when the local pressure is not higher than every
// other slice's; otherwise it still allocates locally 80% of the time and
// remotely (to the least-pressured slice) 20% of the time.
//
// Replication: instructions are always replicated into the reader's local
// slice; data is replicated when it is read from the MRU position of a
// remote slice.

import "d2m/internal/mem"

// PlacementPolicy selects where a node allocates NS-LLC victim space.
type PlacementPolicy int

const (
	// PlacePressure is the paper's policy: allocate locally unless the
	// local slice is the most pressured, then 80% local / 20% to the
	// least-pressured remote slice.
	PlacePressure PlacementPolicy = iota
	// PlaceLocal always allocates in the node's own slice — maximum
	// locality, no load balancing.
	PlaceLocal
	// PlaceSpread allocates uniformly across all slices — maximum
	// balancing, no locality (what address interleaving approximates).
	PlaceSpread
)

func (p PlacementPolicy) String() string {
	switch p {
	case PlacePressure:
		return "pressure"
	case PlaceLocal:
		return "local"
	case PlaceSpread:
		return "spread"
	default:
		return "?"
	}
}

// tickEpoch advances the pressure epoch every pressureEpoch accesses.
func (s *System) tickEpoch() {
	if !s.cfg.NearSide {
		return
	}
	s.epochMark++
	if s.epochMark < pressureEpoch {
		return
	}
	s.epochMark = 0
	copy(s.pressurePrev, s.pressureCur)
	for i := range s.pressureCur {
		s.pressureCur[i] = 0
	}
}

// notePressure records one replacement in a slice.
func (s *System) notePressure(slice int) {
	if s.cfg.NearSide {
		s.pressureCur[slice]++
	}
}

// chooseSlice picks the LLC slice in which node n allocates a victim
// location for a future eviction, per the configured placement policy.
func (s *System) chooseSlice(n int) int {
	if !s.cfg.NearSide {
		return 0
	}
	switch s.cfg.Placement {
	case PlaceLocal:
		return n
	case PlaceSpread:
		// Address-blind balancing: every slice equally likely — what a
		// conventional address-interleaved LLC approximates.
		return s.rng.Intn(s.cfg.Nodes)
	}
	// PlacePressure, the paper's §IV-B policy.
	local := s.pressurePrev[n]
	minOther, minNode := ^uint64(0), -1
	for i, p := range s.pressurePrev {
		if i == n {
			continue
		}
		if p < minOther {
			minOther, minNode = p, i
		}
	}
	if minNode == -1 || local <= minOther {
		return n
	}
	if s.rng.Hit(stayLocal) {
		return n
	}
	return minNode
}

// stayLocal is the chance a node under higher pressure than every other
// slice still allocates locally.
var stayLocal = mem.ChanceOf(0.8)

// allocRP returns the Replacement Pointer assigned to a master line
// installed in node n: a victim location in the LLC whose slice is chosen
// now and whose exact slot is resolved at eviction time (WayUnresolved).
func (s *System) allocRP(n int) Location {
	return Location{Kind: LocLLC, Node: int8(s.chooseSlice(n)), Way: WayUnresolved}
}

// shouldReplicate decides whether a line just read from a remote NS-LLC
// slice should be replicated into the reader's own slice.
func (s *System) shouldReplicate(instr bool, remote *dataStore, set, way int) bool {
	if !s.cfg.Replication {
		return false
	}
	if instr {
		return true
	}
	return remote.isMRU(set, way)
}

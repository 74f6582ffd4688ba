package core

import (
	"fmt"

	"d2m/internal/cache"
	"d2m/internal/energy"
	"d2m/internal/mem"
)

// slot is the per-line back-metadata a tag-less data store keeps. There
// is no searchable address tag: the line identity is kept only so that
// evictions can find the line's active metadata entry (the paper's
// Tracking Pointer — constant-time in hardware, a region-keyed lookup in
// the simulator) and so that the determinism invariant can be audited.
// Fields are ordered widest-first so a slot packs into 16 bytes; the
// coherence oracle's per-slot data versions live beside the stores, in
// System.vers, only when Config.CoherenceDebug is set.
type slot struct {
	line mem.LineAddr
	// rp is the Replacement Pointer: for a master line, the victim
	// location that becomes the new master on eviction (§III-B); for a
	// replica, the current master location, enabling silent replacement.
	rp     Location
	valid  bool
	dirty  bool
	master bool
	// excl marks a master installed by a write (M/E-like): no other
	// valid copies exist, so further writes are silent. Serving a
	// remote read clears it.
	excl bool
	// prefetched marks a line brought in by the prefetcher and not yet
	// touched by a demand access.
	prefetched bool
}

// dataStore is a tag-less set-associative data array (an L1, L2, or an
// LLC/NS-LLC slice in the split hierarchy). Its table is tag-less too
// (cache.GetTagless): the slot already names its line, so the table
// keeps only LRU stamps, non-zero exactly while the slot is valid. The
// replication heuristic's MRU test reads those stamps (every operation
// that would bump a recency stamp already bumps the table stamp at the
// same site, so a parallel recency array would be redundant bookkeeping
// on the hottest store path), and the store knows its own access cost
// so protocol code can charge uniformly.
type dataStore struct {
	name  string
	tbl   *cache.Table
	slots []slot

	op  energy.Op // dynamic energy per data-way access
	lat uint64    // access latency in cycles
	// scrambled enables dynamic indexing for this store. The paper
	// applies the per-region scramble where conflict misses hurt — the
	// LLC/NS slices; L1 indexing stays conventional.
	scrambled bool
	// activeWays masks the associativity under adaptive way
	// repartitioning: victim selection never offers a way at or above
	// this count, so ways [activeWays, ways) drain and stay empty. Zero
	// means all ways are active (every non-adaptive store).
	activeWays int
}

func newDataStore(name string, sets, ways int, op energy.Op, lat uint64) *dataStore {
	n := sets * ways
	return &dataStore{
		name:  name,
		tbl:   cache.GetTagless(sets, ways),
		slots: slotArrays.Get(n),
		op:    op,
		lat:   lat,
	}
}

// release returns the store's backing arrays to the pools for reuse by
// a later newDataStore. The store must not be used afterwards.
func (s *dataStore) release() {
	slotArrays.PutWritten(s.tbl, s.slots)
	cache.PutTable(s.tbl)
	s.tbl, s.slots = nil, nil
}

func (s *dataStore) ways() int { return s.tbl.Ways() }

// setFor returns the set index for line, applying the region's
// dynamic-indexing scramble (§IV-D): the scramble XORs into the index
// bits, dispersing regular (power-of-two-strided) access patterns.
func (s *dataStore) setFor(line mem.LineAddr, scramble uint64) int {
	if !s.scrambled {
		scramble = 0
	}
	return s.tbl.SetFor(uint64(line) ^ scramble)
}

// at returns the slot at (set, way).
func (s *dataStore) at(set, way int) *slot {
	return &s.slots[s.tbl.Index(set, way)]
}

// get returns the slot the metadata claims holds line, enforcing the
// determinism invariant: the metadata must never point at a slot that
// does not hold the line.
func (s *dataStore) get(set, way int, line mem.LineAddr) *slot {
	sl := s.at(set, way)
	if !sl.valid || sl.line != line {
		panic(fmt.Sprintf("core: determinism violation in %s: set %d way %d holds %v (valid=%v), metadata expected %v",
			s.name, set, way, sl.line, sl.valid, line))
	}
	return sl
}

// touch marks (set, way) most recently used.
func (s *dataStore) touch(set, way int) {
	s.tbl.Touch(set, way)
}

// isMRU reports whether (set, way) is the most recently used valid slot
// of its set — the trigger for the data-replication heuristic of §IV-C.
func (s *dataStore) isMRU(set, way int) bool {
	best, bestWay := uint64(0), -1
	for w := 0; w < s.ways(); w++ {
		// A zero stamp marks an invalid slot; valid stamps are distinct.
		if st := s.tbl.StampAt(s.tbl.Index(set, w)); st > best {
			best, bestWay = st, w
		}
	}
	return bestWay == way
}

// install writes line into (set, way), which must have been freed by the
// caller.
func (s *dataStore) install(set, way int, line mem.LineAddr, master, dirty, excl bool, rp Location) *slot {
	i := s.tbl.Index(set, way)
	sl := &s.slots[i]
	if sl.valid {
		panic(fmt.Sprintf("core: install into occupied slot %s set %d way %d (holds %v)", s.name, set, way, sl.line))
	}
	*sl = slot{line: line, valid: true, dirty: dirty, master: master, excl: excl, rp: rp}
	s.tbl.TouchSlot(i)
	return sl
}

// drop invalidates (set, way).
func (s *dataStore) drop(set, way int) {
	s.slots[s.tbl.Index(set, way)] = slot{}
	s.tbl.Invalidate(set, way)
}

// victimWay picks the way to free in set: invalid first, then the
// supplied preference score (higher = evict first), then LRU. Under
// adaptive way repartitioning only the active prefix of ways is
// offered.
func (s *dataStore) victimWay(set int, score func(sl *slot) int) int {
	if score == nil {
		return s.tbl.VictimWayScoredIn(set, s.activeWays, nil)
	}
	return s.tbl.VictimWayScoredIn(set, s.activeWays, func(w int) int {
		return score(s.at(set, w))
	})
}

// forEach visits every valid slot, in flat-index order.
func (s *dataStore) forEach(fn func(set, way int, sl *slot)) {
	ways := s.ways()
	for i := range s.slots {
		if s.slots[i].valid {
			fn(i/ways, i%ways, &s.slots[i])
		}
	}
}

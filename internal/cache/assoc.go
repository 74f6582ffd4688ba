// Package cache provides the set-associative storage primitives that both
// hierarchies are built from: tagged tables (baseline caches, TLBs,
// directories, metadata stores) and tag-less data arrays (the split
// hierarchy's L1/L2/LLC data stores, which can only be reached through
// metadata and therefore keep no searchable address tags).
package cache

import "fmt"

// Table is a set-associative table with true-LRU replacement. The caller
// computes the set index (which is what allows D2M's dynamic indexing to
// scramble it) and associates payloads via Index.
//
// A slot's validity is folded into its key: keys holds key+1 for a valid
// slot and 0 for an invalid one, so a probe reads one array. The encoding
// reserves the key ^uint64(0), which Put rejects; no caller can produce it,
// since every key is a line, region or page number of a 64-bit address.
//
// A tag-less table (NewTaglessTable, GetTagless) keeps no keys at all:
// it backs a data array whose lines are reached only through metadata,
// so nothing ever searches it. A slot is valid iff its LRU stamp is
// non-zero: Touch validates a slot and Invalidate clears it. Lookup,
// Put, KeyAt, SlotKey and ForEach read keys and are caller errors on a
// tag-less table (they panic); validity, recency, victim selection, the
// write log and snapshots work on both kinds.
//
// The table also keeps a write log: the flat index of every slot whose
// LRU stamp left zero since the last Reset, in write order (a slot
// invalidated and written again appears again). Every slot with a
// non-zero key or stamp passed through Touch (Put calls it) or Restore,
// so the log names every slot a Reset must clear, and the caller-side
// payload arrays parallel to the table are written at those slots only.
// The log holds a fixed fraction of the slots; once it is full, later
// writes go unlogged and Reset falls back to clearing the whole arrays.
type Table struct {
	sets, ways int
	keys       []uint64 // key+1 per valid slot; 0 marks an invalid slot; nil if tag-less
	stamp      []uint64 // per-slot LRU stamp; larger = more recent
	clock      uint64

	written []int32 // the write log; its capacity is the log size
	pooled  bool    // released by PutTable and not yet handed out again
}

// logFraction sizes the write log: one entry per logFraction slots.
const logFraction = 8

// NewTable returns a table with the given geometry. Both dimensions must
// be positive and sets must be a power of two (hardware indexing).
func NewTable(sets, ways int) *Table { return newTable(sets, ways, true) }

// NewTaglessTable returns a tag-less table with the given geometry: no
// key array, validity carried by the LRU stamps (see Table).
func NewTaglessTable(sets, ways int) *Table { return newTable(sets, ways, false) }

func newTable(sets, ways int, tagged bool) *Table {
	if sets <= 0 || ways <= 0 {
		panic(fmt.Sprintf("cache: invalid geometry %dx%d", sets, ways))
	}
	if sets&(sets-1) != 0 {
		panic(fmt.Sprintf("cache: sets %d not a power of two", sets))
	}
	n := sets * ways
	t := &Table{
		sets:    sets,
		ways:    ways,
		stamp:   make([]uint64, n),
		written: make([]int32, 0, n/logFraction),
	}
	if tagged {
		t.keys = make([]uint64, n)
	}
	return t
}

// occupancy returns the array whose zero entries mark invalid slots:
// the keys of a tagged table, the stamps of a tag-less one.
func (t *Table) occupancy() []uint64 {
	if t.keys != nil {
		return t.keys
	}
	return t.stamp
}

// Sets returns the number of sets.
func (t *Table) Sets() int { return t.sets }

// Ways returns the associativity.
func (t *Table) Ways() int { return t.ways }

// Overflowed reports whether the write log filled up since the last
// Reset, so that writes may have gone unlogged; Reset then clears the
// whole arrays.
func (t *Table) Overflowed() bool { return len(t.written) == cap(t.written) }

// SetFor returns the set index for key using the conventional modulo
// mapping. Callers applying dynamic indexing XOR a per-region scramble
// into the key first.
func (t *Table) SetFor(key uint64) int { return int(key & uint64(t.sets-1)) }

// Index returns the flat slot index of (set, way), usable to index
// caller-side payload slices of length Sets()*Ways().
func (t *Table) Index(set, way int) int { return set*t.ways + way }

// Lookup returns the way holding key in set, if any. It does not update
// recency; callers decide whether an operation constitutes a use. It
// panics on a tag-less table.
func (t *Table) Lookup(set int, key uint64) (way int, ok bool) {
	base := set * t.ways
	// Reslicing once hoists the bounds checks out of the probe loop —
	// this is the single hottest loop under the protocol engine (every
	// MD1/MD2/tag/directory probe lands here).
	keys := t.keys[base : base+t.ways]
	// key+1 wraps the reserved key ^uint64(0) to 0, the invalid marker;
	// no slot can hold it.
	want := key + 1
	if want == 0 {
		return -1, false
	}
	for w := range keys {
		if keys[w] == want {
			return w, true
		}
	}
	return -1, false
}

// Touch marks (set, way) most recently used; on a tag-less table it
// also makes the slot valid.
func (t *Table) Touch(set, way int) { t.TouchSlot(set*t.ways + way) }

// TouchSlot is Touch addressed by flat slot index (Index(set, way)),
// for callers that already computed the index for their own payloads.
// A slot whose stamp leaves zero is logged while the log has room.
func (t *Table) TouchSlot(i int) {
	if t.stamp[i] == 0 && len(t.written) < cap(t.written) {
		t.written = append(t.written, int32(i))
	}
	t.clock++
	t.stamp[i] = t.clock
}

// StampAt returns the LRU stamp of flat slot index i (0 for invalid
// slots; larger = more recently used). Callers use it to compare
// recency between slots without keeping a parallel stamp array.
func (t *Table) StampAt(i int) uint64 { return t.stamp[i] }

// SlotKey is KeyAt addressed by flat slot index, for callers that
// memoized the index. It panics on a tag-less table.
func (t *Table) SlotKey(i int) (uint64, bool) {
	k := t.keys[i]
	return k - 1, k != 0
}

// KeyAt returns the key stored at (set, way) and whether the slot is
// valid. An invalid slot reports key ^uint64(0). It panics on a
// tag-less table.
func (t *Table) KeyAt(set, way int) (uint64, bool) {
	return t.SlotKey(set*t.ways + way)
}

// Valid reports whether (set, way) holds a valid entry.
func (t *Table) Valid(set, way int) bool { return t.occupancy()[set*t.ways+way] != 0 }

// Put installs key at (set, way), marking it valid and most recently
// used. Any previous occupant is overwritten; the caller is responsible
// for having evicted it. Put panics on key ^uint64(0), which the key+1
// encoding reserves for invalid slots. It panics on a tag-less table,
// whose slots are validated by Touch.
func (t *Table) Put(set, way int, key uint64) {
	if key == ^uint64(0) {
		panic("cache: key ^uint64(0) is reserved")
	}
	t.keys[set*t.ways+way] = key + 1
	t.Touch(set, way)
}

// Invalidate clears (set, way).
func (t *Table) Invalidate(set, way int) {
	i := set*t.ways + way
	if t.keys != nil {
		t.keys[i] = 0
	}
	t.stamp[i] = 0
}

// VictimWay returns the way to replace in set: an invalid way if one
// exists, otherwise the least recently used way.
func (t *Table) VictimWay(set int) int {
	return t.VictimWayScored(set, nil)
}

// VictimWayScored returns the way to replace in set, preferring invalid
// ways, then the way with the highest score, breaking score ties by LRU.
// A nil score means pure LRU. This implements the paper's tailored
// metadata replacement policies ("the replacement policy can favor
// choosing regions with few cachelines present", §II-A).
func (t *Table) VictimWayScored(set int, score func(way int) int) int {
	return t.VictimWayScoredIn(set, t.ways, score)
}

// VictimWayIn is VictimWay restricted to the first ways ways of the
// set, for callers that mask off part of the associativity (adaptive
// way repartitioning).
func (t *Table) VictimWayIn(set, ways int) int {
	return t.VictimWayScoredIn(set, ways, nil)
}

// VictimWayScoredIn is VictimWayScored restricted to the first ways
// ways of the set: ways outside the active prefix are never offered as
// victims, so a store whose associativity was partially deactivated
// keeps allocating only within its active ways.
func (t *Table) VictimWayScoredIn(set, ways int, score func(way int) int) int {
	if ways <= 0 || ways > t.ways {
		ways = t.ways
	}
	base := set * t.ways
	occ := t.occupancy()
	best := -1
	bestScore := 0
	var bestStamp uint64
	for w := 0; w < ways; w++ {
		if occ[base+w] == 0 {
			return w
		}
		s := 0
		if score != nil {
			s = score(w)
		}
		if best == -1 || s > bestScore || (s == bestScore && t.stamp[base+w] < bestStamp) {
			best, bestScore, bestStamp = w, s, t.stamp[base+w]
		}
	}
	return best
}

// CountValid returns the number of valid entries in set.
func (t *Table) CountValid(set int) int {
	base := set * t.ways
	occ := t.occupancy()
	n := 0
	for w := 0; w < t.ways; w++ {
		if occ[base+w] != 0 {
			n++
		}
	}
	return n
}

// ForEach calls fn for every valid slot, in flat-index order. It
// panics on a tag-less table, which has no keys to pass.
func (t *Table) ForEach(fn func(set, way int, key uint64)) {
	for s := 0; s < t.sets; s++ {
		for w := 0; w < t.ways; w++ {
			i := s*t.ways + w
			if k := t.keys[i]; k != 0 {
				fn(s, w, k-1)
			}
		}
	}
}

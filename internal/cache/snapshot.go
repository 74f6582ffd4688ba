package cache

import "unsafe"

// Warm-state snapshots freeze a table mid-simulation and later restore
// it into a pooled table of the same geometry. Clone allocates the copy
// outside the pools (a snapshot owns its arrays for its whole lifetime
// and must never be recycled under a concurrent restore); CopyFrom is
// the restore half, an in-place overwrite equivalent to replaying the
// exact operation sequence that produced src.

// Clone returns an unpooled deep copy of t.
func (t *Table) Clone() *Table {
	cp := &Table{
		sets:  t.sets,
		ways:  t.ways,
		keys:  make([]uint64, len(t.keys)),
		stamp: make([]uint64, len(t.stamp)),
		clock: t.clock,
	}
	copy(cp.keys, t.keys)
	copy(cp.stamp, t.stamp)
	return cp
}

// CopyFrom overwrites t with src's contents. Both tables must share the
// same geometry.
func (t *Table) CopyFrom(src *Table) {
	if t.sets != src.sets || t.ways != src.ways {
		panic("cache: CopyFrom geometry mismatch")
	}
	copy(t.keys, src.keys)
	copy(t.stamp, src.stamp)
	t.clock = src.clock
}

// SizeBytes returns the table's approximate in-memory footprint, used
// by the snapshot LRU's byte budget.
func (t *Table) SizeBytes() int64 {
	return int64(unsafe.Sizeof(*t)) +
		int64(len(t.keys))*int64(unsafe.Sizeof(t.keys[0])) +
		int64(len(t.stamp))*int64(unsafe.Sizeof(t.stamp[0]))
}

package cache

import (
	"fmt"
	"unsafe"
)

// Warm-state snapshots freeze a table mid-simulation and later restore
// it into a freshly built table of the same geometry. A snapshot is
// sparse: it holds only the slots that carry state (a valid key or a
// non-zero stamp), found through the write log, so its size and the
// cost of taking and restoring it follow what the run wrote rather
// than the table's capacity. Gather and Scatter carry a caller's
// payload array along at the same slots. A snapshot owns its arrays
// for its whole lifetime and is never pooled, so it cannot be recycled
// under a concurrent restore.

// TableSnapshot is a sparse, immutable capture of a Table.
type TableSnapshot struct {
	sets, ways int
	tagged     bool
	clock      uint64
	slots      []int32  // flat indices of the captured slots
	keys       []uint64 // stored (key+1) encoding, parallel to slots; nil if tag-less
	stamps     []uint64 // parallel to slots
}

// live reports whether slot i carries state a snapshot must keep.
func (t *Table) live(i int) bool { return t.occupancy()[i]|t.stamp[i] != 0 }

// Snapshot captures every slot of t that is valid or carries a stamp.
// It reads t's write log, taking each logged slot once, or scans the
// whole table once the log has overflowed.
func (t *Table) Snapshot() *TableSnapshot {
	var slots []int32
	if t.Overflowed() {
		n := 0
		for i := range t.stamp {
			if t.live(i) {
				n++
			}
		}
		slots = make([]int32, 0, n)
		for i := range t.stamp {
			if t.live(i) {
				slots = append(slots, int32(i))
			}
		}
	} else {
		seen := make([]uint64, (len(t.stamp)+63)/64)
		slots = make([]int32, 0, len(t.written))
		for _, i := range t.written {
			w, bit := i>>6, uint64(1)<<(i&63)
			if seen[w]&bit == 0 && t.live(int(i)) {
				seen[w] |= bit
				slots = append(slots, i)
			}
		}
	}
	sn := &TableSnapshot{
		sets:   t.sets,
		ways:   t.ways,
		tagged: t.keys != nil,
		clock:  t.clock,
		slots:  slots,
	}
	sn.stamps = Gather(sn, t.stamp)
	if sn.tagged {
		sn.keys = Gather(sn, t.keys)
	}
	return sn
}

// Restore writes sn into t, which must have sn's geometry and kind
// (tagged or tag-less) and must be pristine (freshly built or Reset,
// nothing written since): the restored slots are logged like any other
// write, and a table that had already been written would keep state the
// snapshot does not know about. Restore panics otherwise.
func (t *Table) Restore(sn *TableSnapshot) {
	if t.sets != sn.sets || t.ways != sn.ways {
		panic(fmt.Sprintf("cache: Restore of a %dx%d snapshot into a %dx%d table", sn.sets, sn.ways, t.sets, t.ways))
	}
	if (t.keys != nil) != sn.tagged {
		panic("cache: Restore across tagged and tag-less tables")
	}
	if t.clock != 0 || len(t.written) != 0 {
		panic("cache: Restore into a table that has been written")
	}
	Scatter(sn, t.stamp, sn.stamps)
	if sn.tagged {
		Scatter(sn, t.keys, sn.keys)
	}
	for _, i := range sn.slots {
		if len(t.written) < cap(t.written) {
			t.written = append(t.written, i)
		}
	}
	t.clock = sn.clock
}

// SizeBytes returns the snapshot's in-memory footprint, used by the
// snapshot LRU's byte budget: its header and the arrays it holds, at
// their capacity (a tag-less snapshot holds no keys).
func (sn *TableSnapshot) SizeBytes() int64 {
	return int64(unsafe.Sizeof(*sn)) + int64(cap(sn.slots))*4 + int64(cap(sn.keys)+cap(sn.stamps))*8
}

// Gather returns payload's elements at sn's slots, in sn's order:
// the payload half of a snapshot, for an array parallel to the
// snapshotted table.
func Gather[T any](sn *TableSnapshot, payload []T) []T {
	out := make([]T, len(sn.slots))
	for j, i := range sn.slots {
		out[j] = payload[i]
	}
	return out
}

// Scatter is Gather's inverse: it writes vals back into payload at
// sn's slots. Restoring sn into the table that payload parallels logs
// those slots, so the release-time clear reaches every element written
// here.
func Scatter[T any](sn *TableSnapshot, payload, vals []T) {
	for j, i := range sn.slots {
		payload[i] = vals[j]
	}
}

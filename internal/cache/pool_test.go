package cache

import (
	"testing"
	"unsafe"
)

func mustPanic(t *testing.T, what string, fn func()) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Errorf("%s did not panic", what)
		}
	}()
	fn()
}

// TestPutWrittenFollowsLog checks the payload clear on both paths: at
// the logged slots only while the log has room, and whole once it
// overflowed. The test reads the slices after release, which is safe
// only because nothing else draws on this pool.
func TestPutWrittenFollowsLog(t *testing.T) {
	var pool ArrayPool[int]
	tb := NewTable(4, 8) // 32 slots, a 4-entry log
	payload := make([]int, 32)
	for i := range payload {
		payload[i] = 100 + i
	}
	tb.Put(1, 2, 9)
	tb.TouchSlot(5)
	pool.PutWritten(tb, payload)
	for i, v := range payload {
		logged := i == tb.Index(1, 2) || i == 5
		if logged && v != 0 || !logged && v != 100+i {
			t.Fatalf("logged clear: payload[%d] = %d", i, v)
		}
	}
	tb.Put(3, 3, 1)
	tb.Put(3, 4, 2)
	if !tb.Overflowed() {
		t.Fatal("four written slots left a 4-entry log open")
	}
	pool.PutWritten(tb, payload)
	for i, v := range payload {
		if v != 0 {
			t.Fatalf("overflowed clear: payload[%d] = %d", i, v)
		}
	}
	mustPanic(t, "PutWritten with a short payload", func() { pool.PutWritten(tb, payload[:3]) })
}

// TestReleaseOrdering pins the pool's ordering rule: payloads are
// cleared through a table before PutTable, never after, and a table is
// released once.
func TestReleaseOrdering(t *testing.T) {
	var pool ArrayPool[uint32]
	tb := GetTable(2, 8)
	s := pool.Get(16)
	tb.Put(0, 3, 7)
	s[tb.Index(0, 3)] = 1
	pool.PutWritten(tb, s)
	PutTable(tb)
	mustPanic(t, "PutWritten through a released table", func() { pool.PutWritten(tb, make([]uint32, 16)) })
	mustPanic(t, "a second PutTable", func() { PutTable(tb) })

	again := GetTable(2, 8)
	defer PutTable(again)
	if _, ok := again.Lookup(0, 7); ok || again.StampAt(again.Index(0, 3)) != 0 {
		t.Fatal("recycled table kept its previous contents")
	}
	for i, v := range pool.Get(16) {
		if v != 0 {
			t.Fatalf("recycled payload[%d] = %d", i, v)
		}
	}
}

// TestRestorePreconditions checks Restore rejects a geometry mismatch
// and a destination that has been written since its last Reset.
func TestRestorePreconditions(t *testing.T) {
	src := NewTable(4, 2)
	src.Put(2, 1, 42)
	sn := src.Snapshot()
	mustPanic(t, "Restore into another geometry", func() { NewTable(2, 4).Restore(sn) })
	mustPanic(t, "Restore of a tagged snapshot into a tag-less table", func() { NewTaglessTable(4, 2).Restore(sn) })
	mustPanic(t, "Restore of a tag-less snapshot into a tagged table", func() { NewTable(4, 2).Restore(NewTaglessTable(4, 2).Snapshot()) })
	used := NewTable(4, 2)
	used.TouchSlot(0)
	mustPanic(t, "Restore into a written table", func() { used.Restore(sn) })
	used.Reset()
	used.Restore(sn)
	if w, ok := used.Lookup(2, 42); !ok || w != 1 {
		t.Fatalf("restored Lookup = %d,%v", w, ok)
	}
	if got, want := sn.SizeBytes(), src.Snapshot().SizeBytes(); got != want || got <= 0 {
		t.Fatalf("SizeBytes = %d, a second capture %d", got, want)
	}
}

// TestSnapshotTakesLoggedSlotsOnce checks the logged capture path: a
// slot invalidated and written again is logged twice but captured once,
// and a touched invalid slot is captured with its stamp.
func TestSnapshotTakesLoggedSlotsOnce(t *testing.T) {
	tb := NewTable(4, 8) // a 4-entry log
	tb.Put(1, 1, 5)
	tb.Invalidate(1, 1)
	tb.Put(1, 1, 6)
	tb.Touch(2, 0)
	if len(tb.written) != 3 || tb.Overflowed() {
		t.Fatalf("log = %v, want three entries, open", tb.written)
	}
	sn := tb.Snapshot()
	if got := len(sn.slots); got != 2 {
		t.Fatalf("captured %d slots (%v), want 2", got, sn.slots)
	}
	cp := NewTable(4, 8)
	cp.Restore(sn)
	if k, ok := cp.KeyAt(1, 1); !ok || k != 6 || cp.StampAt(cp.Index(2, 0)) != tb.StampAt(tb.Index(2, 0)) {
		t.Fatalf("restored slot (1,1) = %d,%v, stamp of (2,0) = %d", k, ok, cp.StampAt(cp.Index(2, 0)))
	}
}

// TestSnapshotSizeBytes pins the snapshot byte accounting: a snapshot is
// charged its header and the arrays it holds, so a tag-less snapshot,
// which holds no keys, costs 8 bytes per captured slot less than a
// tagged one of the same slots.
func TestSnapshotSizeBytes(t *testing.T) {
	tagged, tagless := NewTable(4, 8), NewTaglessTable(4, 8)
	for _, tb := range []*Table{tagged, tagless} {
		put(tb, 1, 1, 5)
		put(tb, 2, 0, 6)
		tb.Invalidate(2, 0)
		put(tb, 3, 7, 7)
	}
	a, b := tagged.Snapshot(), tagless.Snapshot()
	if len(b.slots) != 2 || b.keys != nil {
		t.Fatalf("tag-less snapshot holds %d slots and %d keys, want 2 and none", len(b.slots), len(b.keys))
	}
	want := int64(unsafe.Sizeof(*b)) + int64(cap(b.slots))*4 + int64(cap(b.stamps))*8
	if got := b.SizeBytes(); got != want {
		t.Errorf("tag-less SizeBytes = %d, want %d", got, want)
	}
	if got := a.SizeBytes() - b.SizeBytes(); got != 2*8 {
		t.Errorf("tagged snapshot costs %d bytes more than tag-less, want 16 (two keys)", got)
	}
}

package cache

import (
	"reflect"
	"testing"
)

// TestTableLayout pins the Table's one-array validity encoding: a slot is
// valid iff its keys entry is non-zero (its stamp, on a tag-less table),
// so no per-slot bool array may come back beside keys (a probe would read
// two arrays again), and a tag-less table holds no keys at all.
func TestTableLayout(t *testing.T) {
	typ := reflect.TypeOf(Table{})
	for i := 0; i < typ.NumField(); i++ {
		f := typ.Field(i)
		if f.Type.Kind() == reflect.Slice && f.Type.Elem().Kind() == reflect.Bool {
			t.Errorf("Table.%s is a per-slot bool array; validity lives in keys", f.Name)
		}
	}
	if tb := NewTaglessTable(4, 2); tb.keys != nil {
		t.Errorf("NewTaglessTable holds a %d-entry keys array", len(tb.keys))
	}
	// Released tables of both kinds share a geometry; each Get must
	// still return its own kind.
	PutTable(NewTable(4, 2))
	PutTable(NewTaglessTable(4, 2))
	tagless, tagged := GetTagless(4, 2), GetTable(4, 2)
	defer PutTable(tagless)
	defer PutTable(tagged)
	if tagless.keys != nil {
		t.Errorf("GetTagless returned a table holding a %d-entry keys array", len(tagless.keys))
	}
	if tagged.keys == nil {
		t.Error("GetTable returned a tag-less table")
	}
}

// tableModel is the reference the fuzzer checks a Table against: valid
// slots of a tagged table map to their key, and every touched slot maps
// to its LRU stamp. A tag-less table's valid slots are its stamped ones.
type tableModel struct {
	tagged     bool
	sets, ways int
	keys       map[int]uint64
	stamps     map[int]uint64
	clock      uint64
}

func (m *tableModel) touch(i int) {
	m.clock++
	m.stamps[i] = m.clock
}

// put models the install operation: Put on a tagged table, Touch on a
// tag-less one (see put).
func (m *tableModel) put(i int, key uint64) {
	if m.tagged {
		m.keys[i] = key
	}
	m.touch(i)
}

func (m *tableModel) valid(i int) bool {
	if m.tagged {
		_, ok := m.keys[i]
		return ok
	}
	_, ok := m.stamps[i]
	return ok
}

func (m *tableModel) reset() {
	m.keys, m.stamps, m.clock = map[int]uint64{}, map[int]uint64{}, 0
}

func (m *tableModel) lookup(set int, key uint64) (int, bool) {
	for w := 0; w < m.ways; w++ {
		if k, ok := m.keys[set*m.ways+w]; ok && k == key {
			return w, true
		}
	}
	return -1, false
}

func (m *tableModel) victim(set, ways int, score func(int) int) int {
	if ways <= 0 || ways > m.ways {
		ways = m.ways
	}
	best := -1
	for w := 0; w < ways; w++ {
		i := set*m.ways + w
		if !m.valid(i) {
			return w
		}
		if best == -1 {
			best = w
			continue
		}
		s, bs := 0, 0
		if score != nil {
			s, bs = score(w), score(best)
		}
		if s > bs || (s == bs && m.stamps[i] < m.stamps[set*m.ways+best]) {
			best = w
		}
	}
	return best
}

// put is the install operation of either kind of table: Put on a tagged
// table, Touch on a tag-less one (a data store's install).
func put(tb *Table, set, way int, key uint64) {
	if tb.keys != nil {
		tb.Put(set, way, key)
	} else {
		tb.Touch(set, way)
	}
}

// fuzzKey maps a byte onto the keys that matter: 0 (stored as 1, next
// to the invalid marker), the largest storable key, the reserved
// ^uint64(0), keys just below it, and a small colliding range.
func fuzzKey(b byte) uint64 {
	switch b % 8 {
	case 0:
		return 0
	case 1:
		return ^uint64(0) - 1
	case 2:
		return ^uint64(0)
	case 3:
		return ^uint64(0) - 1 - uint64(b>>3)
	default:
		return uint64(b >> 3)
	}
}

// FuzzTable drives random Put/Lookup/Invalidate/Touch/victim-selection
// sequences (plus sparse snapshot round trips, payload clears and Reset)
// against tableModel, checking every slot's key, validity and stamp and
// the write log after each operation. Every sequence runs twice: on a
// tagged table and on a tag-less one, where Put becomes Touch (which
// validates the slot) and Lookup, Put, KeyAt, SlotKey and ForEach must
// panic. Put of the reserved key ^uint64(0) must panic and leave the
// table unchanged. The fuzzed geometries hold at most 20 slots, so
// their write logs (one entry per 8 slots) are small and overflow
// quickly: both the logged and the overflowed paths of Reset, Snapshot
// and ArrayPool.PutWritten run.
func FuzzTable(f *testing.F) {
	f.Add(byte(0), []byte{})
	f.Add(byte(5), []byte{0x00, 0x01, 0x14, 0x02, 0x0b, 0x11, 0x03, 0x00, 0x16, 0x04, 0x01, 0x00})
	f.Add(byte(14), []byte{0x00, 0x02, 0x00, 0x0a, 0x01, 0x01, 0x05, 0x00, 0x06, 0x00, 0x07, 0x33})
	f.Fuzz(func(t *testing.T, geom byte, ops []byte) {
		fuzzTableOps(t, geom, ops, true)
		fuzzTableOps(t, geom, ops, false)
	})
}

func fuzzTableOps(t *testing.T, geom byte, ops []byte, tagged bool) {
	sets, ways := 1<<(geom%3), 1+int(geom>>2)%5
	tb := newTable(sets, ways, tagged)
	m := &tableModel{tagged: tagged, sets: sets, ways: ways}
	m.reset()
	next := func() byte {
		if len(ops) == 0 {
			return 0
		}
		b := ops[0]
		ops = ops[1:]
		return b
	}
	for step := 0; len(ops) > 0; step++ {
		op, arg := next(), next()
		set, way, key := int(op>>3)%sets, int(arg)%ways, fuzzKey(arg)
		switch op % 10 {
		case 0, 1: // Put
			if tagged && key == ^uint64(0) {
				mustPanic(t, "Put of the reserved key", func() { tb.Put(set, way, key) })
				break
			}
			put(tb, set, way, key)
			m.put(set*ways+way, key)
		case 2: // Lookup
			if !tagged {
				mustPanic(t, "Lookup on a tag-less table", func() { tb.Lookup(set, key) })
				mustPanic(t, "Put on a tag-less table", func() { tb.Put(set, way, key&1) })
				mustPanic(t, "KeyAt on a tag-less table", func() { tb.KeyAt(set, way) })
				mustPanic(t, "SlotKey on a tag-less table", func() { tb.SlotKey(tb.Index(set, way)) })
				mustPanic(t, "ForEach on a tag-less table", func() { tb.ForEach(func(int, int, uint64) {}) })
				break
			}
			gw, gok := tb.Lookup(set, key)
			if ww, wok := m.lookup(set, key); gw != ww || gok != wok {
				t.Fatalf("step %d: Lookup(%d, %#x) = %d,%v, want %d,%v", step, set, key, gw, gok, ww, wok)
			}
		case 3: // Invalidate
			tb.Invalidate(set, way)
			delete(m.keys, set*ways+way)
			delete(m.stamps, set*ways+way)
		case 4: // Touch
			if arg&1 == 0 {
				tb.Touch(set, way)
			} else {
				tb.TouchSlot(tb.Index(set, way))
			}
			m.touch(set*ways + way)
		case 5: // VictimWayScoredIn
			active := int(arg>>4) - 2 // exercises <= 0 and > ways
			scores := []byte{next(), next(), next(), next(), next()}
			var score func(int) int
			if arg&1 != 0 {
				score = func(w int) int { return int(scores[w] % 3) }
			}
			if got, want := tb.VictimWayScoredIn(set, active, score), m.victim(set, active, score); got != want {
				t.Fatalf("step %d: VictimWayScoredIn(%d, %d) = %d, want %d", step, set, active, got, want)
			}
		case 6: // continue on a snapshot copy
			cp := newTable(sets, ways, tagged)
			if arg&1 != 0 {
				// A recycled table: written, then Reset.
				put(cp, 0, 0, 7)
				cp.Reset()
			}
			cp.Restore(tb.Snapshot())
			tb = cp
		case 7: // release a parallel payload, then Reset
			checkPayloadClear(t, step, tb)
			tb.Reset()
			m.reset()
			checkPristine(t, step, tb)
		case 8: // sparse capture, restore into a fresh table, compare
			cp := newTable(sets, ways, tagged)
			cp.Restore(tb.Snapshot())
			checkSame(t, step, cp, tb)
			if key == ^uint64(0) {
				key = 0
			}
			put(tb, set, way, key)
			put(cp, set, way, key)
			if got, want := cp.StampAt(cp.Index(set, way)), tb.StampAt(tb.Index(set, way)); got != want {
				t.Fatalf("step %d: restored table's next Put stamped %d, source %d", step, got, want)
			}
			m.put(set*ways+way, key)
			tb = cp
		case 9: // overflow the write log, then Reset
			for i := 0; i < sets*ways; i++ {
				if arg&1 == 0 {
					tb.TouchSlot(i)
				} else {
					put(tb, i/ways, i%ways, uint64(i))
				}
			}
			if !tb.Overflowed() {
				t.Fatalf("step %d: writing all %d slots left the %d-entry log open", step, sets*ways, cap(tb.written))
			}
			checkPayloadClear(t, step, tb)
			tb.Reset()
			m.reset()
			checkPristine(t, step, tb)
		}
		checkTable(t, step, tb, m)
	}
}

// checkPayloadClear releases a payload array parallel to tb, non-zero
// at every slot holding a key or a stamp, and checks that PutWritten
// accepts its sets*ways elements and clears all of them. It reads the
// slice after release, which is safe because the pool is its own.
func checkPayloadClear(t *testing.T, step int, tb *Table) {
	t.Helper()
	var pool ArrayPool[int]
	payload := make([]int, tb.sets*tb.ways)
	for i := range payload {
		if tb.live(i) {
			payload[i] = i + 1
		}
	}
	pool.PutWritten(tb, payload)
	for i, v := range payload {
		if v != 0 {
			t.Fatalf("step %d: PutWritten left payload[%d] = %d", step, i, v)
		}
	}
}

// checkTable compares every observable of tb against the model, and
// checks that the write log names every slot holding a key or a stamp.
func checkTable(t *testing.T, step int, tb *Table, m *tableModel) {
	t.Helper()
	checkLog(t, step, tb)
	if m.tagged {
		visited := 0
		tb.ForEach(func(set, way int, key uint64) {
			visited++
			if want, ok := m.keys[set*m.ways+way]; !ok || want != key {
				t.Fatalf("step %d: ForEach visited (%d,%d) key %#x, model has %#x valid=%v", step, set, way, key, want, ok)
			}
		})
		if visited != len(m.keys) {
			t.Fatalf("step %d: ForEach visited %d slots, model has %d valid", step, visited, len(m.keys))
		}
	}
	for set := 0; set < m.sets; set++ {
		n := 0
		for w := 0; w < m.ways; w++ {
			i := tb.Index(set, w)
			valid := m.valid(i)
			if tb.Valid(set, w) != valid {
				t.Fatalf("step %d: slot (%d,%d) valid=%v, model %v", step, set, w, tb.Valid(set, w), valid)
			}
			if m.tagged {
				want := m.keys[i]
				k, ok := tb.KeyAt(set, w)
				sk, sok := tb.SlotKey(i)
				if ok != valid || sok != valid || (valid && (k != want || sk != want)) {
					t.Fatalf("step %d: slot (%d,%d) = %#x,%v, model %#x,%v", step, set, w, k, ok, want, valid)
				}
			}
			if valid {
				n++
			}
			if got := tb.StampAt(i); got != m.stamps[i] {
				t.Fatalf("step %d: StampAt(%d) = %d, model %d", step, i, got, m.stamps[i])
			}
		}
		if got := tb.CountValid(set); got != n {
			t.Fatalf("step %d: CountValid(%d) = %d, model %d", step, set, got, n)
		}
	}
}

// checkLog checks the write log's invariant: unless the log filled up,
// every slot with a non-zero key or stamp is logged.
func checkLog(t *testing.T, step int, tb *Table) {
	t.Helper()
	if len(tb.written) > cap(tb.written) {
		t.Fatalf("step %d: log grew past its %d entries", step, cap(tb.written))
	}
	if tb.Overflowed() {
		return
	}
	inLog := map[int]bool{}
	for _, i := range tb.written {
		inLog[int(i)] = true
	}
	for i := range tb.stamp {
		if tb.live(i) && !inLog[i] {
			t.Fatalf("step %d: slot %d holds state (stamp %d) but is not logged", step, i, tb.stamp[i])
		}
	}
}

// checkPristine checks that a Reset table equals a freshly built one of
// its kind, write log included.
func checkPristine(t *testing.T, step int, tb *Table) {
	t.Helper()
	if fresh := newTable(tb.sets, tb.ways, tb.keys != nil); !reflect.DeepEqual(tb, fresh) {
		t.Fatalf("step %d: Reset table %+v differs from a new one %+v", step, tb, fresh)
	}
}

// checkSame compares every observable of a restored table against its
// source: keys (of a tagged table), validity, stamps and per-set valid
// counts.
func checkSame(t *testing.T, step int, got, want *Table) {
	t.Helper()
	for set := 0; set < want.sets; set++ {
		for w := 0; w < want.ways; w++ {
			i := want.Index(set, w)
			if got.Valid(set, w) != want.Valid(set, w) || got.StampAt(i) != want.StampAt(i) {
				t.Fatalf("step %d: restored slot (%d,%d) valid=%v stamp %d, source valid=%v stamp %d",
					step, set, w, got.Valid(set, w), got.StampAt(i), want.Valid(set, w), want.StampAt(i))
			}
			if want.keys == nil {
				continue
			}
			gk, gok := got.KeyAt(set, w)
			wk, wok := want.KeyAt(set, w)
			if gk != wk || gok != wok {
				t.Fatalf("step %d: restored slot (%d,%d) = %#x,%v, source %#x,%v", step, set, w, gk, gok, wk, wok)
			}
		}
		if g, w := got.CountValid(set), want.CountValid(set); g != w {
			t.Fatalf("step %d: restored CountValid(%d) = %d, source %d", step, set, g, w)
		}
	}
}

package cache

import (
	"reflect"
	"testing"
)

// TestTableLayout pins the Table's one-array validity encoding: a slot is
// valid iff its keys entry is non-zero, so no per-slot bool array may
// come back beside keys (a probe would read two arrays again).
func TestTableLayout(t *testing.T) {
	typ := reflect.TypeOf(Table{})
	for i := 0; i < typ.NumField(); i++ {
		f := typ.Field(i)
		if f.Type.Kind() == reflect.Slice && f.Type.Elem().Kind() == reflect.Bool {
			t.Errorf("Table.%s is a per-slot bool array; validity lives in keys", f.Name)
		}
	}
}

// tableModel is the reference the fuzzer checks a Table against: valid
// slots map to their key, and every touched slot maps to its LRU stamp.
type tableModel struct {
	sets, ways int
	keys       map[int]uint64
	stamps     map[int]uint64
	clock      uint64
}

func (m *tableModel) touch(i int) {
	m.clock++
	m.stamps[i] = m.clock
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
		if _, ok := m.keys[i]; !ok {
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
// sequences (plus sparse snapshot round trips and Reset) against
// tableModel, checking every slot's key, validity and stamp and the
// write log after each operation. Put of the reserved key ^uint64(0)
// must panic and leave the table unchanged. The fuzzed geometries hold
// at most 20 slots, so their write logs (one entry per 8 slots) are
// small and overflow quickly: both the logged and the overflowed paths
// of Reset and Snapshot run.
func FuzzTable(f *testing.F) {
	f.Add(byte(0), []byte{})
	f.Add(byte(5), []byte{0x00, 0x01, 0x14, 0x02, 0x0b, 0x11, 0x03, 0x00, 0x16, 0x04, 0x01, 0x00})
	f.Add(byte(14), []byte{0x00, 0x02, 0x00, 0x0a, 0x01, 0x01, 0x05, 0x00, 0x06, 0x00, 0x07, 0x33})
	f.Fuzz(func(t *testing.T, geom byte, ops []byte) {
		sets, ways := 1<<(geom%3), 1+int(geom>>2)%5
		tb := NewTable(sets, ways)
		m := &tableModel{sets: sets, ways: ways, keys: map[int]uint64{}, stamps: map[int]uint64{}}
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
				if key == ^uint64(0) {
					func() {
						defer func() {
							if recover() == nil {
								t.Fatalf("step %d: Put(%d, %d, ^0) did not panic", step, set, way)
							}
						}()
						tb.Put(set, way, key)
					}()
					break
				}
				tb.Put(set, way, key)
				m.keys[set*ways+way] = key
				m.touch(set*ways + way)
			case 2: // Lookup
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
				cp := NewTable(sets, ways)
				if arg&1 != 0 {
					// A recycled table: written, then Reset.
					cp.Put(0, 0, 7)
					cp.Reset()
				}
				cp.Restore(tb.Snapshot())
				tb = cp
			case 7: // Reset
				tb.Reset()
				m.keys, m.stamps, m.clock = map[int]uint64{}, map[int]uint64{}, 0
				checkPristine(t, step, tb)
			case 8: // sparse capture, restore into a fresh table, compare
				cp := NewTable(sets, ways)
				cp.Restore(tb.Snapshot())
				checkSame(t, step, cp, tb)
				if key == ^uint64(0) {
					key = 0
				}
				tb.Put(set, way, key)
				cp.Put(set, way, key)
				if got, want := cp.StampAt(cp.Index(set, way)), tb.StampAt(tb.Index(set, way)); got != want {
					t.Fatalf("step %d: restored table's next Put stamped %d, source %d", step, got, want)
				}
				m.keys[set*ways+way] = key
				m.touch(set*ways + way)
				tb = cp
			case 9: // overflow the write log, then Reset
				for i := 0; i < sets*ways; i++ {
					if arg&1 == 0 {
						tb.TouchSlot(i)
					} else {
						tb.Put(i/ways, i%ways, uint64(i))
					}
				}
				if !tb.Overflowed() {
					t.Fatalf("step %d: writing all %d slots left the %d-entry log open", step, sets*ways, cap(tb.written))
				}
				tb.Reset()
				m.keys, m.stamps, m.clock = map[int]uint64{}, map[int]uint64{}, 0
				checkPristine(t, step, tb)
			}
			checkTable(t, step, tb, m)
		}
	})
}

// checkTable compares every observable of tb against the model, and
// checks that the write log names every slot holding a key or a stamp.
func checkTable(t *testing.T, step int, tb *Table, m *tableModel) {
	t.Helper()
	checkLog(t, step, tb)
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
	for set := 0; set < m.sets; set++ {
		n := 0
		for w := 0; w < m.ways; w++ {
			i := tb.Index(set, w)
			want, wok := m.keys[i]
			k, ok := tb.KeyAt(set, w)
			sk, sok := tb.SlotKey(i)
			if ok != wok || sok != wok || tb.Valid(set, w) != wok || (wok && (k != want || sk != want)) {
				t.Fatalf("step %d: slot (%d,%d) = %#x,%v, model %#x,%v", step, set, w, k, ok, want, wok)
			}
			if wok {
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
	for i := range tb.keys {
		if tb.live(i) && !inLog[i] {
			t.Fatalf("step %d: slot %d holds key %#x stamp %d but is not logged", step, i, tb.keys[i], tb.stamp[i])
		}
	}
}

// checkPristine checks that a Reset table equals a freshly built one,
// write log included.
func checkPristine(t *testing.T, step int, tb *Table) {
	t.Helper()
	if fresh := NewTable(tb.sets, tb.ways); !reflect.DeepEqual(tb, fresh) {
		t.Fatalf("step %d: Reset table %+v differs from NewTable %+v", step, tb, fresh)
	}
}

// checkSame compares every observable of a restored table against its
// source: keys, validity, stamps and per-set valid counts.
func checkSame(t *testing.T, step int, got, want *Table) {
	t.Helper()
	for set := 0; set < want.sets; set++ {
		for w := 0; w < want.ways; w++ {
			i := want.Index(set, w)
			gk, gok := got.KeyAt(set, w)
			wk, wok := want.KeyAt(set, w)
			if gk != wk || gok != wok || got.StampAt(i) != want.StampAt(i) {
				t.Fatalf("step %d: restored slot (%d,%d) = %#x,%v stamp %d, source %#x,%v stamp %d",
					step, set, w, gk, gok, got.StampAt(i), wk, wok, want.StampAt(i))
			}
		}
		if g, w := got.CountValid(set), want.CountValid(set); g != w {
			t.Fatalf("step %d: restored CountValid(%d) = %d, source %d", step, set, g, w)
		}
	}
}

package cache

import (
	"sync"
	"sync/atomic"
)

// Cold simulations construct and discard an entire cache hierarchy per
// job: an 8 MB LLC alone is 131,072 slots, 3 MiB of table and payload
// arrays (24 B a line: the split hierarchy's 16 B data-store slot plus
// the 8 B stamp of its tag-less table), whose allocation (and the GC
// cycles it forces) would dominate short jobs. The pools below recycle
// those arrays: a released object is handed back in its pristine zero
// state instead of being reallocated.
// Pooled reuse is exact because every recycled object is byte-identical
// to a freshly constructed one.
//
// A short run writes a few thousand of those slots, so clearing is paid
// per slot written, not per slot owned, and by the run that wrote
// them: each Table logs the slots it wrote (see Table), and at release
// a payload array parallel to a table is cleared through the table's
// log (ArrayPool.PutWritten), then PutTable resets the table itself
// through it. A table whose log overflowed clears its arrays whole,
// exactly as if there were no log.

// Reset returns the table to its pristine empty state in place,
// equivalent to a fresh NewTable of the same geometry.
func (t *Table) Reset() {
	if t.Overflowed() {
		clear(t.keys)
		clear(t.stamp)
	} else {
		for _, i := range t.written {
			t.stamp[i] = 0
		}
		if t.keys != nil {
			for _, i := range t.written {
				t.keys[i] = 0
			}
		}
	}
	t.written = t.written[:0]
	t.clock = 0
}

// geom keys the table pools; tagged and tag-less tables of one
// geometry never share a pool.
type geom struct {
	sets, ways int
	tagged     bool
}

var tablePool sync.Map // geom -> *sync.Pool of *Table

// tableBalance counts GetTable calls minus PutTable calls. A system
// that releases every pooled object it acquired leaves the balance
// where it found it; the leak tests assert exactly that across
// cancelled and failed runs.
var tableBalance atomic.Int64

// TableBalance returns outstanding pooled tables: GetTable calls minus
// PutTable calls since process start.
func TableBalance() int64 { return tableBalance.Load() }

// GetTable returns a pristine table, reusing a previously released one
// of the same geometry when available.
func GetTable(sets, ways int) *Table { return getTable(geom{sets, ways, true}) }

// GetTagless is GetTable for a tag-less table (NewTaglessTable).
func GetTagless(sets, ways int) *Table { return getTable(geom{sets, ways, false}) }

func getTable(g geom) *Table {
	tableBalance.Add(1)
	if p, ok := tablePool.Load(g); ok {
		if v := p.(*sync.Pool).Get(); v != nil {
			t := v.(*Table)
			t.pooled = false
			return t
		}
	}
	return newTable(g.sets, g.ways, g.tagged)
}

// PutTable resets t and releases it for reuse by a later GetTable. The
// caller must not touch t afterwards, and must have released every
// payload array parallel to t first: ArrayPool.PutWritten reads the
// write log that the reset empties, so a clear through a released
// table panics.
func PutTable(t *Table) {
	if t == nil {
		return
	}
	if t.pooled {
		panic("cache: PutTable of a table already released")
	}
	t.Reset()
	t.pooled = true
	tableBalance.Add(-1)
	// Load before LoadOrStore: LoadOrStore boxes its key and a fresh
	// Pool on every call, allocations a release should not pay.
	g := geom{t.sets, t.ways, t.keys != nil}
	p, ok := tablePool.Load(g)
	if !ok {
		p, _ = tablePool.LoadOrStore(g, &sync.Pool{})
	}
	p.(*sync.Pool).Put(t)
}

// ArrayPool recycles equal-length payload slices (the caller-side
// arrays that parallel a Table's slots: data-store slots, metadata
// entry pointers, coherence state). Get returns a zeroed slice;
// PutWritten zeroes the slice through its table's write log before
// pooling it, so pooled pointer slices do not retain their dead
// referents.
type ArrayPool[T any] struct {
	byLen   sync.Map // int -> *sync.Pool
	balance atomic.Int64
}

// Get returns a zeroed slice of length n.
func (p *ArrayPool[T]) Get(n int) []T {
	p.balance.Add(1)
	if sp, ok := p.byLen.Load(n); ok {
		if v := sp.(*sync.Pool).Get(); v != nil {
			return v.([]T)
		}
	}
	return make([]T, n)
}

// PutWritten releases s, a payload array parallel to t, for reuse by a
// later Get of the same length. It zeroes s at every slot t logged
// since its last Reset (all of s once the log overflowed), so every
// non-zero element of s must sit at a slot t logged, and it must run
// before PutTable(t), which empties the log (a clear through a released
// table panics). The caller must not touch s afterwards.
func (p *ArrayPool[T]) PutWritten(t *Table, s []T) {
	if s == nil {
		return
	}
	if len(s) != len(t.stamp) {
		panic("cache: payload length does not match the table")
	}
	if t.pooled {
		panic("cache: payload cleared through a table already released by PutTable")
	}
	if t.Overflowed() {
		clear(s)
	} else {
		var zero T
		for _, i := range t.written {
			s[i] = zero
		}
	}
	p.balance.Add(-1)
	sp, ok := p.byLen.Load(len(s))
	if !ok {
		sp, _ = p.byLen.LoadOrStore(len(s), &sync.Pool{})
	}
	sp.(*sync.Pool).Put(s)
}

// Balance returns outstanding slices: Get calls minus PutWritten calls.
func (p *ArrayPool[T]) Balance() int64 { return p.balance.Load() }

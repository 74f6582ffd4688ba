package cache

import (
	"sync"
	"sync/atomic"
)

// Cold simulations construct and discard an entire cache hierarchy per
// job — several megabytes of table and payload arrays whose allocation
// (and the GC cycles it forces) dominates short jobs. The pools below
// recycle those arrays: a released object is handed back, reset to its
// pristine zero state, instead of being reallocated. Pooled reuse is
// exact because every recycled object is byte-identical to a freshly
// constructed one.

// Reset returns the table to its pristine empty state in place,
// equivalent to a fresh NewTable of the same geometry.
func (t *Table) Reset() {
	clear(t.keys)
	clear(t.stamp)
	t.clock = 0
}

type geom struct{ sets, ways int }

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
func GetTable(sets, ways int) *Table {
	tableBalance.Add(1)
	if p, ok := tablePool.Load(geom{sets, ways}); ok {
		if v := p.(*sync.Pool).Get(); v != nil {
			t := v.(*Table)
			t.Reset()
			return t
		}
	}
	return NewTable(sets, ways)
}

// PutTable releases t for reuse by a later GetTable. The caller must
// not touch t afterwards.
func PutTable(t *Table) {
	if t == nil {
		return
	}
	tableBalance.Add(-1)
	p, _ := tablePool.LoadOrStore(geom{t.sets, t.ways}, &sync.Pool{})
	p.(*sync.Pool).Put(t)
}

// ArrayPool recycles equal-length payload slices (the caller-side
// arrays that parallel a Table's slots: data-store slots, metadata
// entry pointers, recency stamps). Get returns a zeroed slice; Put
// clears the slice before pooling it, so pooled pointer slices do not
// retain their dead referents.
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

// Put releases s for reuse by a later Get of the same length. The
// caller must not touch s afterwards.
func (p *ArrayPool[T]) Put(s []T) {
	if s == nil {
		return
	}
	p.balance.Add(-1)
	clear(s)
	sp, _ := p.byLen.LoadOrStore(len(s), &sync.Pool{})
	sp.(*sync.Pool).Put(s)
}

// Balance returns outstanding slices: Get calls minus Put calls.
func (p *ArrayPool[T]) Balance() int64 { return p.balance.Load() }

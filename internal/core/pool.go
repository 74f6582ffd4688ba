package core

import "d2m/internal/cache"

// Array pools behind NewSystem/Release: a cold simulation builds and
// discards a whole hierarchy, and these arrays (data-store slots and
// metadata entry pointers) are nearly all of its allocated bytes.
// Recycling them keeps the service's cold-job GC load flat. Reuse is
// exact: pooled arrays come back zeroed, identical to fresh make()s.
// Each array parallels one table and is only ever written at slots that
// table has logged, so Release clears it through the table's write log
// (cache.ArrayPool.PutWritten) before the table itself goes back.
var (
	slotArrays    cache.ArrayPool[slot]
	nodeRegArrays cache.ArrayPool[*nodeRegion]
	dirRegArrays  cache.ArrayPool[*dirRegion]
)

// PoolBalance returns outstanding pooled arrays (Gets minus Puts)
// across the package's construction pools. A process in which every
// System was Released reads zero; the leak tests assert it stays put
// across cancelled and failed runs.
func PoolBalance() int64 {
	return slotArrays.Balance() + nodeRegArrays.Balance() + dirRegArrays.Balance()
}

// Release returns the system's large backing arrays (every data store,
// metadata table and entry array) to internal pools for reuse by a
// later NewSystem. The system must not be used afterwards; callers that
// own the system's whole lifecycle (run-and-extract paths) call this to
// take system construction off the cold-path allocation bill. Its cost
// follows the slots the run wrote, not the hierarchy's capacity.
func (s *System) Release() {
	for _, n := range s.nodes {
		nodeRegArrays.PutWritten(n.md1i, n.md1iEnt)
		nodeRegArrays.PutWritten(n.md1d, n.md1dEnt)
		nodeRegArrays.PutWritten(n.md2, n.md2Ent)
		cache.PutTable(n.md1i)
		cache.PutTable(n.md1d)
		cache.PutTable(n.md2)
		n.l1i.release()
		n.l1d.release()
		if n.l2 != nil {
			n.l2.release()
		}
		n.md1i, n.md1d, n.md2 = nil, nil, nil
		n.md1iEnt, n.md1dEnt, n.md2Ent = nil, nil, nil
	}
	for _, sl := range s.slices {
		sl.release()
	}
	if s.far != nil {
		s.far.release()
		s.far = nil
	}
	dirRegArrays.PutWritten(s.md3, s.md3Ent)
	cache.PutTable(s.md3)
	s.nodes, s.slices, s.md3, s.md3Ent = nil, nil, nil, nil
}

package baseline

import "d2m/internal/cache"

// Array pools behind NewSystem/Release, mirroring the core package:
// the per-cache state arrays and the LLC directory are nearly all of a
// cold job's allocated bytes, so recycling them keeps GC load flat.
// Release clears each array through its table's write log before the
// table goes back (cache.ArrayPool.PutWritten).
var (
	stateArrays cache.ArrayPool[state]
	boolArrays  cache.ArrayPool[bool]
	dirArrays   cache.ArrayPool[dirEntry]
)

// PoolBalance returns outstanding pooled arrays (Gets minus Puts)
// across the package's construction pools, for the leak tests.
func PoolBalance() int64 {
	return stateArrays.Balance() + boolArrays.Balance() + dirArrays.Balance()
}

// Release returns the system's large backing arrays (every cache table
// and the directory) to internal pools for reuse by a later NewSystem.
// The system must not be used afterwards.
func (s *System) Release() {
	for _, n := range s.nodes {
		cache.PutTable(n.tlb)
		cache.PutTable(n.tlb2)
		n.l1i.release()
		n.l1d.release()
		if n.l2 != nil {
			n.l2.release()
		}
		n.tlb, n.tlb2 = nil, nil
	}
	dirArrays.PutWritten(s.llc, s.dir)
	cache.PutTable(s.llc)
	s.nodes, s.llc, s.dir = nil, nil, nil
}

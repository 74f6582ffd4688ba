package kernels

import (
	"fmt"

	"d2m/internal/mem"
	"d2m/internal/trace"
)

// BFS is a level-synchronous breadth-first search over a synthetic
// CSR graph: vertices are range-partitioned, the adjacency structure is
// read sequentially per vertex, but neighbor visits scatter across the
// whole shared `visited` array — the pointer-chasing, low-locality
// pattern the paper's cnn/graph workloads stand in for. Neighbor lists
// are generated from a deterministic hash, so the trace is reproducible
// without storing the graph.
type BFS struct {
	Vertices int // vertex count (power of two)
	Degree   int // out-degree per vertex
}

// Name implements Kernel.
func (BFS) Name() string { return "bfs" }

// Description implements Kernel.
func (k BFS) Description() string {
	return fmt.Sprintf("level-synchronous BFS, %d vertices, degree %d, shared visited array", k.Vertices, k.Degree)
}

// Streams implements Kernel.
func (k BFS) Streams(nodes int) []trace.Stream {
	check(k.Vertices > 0 && k.Vertices&(k.Vertices-1) == 0, "bfs: Vertices=%d not a power of two", k.Vertices)
	check(k.Degree > 0, "bfs: Degree=%d", k.Degree)
	out := make([]trace.Stream, nodes)
	for n := 0; n < nodes; n++ {
		out[n] = k.stream(n, nodes)
	}
	return out
}

func (k BFS) stream(node, nodes int) trace.Stream {
	rowptr := mem.Addr(sharedBase) + 0x400_0000                          // CSR row offsets, 8B each
	adj := rowptr + mem.Addr(k.Vertices+1)*8                             // CSR neighbor ids, 8B each
	visited := adj + mem.Addr(k.Vertices*k.Degree)*8                     // shared bitmap, 1B granule
	front := mem.Addr(dataBase) + mem.Addr(node)*nodeStride + 0x100_0000 // private frontier queues

	per := k.Vertices / nodes
	lo := node * per

	// The frontier of each level is approximated by walking the node's
	// vertex range in a hash-scrambled order (a real BFS frontier is an
	// unpredictable vertex subset; the scramble reproduces that without
	// storing frontiers). `level` reseeds the scramble per sweep.
	type state struct {
		level    uint64
		v        int // position within the node's range
		frontSeq int
	}
	return newEmitter(node, 4, 16, state{}, func(e *emitter[state], st *state) {
		// Dequeue the vertex (sequential frontier read), fetch its row
		// extent, then scan its neighbors.
		u := lo + int(hashKey(uint64(st.v)+st.level<<20)%uint64(per))
		e.load(front + mem.Addr(st.frontSeq%per)*8)
		e.load(rowptr + mem.Addr(u)*8) // row start (end is on the same or next line)
		for d := 0; d < k.Degree; d++ {
			e.load(adj + mem.Addr(u*k.Degree+d)*8) // neighbor id: sequential
			w := hashKey(uint64(u)<<16|uint64(d)) % uint64(k.Vertices)
			e.load(visited + mem.Addr(w)) // scattered shared read
			if w&15 == 0 {                // ~1/16 newly discovered
				e.store(visited + mem.Addr(w))
				e.store(front + mem.Addr(st.frontSeq%per)*8) // enqueue
				st.frontSeq++
			}
		}
		if st.v++; st.v == per {
			st.v = 0
			st.level++ // next BFS level: new frontier scramble
		}
	})
}

package kernels

import (
	"fmt"

	"d2m/internal/mem"
	"d2m/internal/trace"
)

// MatMul is a blocked dense matrix multiplication C = A·B over N×N
// matrices of 8-byte elements, blocked in Block×Block tiles. Rows of A
// and C are partitioned across nodes (private data); B is read by every
// node (a read-shared region workload — the classification machinery's
// favourable case for replication).
type MatMul struct {
	N     int // matrix dimension
	Block int // tile edge
}

// Name implements Kernel.
func (MatMul) Name() string { return "matmul" }

// Description implements Kernel.
func (k MatMul) Description() string {
	return fmt.Sprintf("blocked %dx%d dense matrix multiply (tile %d), shared B", k.N, k.N, k.Block)
}

// Streams implements Kernel.
func (k MatMul) Streams(nodes int) []trace.Stream {
	check(k.N > 0 && k.Block > 0 && k.N%k.Block == 0, "matmul: N=%d not a multiple of Block=%d", k.N, k.Block)
	out := make([]trace.Stream, nodes)
	for n := 0; n < nodes; n++ {
		out[n] = k.stream(n, nodes)
	}
	return out
}

func (k MatMul) stream(node, nodes int) trace.Stream {
	n8 := mem.Addr(k.N) * 8
	a := mem.Addr(dataBase) + mem.Addr(node)*nodeStride
	c := a + mem.Addr(k.N)*n8
	b := mem.Addr(sharedBase) // one copy, read by everyone

	// Node `node` computes rows [lo, hi) of C — its private band of A
	// and C — using a bj/bk/i/kk blocked loop order over the band.
	per := (k.N + nodes - 1) / nodes
	lo := node * per
	hi := lo + per
	if hi > k.N {
		hi = k.N
	}
	if lo >= hi { // more nodes than rows: surplus nodes redo row 0
		lo, hi = 0, 1
	}
	nb := k.N / k.Block

	type state struct{ bj, bk, i, kk int }
	return newEmitter(node, 0, 12, state{i: lo}, func(e *emitter[state], st *state) {
		// One batch = the inner j-loop for a fixed (i, k): load A[i][k]
		// once, then stream tile bj of B's row k against C's row i.
		bj, i := st.bj, st.i
		ak := st.bk*k.Block + st.kk
		e.load(a + mem.Addr(i)*n8 + mem.Addr(ak)*8) // A[i][k]
		for j := bj * k.Block; j < (bj+1)*k.Block; j++ {
			cij := c + mem.Addr(i)*n8 + mem.Addr(j)*8
			e.load(b + mem.Addr(ak)*n8 + mem.Addr(j)*8) // B[k][j]
			e.load(cij)                                 // C[i][j] +=
			e.store(cij)
		}

		if st.kk++; st.kk < k.Block {
			return
		}
		st.kk = 0
		if st.i++; st.i < hi {
			return
		}
		st.i = lo
		if st.bk++; st.bk < nb {
			return
		}
		st.bk = 0
		if st.bj++; st.bj == nb {
			st.bj = 0 // computation complete: restart
		}
	})
}

package kernels

import (
	"fmt"

	"d2m/internal/mem"
	"d2m/internal/trace"
)

// LU is a right-looking in-place LU factorization (no pivoting) of an
// N×N matrix stored with leading dimension LD elements. With LD a power
// of two (the default registers LD=4096, a 32kB row stride) every
// column walk hits the same cache set — the exact conflict pathology
// §IV-D's dynamic indexing targets, here produced by the algorithm's
// real index arithmetic rather than a synthetic stride. Rows are owned
// cyclically by node; the pivot row is read by everyone, so the matrix
// is genuinely shared.
type LU struct {
	N  int // matrix dimension
	LD int // leading dimension in elements (row stride = LD*8 bytes)
}

// Name implements Kernel.
func (LU) Name() string { return "lu-inplace" }

// Description implements Kernel.
func (k LU) Description() string {
	return fmt.Sprintf("in-place %dx%d LU factorization, leading dimension %d (%.0fkB row stride)",
		k.N, k.N, k.LD, float64(k.LD)*8/1024)
}

// Streams implements Kernel.
func (k LU) Streams(nodes int) []trace.Stream {
	check(k.N > 1 && k.LD >= k.N, "lu: need N>1 and LD>=N, got N=%d LD=%d", k.N, k.LD)
	out := make([]trace.Stream, nodes)
	for n := 0; n < nodes; n++ {
		out[n] = k.stream(n, nodes)
	}
	return out
}

func (k LU) stream(node, nodes int) trace.Stream {
	base := mem.Addr(sharedBase) + 0x100_0000 // one shared matrix
	at := func(i, j int) mem.Addr { return base + (mem.Addr(i)*mem.Addr(k.LD)+mem.Addr(j))*8 }

	// State: pivot column kp, eliminating row i (cyclically owned:
	// node handles rows where i % nodes == node).
	type state struct{ kp, i int }
	return newEmitter(node, 1, 10, state{i: firstRowAfter(0, node, nodes)}, func(e *emitter[state], st *state) {
		if st.i >= k.N {
			// This pivot step has no more owned rows: next pivot.
			st.kp++
			if st.kp >= k.N-1 {
				st.kp = 0 // factorization complete: restart
			}
			st.i = firstRowAfter(st.kp, node, nodes)
			return // no accesses this batch; Fill calls again
		}
		kp, i := st.kp, st.i
		// a[i][kp] /= a[kp][kp]; then the rank-1 update of row i:
		// a[i][j] -= a[i][kp] * a[kp][j] for j > kp.
		e.load(at(kp, kp))
		e.load(at(i, kp))
		e.store(at(i, kp))
		for j := kp + 1; j < k.N; j++ {
			e.load(at(kp, j)) // pivot row: read-shared by every node
			e.load(at(i, j))
			e.store(at(i, j))
		}
		st.i += nodes
	})
}

// firstRowAfter returns the first row > kp owned by node under cyclic
// distribution.
func firstRowAfter(kp, node, nodes int) int {
	i := kp + 1
	for i%nodes != node {
		i++
	}
	return i
}

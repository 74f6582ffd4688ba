package kernels

import (
	"fmt"

	"d2m/internal/mem"
	"d2m/internal/trace"
)

// SpMV is a sparse matrix-vector multiply y = A·x over a synthetic CSR
// matrix: row pointers and column indices stream sequentially, the
// source-vector reads scatter (gather accesses through the column
// indices), and the destination writes stream. Rows are partitioned
// across nodes; x is read-shared — the canonical HPC gather kernel.
type SpMV struct {
	Rows int // matrix rows (power of two)
	NNZ  int // nonzeros per row
}

// Name implements Kernel.
func (SpMV) Name() string { return "spmv" }

// Description implements Kernel.
func (k SpMV) Description() string {
	return fmt.Sprintf("CSR sparse matrix-vector multiply, %d rows x %d nnz/row, shared x", k.Rows, k.NNZ)
}

// Streams implements Kernel.
func (k SpMV) Streams(nodes int) []trace.Stream {
	check(k.Rows > 0 && k.Rows&(k.Rows-1) == 0, "spmv: Rows=%d not a power of two", k.Rows)
	check(k.NNZ > 0, "spmv: NNZ=%d", k.NNZ)
	out := make([]trace.Stream, nodes)
	for n := 0; n < nodes; n++ {
		out[n] = k.stream(n, nodes)
	}
	return out
}

func (k SpMV) stream(node, nodes int) trace.Stream {
	x := mem.Addr(sharedBase) + 0x600_0000 // shared source vector, 8B elements
	priv := mem.Addr(dataBase) + mem.Addr(node)*nodeStride + 0x300_0000
	rowptr := priv
	colidx := rowptr + mem.Addr(k.Rows+1)*8
	vals := colidx + mem.Addr(k.Rows*k.NNZ)*8
	y := vals + mem.Addr(k.Rows*k.NNZ)*8

	per := k.Rows / nodes
	lo := node * per

	type state struct{ i int }
	return newEmitter(node, 6, 10, state{}, func(e *emitter[state], st *state) {
		row := lo + st.i
		e.load(rowptr + mem.Addr(row)*8)
		for d := 0; d < k.NNZ; d++ {
			nz := row*k.NNZ + d
			e.load(colidx + mem.Addr(nz)*8) // sequential
			e.load(vals + mem.Addr(nz)*8)   // sequential
			col := hashKey(uint64(row)<<20|uint64(d)) % uint64(k.Rows*nodes)
			e.load(x + mem.Addr(col)*8) // gather: scattered shared read
		}
		e.store(y + mem.Addr(row)*8) // streaming write
		if st.i++; st.i == per {
			st.i = 0
		}
	})
}

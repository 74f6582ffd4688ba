package kernels

import (
	"fmt"

	"d2m/internal/mem"
	"d2m/internal/trace"
)

// Stencil is a 5-point Jacobi sweep over a W×H grid of 8-byte cells,
// ping-ponging between two planes. Rows are partitioned in contiguous
// bands per node; the band-boundary rows are read by two nodes each
// sweep — the classic halo-exchange sharing pattern (mostly-private
// regions with a thin shared fringe).
type Stencil struct {
	W, H int // grid width (contiguous dimension) and height
}

// Name implements Kernel.
func (Stencil) Name() string { return "stencil" }

// Description implements Kernel.
func (k Stencil) Description() string {
	return fmt.Sprintf("5-point Jacobi over a %dx%d grid, two planes, banded rows with halo sharing", k.W, k.H)
}

// Streams implements Kernel.
func (k Stencil) Streams(nodes int) []trace.Stream {
	check(k.W > 2 && k.H > 2, "stencil: grid %dx%d too small", k.W, k.H)
	out := make([]trace.Stream, nodes)
	for n := 0; n < nodes; n++ {
		out[n] = k.stream(n, nodes)
	}
	return out
}

func (k Stencil) stream(node, nodes int) trace.Stream {
	plane := mem.Addr(k.W) * mem.Addr(k.H) * 8
	base := mem.Addr(sharedBase) + 0x200_0000 // both planes shared (halo rows cross bands)
	at := func(p, i, j int) mem.Addr {
		return base + mem.Addr(p)*plane + (mem.Addr(i)*mem.Addr(k.W)+mem.Addr(j))*8
	}

	// Interior rows [1, H-1) split into bands.
	rows := k.H - 2
	per := (rows + nodes - 1) / nodes
	lo := 1 + node*per
	hi := lo + per
	if hi > k.H-1 {
		hi = k.H - 1
	}
	if lo >= hi {
		lo, hi = 1, 2
	}

	type state struct{ src, i, j int }
	return newEmitter(node, 2, 8, state{i: lo, j: 1}, func(e *emitter[state], st *state) {
		// One batch = a run of 8 cells of row i (amortizes the advance
		// logic; the accesses are the stencil's real ones either way).
		src, i := st.src, st.i
		for c := 0; c < 8 && st.j < k.W-1; c, st.j = c+1, st.j+1 {
			j := st.j
			e.load(at(src, i-1, j))
			e.load(at(src, i+1, j))
			e.load(at(src, i, j-1))
			e.load(at(src, i, j+1))
			e.load(at(src, i, j))
			e.store(at(1-src, i, j))
		}
		if st.j < k.W-1 {
			return
		}
		st.j = 1
		if st.i++; st.i < hi {
			return
		}
		st.i = lo
		st.src = 1 - src // swap planes: next sweep
	})
}

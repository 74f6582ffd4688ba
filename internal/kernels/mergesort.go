package kernels

import (
	"fmt"

	"d2m/internal/mem"
	"d2m/internal/trace"
)

// MergeSort emits the access pattern of bottom-up merge sort over a
// private array of 8-byte keys: each pass reads two sequential runs and
// writes one sequential output, ping-ponging between two buffers. Pure
// streaming with zero temporal reuse inside a pass — the bandwidth
// workload cache bypassing targets.
type MergeSort struct {
	N int // keys per node (power of two)
}

// Name implements Kernel.
func (MergeSort) Name() string { return "mergesort" }

// Description implements Kernel.
func (k MergeSort) Description() string {
	return fmt.Sprintf("bottom-up merge sort of %d keys per node, ping-pong buffers", k.N)
}

// Streams implements Kernel.
func (k MergeSort) Streams(nodes int) []trace.Stream {
	check(k.N > 1 && k.N&(k.N-1) == 0, "mergesort: N=%d not a power of two", k.N)
	out := make([]trace.Stream, nodes)
	for n := 0; n < nodes; n++ {
		out[n] = k.stream(n)
	}
	return out
}

func (k MergeSort) stream(node int) trace.Stream {
	base := mem.Addr(dataBase) + mem.Addr(node)*nodeStride + 0x380_0000
	buf := [2]mem.Addr{base, base + mem.Addr(k.N)*8}

	// State: run width, source buffer, output position, and the
	// consumed counts within the current run pair.
	type state struct{ width, src, out, aOff, bOff int }
	return newEmitter(node, 7, 8, state{width: 1}, func(e *emitter[state], st *state) {
		// One batch merges up to 8 elements of the current run pair.
		runStart := st.out / (2 * st.width) * (2 * st.width)
		for c := 0; c < 8; c++ {
			// A deterministic pseudo-comparison drains the two runs in
			// interleaved order (real key order would need values; the
			// access PATTERN is what matters here).
			takeA := st.bOff >= st.width || (st.aOff < st.width && hashKey(uint64(st.out))&1 == 0)
			if takeA {
				e.load(buf[st.src] + mem.Addr(runStart+st.aOff)*8)
				st.aOff++
			} else {
				e.load(buf[st.src] + mem.Addr(runStart+st.width+st.bOff)*8)
				st.bOff++
			}
			e.store(buf[1-st.src] + mem.Addr(st.out)*8)
			st.out++
			if st.aOff+st.bOff == 2*st.width { // run pair exhausted
				st.aOff, st.bOff = 0, 0
				runStart = st.out / (2 * st.width) * (2 * st.width)
			}
			if st.out == k.N { // pass complete: double the width, swap
				st.out, st.aOff, st.bOff = 0, 0, 0
				st.src = 1 - st.src
				st.width *= 2
				if st.width >= k.N {
					st.width = 1 // array sorted: start over
				}
				return
			}
		}
	})
}

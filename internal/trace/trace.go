// Package trace defines the access-stream abstractions connecting
// workload generators to the simulation engine: per-node streams, the
// round-robin interleaver that merges them into a single system-level
// stream (modeling cores progressing at the same rate), and the
// block-based refill interface the engine's tight loop consumes.
package trace

import "d2m/internal/mem"

// Stream produces one node's access stream, an access at a time or a
// block at a time. Fill writes the stream's next accesses into buf and
// returns how many it produced; the sequence is exactly the one Next
// would produce — Fill is a batched Next, not a different stream — so
// callers may mix the two freely. Infinite streams fill the whole
// buffer; finite, non-looping streams may return short counts and
// return 0 when exhausted. The engine consumes Fill: one dynamic
// dispatch per block instead of one per access is what turns the
// per-access interpreter loop into a tight loop over a buffer.
type Stream interface {
	// Next returns the stream's next access.
	Next() mem.Access
	// Fill writes the stream's next accesses into buf.
	Fill(buf []mem.Access) int
}

// BlockStream is another name for Stream, kept for callers that use it.
type BlockStream = Stream

// StreamFunc adapts a function to the Stream interface.
type StreamFunc func() mem.Access

// Next calls the function.
func (f StreamFunc) Next() mem.Access { return f() }

// Fill calls the function once per access.
func (f StreamFunc) Fill(buf []mem.Access) int {
	for i := range buf {
		buf[i] = f()
	}
	return len(buf)
}

// Interleaver merges per-node streams round-robin, one access per node
// per turn. Its streams must be independent: no stream's output may
// depend on another's draws. Fill stages a block per stream, which
// reorders draws across streams relative to strict round-robin Next;
// over independent streams the merged sequence is the same.
type Interleaver struct {
	streams []Stream
	next    int
	scratch []mem.Access // per-node staging for Fill, reused across calls
}

// NewInterleaver returns an interleaver over the given streams. It
// panics on an empty slice.
func NewInterleaver(streams []Stream) *Interleaver {
	if len(streams) == 0 {
		panic("trace: no streams")
	}
	return &Interleaver{streams: streams}
}

// Next returns the next access in round-robin order.
func (iv *Interleaver) Next() mem.Access {
	a := iv.streams[iv.next].Next()
	// Wraparound compare instead of modulo: the stream count is not a
	// compile-time constant, so % here is an integer divide on the
	// hottest path in the simulator.
	iv.next++
	if iv.next == len(iv.streams) {
		iv.next = 0
	}
	return a
}

// Fill implements Stream: it merges per-node blocks into out in exact
// round-robin order. Whole rounds are staged per node — one Fill call
// per stream per block — and transposed into the interleaved order, so
// the per-access interface dispatch of Next is paid once per node per
// block instead. Fill only produces whole accesses up to len(out) and
// never draws a stream past the last access it returns, so the
// underlying stream state after Fill(k accesses) is identical to k Next
// calls — the property warm-state snapshots rely on at the warmup
// boundary.
func (iv *Interleaver) Fill(out []mem.Access) int {
	n := len(iv.streams)
	if n == 1 {
		return iv.streams[0].Fill(out)
	}
	filled := 0
	// Finish any partial round first so staging starts at node 0.
	for iv.next != 0 && filled < len(out) {
		out[filled] = iv.Next()
		filled++
	}
	rounds := (len(out) - filled) / n
	if rounds == 0 {
		// The remainder is shorter than one round: emit it directly.
		for filled < len(out) {
			out[filled] = iv.Next()
			filled++
		}
		return filled
	}
	want := rounds * n
	if cap(iv.scratch) < want {
		iv.scratch = make([]mem.Access, want)
	}
	scratch := iv.scratch[:want]
	for i, s := range iv.streams {
		if got := s.Fill(scratch[i*rounds : (i+1)*rounds]); got != rounds {
			panic("trace: interleaved stream ended mid-block")
		}
	}
	// Transpose the per-node lanes into round-robin order. The
	// two-stream case (the most common topology) gets a pairwise copy
	// with no inner loop.
	if n == 2 {
		s0, s1 := scratch[:rounds], scratch[rounds:want]
		dst := out[filled : filled+want]
		for r := 0; r < rounds; r++ {
			dst[2*r] = s0[r]
			dst[2*r+1] = s1[r]
		}
		return filled + want
	}
	for r := 0; r < rounds; r++ {
		dst := out[filled+r*n : filled+(r+1)*n]
		for i := 0; i < n; i++ {
			dst[i] = scratch[i*rounds+r]
		}
	}
	return filled + want
}

// Nodes returns the number of merged streams.
func (iv *Interleaver) Nodes() int { return len(iv.streams) }

// Cloner is a Stream whose position can be duplicated: Clone returns
// an independent stream that continues the identical access sequence
// from the current position. Warm-state snapshots rely on this to
// freeze the workload mid-stream alongside the simulator state.
type Cloner interface {
	Stream
	Clone() Stream
}

// Clone returns an independent interleaver continuing the identical
// merged sequence, or false when any underlying stream does not
// implement Cloner.
func (iv *Interleaver) Clone() (*Interleaver, bool) {
	cp := &Interleaver{streams: make([]Stream, len(iv.streams)), next: iv.next}
	for i, s := range iv.streams {
		c, ok := s.(Cloner)
		if !ok {
			return nil, false
		}
		cp.streams[i] = c.Clone()
	}
	return cp, true
}

// Offset returns s shifted onto other nodes and into another address
// space: each access's Node grows by node and its Addr by addr. Its
// Clone clones s, so an Interleaver over offset generators still
// snapshots; cloning an Offset over a stream that does not clone
// panics.
func Offset(s Stream, node int, addr mem.Addr) Stream { return &offset{s, node, addr} }

type offset struct {
	s    Stream
	node int
	addr mem.Addr
}

func (o *offset) Next() mem.Access {
	a := o.s.Next()
	a.Node += o.node
	a.Addr += o.addr
	return a
}

// Fill implements Stream: the inner stream's block, shifted.
func (o *offset) Fill(buf []mem.Access) int {
	n := o.s.Fill(buf)
	for i := range buf[:n] {
		buf[i].Node += o.node
		buf[i].Addr += o.addr
	}
	return n
}

// Clone implements Cloner.
func (o *offset) Clone() Stream { return Offset(o.s.(Cloner).Clone(), o.node, o.addr) }

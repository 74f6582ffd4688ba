// Package trace defines the access-stream abstractions connecting
// workload generators to the simulation engine: per-node streams, the
// round-robin interleaver that merges them into a single system-level
// stream (modeling cores progressing at the same rate), and the
// block-based refill interface the engine's tight loop consumes.
package trace

import "d2m/internal/mem"

// Stream produces one node's infinite access stream.
type Stream interface {
	// Next returns the stream's next access.
	Next() mem.Access
}

// StreamFunc adapts a function to the Stream interface.
type StreamFunc func() mem.Access

// Next calls the function.
func (f StreamFunc) Next() mem.Access { return f() }

// BlockStream is a Stream that can deliver accesses a block at a time:
// Fill writes the stream's next accesses into buf and returns how many
// it produced. The sequence is exactly the one Next would produce —
// Fill is a batched Next, not a different stream — so callers may mix
// the two freely. Infinite streams fill the whole buffer; finite,
// non-looping streams may return short counts and return 0 when
// exhausted. The engine prefers this interface: one dynamic dispatch
// per block instead of one per access is what turns the per-access
// interpreter loop into a tight loop over a buffer.
type BlockStream interface {
	Stream
	Fill(buf []mem.Access) int
}

// FillFrom is the generic adapter from per-access to block delivery: it
// fills buf by calling s.Next len(buf) times. Closure-driven streams
// that cannot implement Fill natively are still consumed through the
// block path via this helper.
func FillFrom(s Stream, buf []mem.Access) int {
	for i := range buf {
		buf[i] = s.Next()
	}
	return len(buf)
}

// Interleaver merges per-node streams round-robin, one access per node
// per turn. When every stream delivers blocks, Fill stages a block per
// stream; for independent streams (no stream's output depends on
// another's draws) the merged sequence equals strict round-robin Next.
type Interleaver struct {
	streams []Stream
	blocks  []BlockStream // blocks[i] non-nil when streams[i] supports Fill
	staged  bool          // every stream supports Fill: staging is safe
	next    int
	scratch []mem.Access // per-node staging for Fill, reused across calls
}

// NewInterleaver returns an interleaver over the given streams. It
// panics on an empty slice.
func NewInterleaver(streams []Stream) *Interleaver {
	if len(streams) == 0 {
		panic("trace: no streams")
	}
	iv := &Interleaver{streams: streams}
	iv.resolveBlocks()
	return iv
}

// resolveBlocks caches the per-stream BlockStream assertions so Fill
// does not repeat the type test on every refill.
func (iv *Interleaver) resolveBlocks() {
	iv.blocks = make([]BlockStream, len(iv.streams))
	iv.staged = true
	for i, s := range iv.streams {
		if bs, ok := s.(BlockStream); ok {
			iv.blocks[i] = bs
		} else {
			// Staging draws each stream a block at a time, which
			// reorders draws ACROSS streams relative to strict
			// round-robin. That is only safe when the streams are
			// independent; every native BlockStream (the catalog
			// generators, trace readers) is, but closure-driven streams
			// may share state with their siblings, so any non-block
			// stream forces the strict draw order.
			iv.staged = false
		}
	}
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

// Fill implements BlockStream: it merges per-node blocks into out in
// exact round-robin order. Whole rounds are staged per node — one Fill
// call (or Next loop, for streams without block support) per stream per
// block — and transposed into the interleaved order, so the per-access
// interface dispatch of Next is paid once per node per block instead.
// Fill only produces whole accesses up to len(out) and never draws a
// stream past the last access it returns, so the underlying stream
// state after Fill(k accesses) is identical to k Next calls — the
// property warm-state snapshots rely on at the warmup boundary.
func (iv *Interleaver) Fill(out []mem.Access) int {
	n := len(iv.streams)
	if n == 1 {
		if bs := iv.blocks[0]; bs != nil {
			return bs.Fill(out)
		}
		return FillFrom(iv.streams[0], out)
	}
	if !iv.staged {
		// Mixed or closure-driven streams: preserve the strict
		// round-robin draw order.
		return FillFrom(iv, out)
	}
	filled := 0
	// Finish any partial round first so staging starts at node 0.
	for iv.next != 0 && filled < len(out) {
		out[filled] = iv.streams[iv.next].Next()
		filled++
		iv.next++
		if iv.next == n {
			iv.next = 0
		}
	}
	rounds := (len(out) - filled) / n
	if rounds == 0 {
		// The remainder is shorter than one round: emit it directly.
		for filled < len(out) {
			out[filled] = iv.streams[iv.next].Next()
			filled++
			iv.next++
			if iv.next == n {
				iv.next = 0
			}
		}
		return filled
	}
	want := rounds * n
	if cap(iv.scratch) < want {
		iv.scratch = make([]mem.Access, want)
	}
	scratch := iv.scratch[:want]
	for i := range iv.streams {
		lane := scratch[i*rounds : (i+1)*rounds]
		if bs := iv.blocks[i]; bs != nil {
			if got := bs.Fill(lane); got != rounds {
				panic("trace: interleaved stream ended mid-block")
			}
		} else {
			FillFrom(iv.streams[i], lane)
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
// implement Cloner (closure-driven generators cannot be duplicated;
// callers fall back to deterministic replay).
func (iv *Interleaver) Clone() (*Interleaver, bool) {
	cp := &Interleaver{streams: make([]Stream, len(iv.streams)), next: iv.next}
	for i, s := range iv.streams {
		c, ok := s.(Cloner)
		if !ok {
			return nil, false
		}
		cp.streams[i] = c.Clone()
	}
	cp.resolveBlocks()
	return cp, true
}

// Offset returns s shifted onto other nodes and into another address
// space: each access's Node grows by node and its Addr by addr. It
// delivers blocks and clones when s does both, so an Interleaver over
// offset generators still stages its draws and snapshots.
func Offset(s Stream, node int, addr mem.Addr) Stream {
	o := offset{s, node, addr}
	if _, ok := s.(BlockStream); ok {
		if _, ok := s.(Cloner); ok {
			return &offsetBlocks{o}
		}
	}
	return &o
}

// offset is the Next-only Offset wrapper.
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

// offsetBlocks is the Offset wrapper over a stream that fills blocks
// and clones.
type offsetBlocks struct{ offset }

// Fill implements BlockStream: the inner stream's block, shifted.
func (o *offsetBlocks) Fill(buf []mem.Access) int {
	n := o.s.(BlockStream).Fill(buf)
	for i := range buf[:n] {
		buf[i].Node += o.node
		buf[i].Addr += o.addr
	}
	return n
}

// Clone implements Cloner.
func (o *offsetBlocks) Clone() Stream { return Offset(o.s.(Cloner).Clone(), o.node, o.addr) }

package d2m

import (
	"unsafe"

	"d2m/internal/core"
	"d2m/internal/trace"
)

// Warm-state snapshots amortize warmup across runs: every simulation
// spends Options.Warmup accesses bringing the hierarchy to a steady
// state before measurement begins, and runs that share the warm
// identity (same kind, geometry, workload, seed and warmup length)
// recompute the exact same prefix. A WarmSnapshot freezes the machine
// and the workload stream at the warmup/measurement boundary; a later
// run with the same key restores both and runs only its measurement
// window. Exactness is a hard contract, enforced by tests: a restored
// run's Result is byte-identical to a fresh run's, because the restore
// reproduces the machine state, the stream position and the RNG
// sequence exactly, and both paths perform the same statistics reset
// at the same boundary. The snapshot also carries the raw outcomes of
// the windows its capturing run measured; a later run whose windows are
// all among them differs at most in link bandwidth, a stretch applied
// after extraction, so it is answered by projecting those outcomes and
// simulates nothing.

// WarmCache stores warm-state snapshots between runs, keyed by the
// warm identity's string form (CellKey.String). Implementations
// must be safe for concurrent use; the service provides a byte-budget
// LRU, and tests use trivial map caches. Get returns nil on a miss.
type WarmCache interface {
	GetWarm(key string) *WarmSnapshot
	PutWarm(snap *WarmSnapshot)
}

// warmGater is the optional third WarmCache method: after a miss, the
// run asks WantWarm whether capturing a snapshot is worth its cost (a
// sparse copy of every table slot the warmup wrote — tenths of a
// millisecond and tens to hundreds of kilobytes, the byte budget's
// unit). Caches that don't implement it get a snapshot on every miss;
// the service's cache says yes only for keys it has seen miss before,
// so one-off jobs never pay for a snapshot nobody will reuse.
type warmGater interface {
	WantWarm(key string) bool
}

// wantWarm resolves the optional capture gate.
func wantWarm(wc WarmCache, key string) bool {
	if g, ok := wc.(warmGater); ok {
		return g.WantWarm(key)
	}
	return true
}

// WarmSnapshot is the frozen warmup/measurement boundary of one run:
// the machine state (whatever MechSnapshot the run's mechanism
// produces) plus the workload stream at its post-warmup position. A
// snapshot is published after the capturing walk and carries that
// walk's window outcomes, so a later run whose windows are all stored
// is answered by projection without restoring. Snapshots are immutable
// once published and safe for concurrent restores and projections.
type WarmSnapshot struct {
	key string

	state core.MechSnapshot

	// windows holds the raw outcomes of the windows the capturing walk
	// completed, keyed by Measure.
	windows map[int]*windowOutcome

	// src is the post-warmup stream, cloned at capture time while the
	// capturing run went on consuming the original — an interleaver
	// over generator or kernel streams, or over the file reader
	// replaying a stored trace. Restores clone it again.
	src *trace.Interleaver

	bytes int64
}

// Key returns the snapshot's warm identity (CellKey.String).
func (ws *WarmSnapshot) Key() string { return ws.key }

// SizeBytes returns the snapshot's approximate in-memory footprint.
func (ws *WarmSnapshot) SizeBytes() int64 { return ws.bytes }

// streamOverheadBytes is the per-snapshot allowance for the cloned
// workload streams, which are cursor structs a few hundred bytes each —
// a few percent of a sparse snapshot's table state, accounted for so
// the byte budget never reads zero for a degenerate snapshot.
const streamOverheadBytes = 4096

// cloneStream duplicates a stream at its position. Every source's
// streams clone, so a stream that does not is a programming error.
func cloneStream(iv *trace.Interleaver) *trace.Interleaver {
	cp, ok := iv.Clone()
	if !ok {
		panic("d2m: warm stream does not clone")
	}
	return cp
}

// finish records the post-warmup stream position and totals the byte
// footprint of the state and stream.
func (ws *WarmSnapshot) finish(src *trace.Interleaver) {
	ws.src = cloneStream(src)
	ws.bytes = streamOverheadBytes
	if ws.state != nil {
		ws.bytes += ws.state.SizeBytes()
	}
}

// publish attaches the outcomes of the windows the capturing walk
// completed (outcomes[i] is window measures[i], nil when the walk did
// not reach it) and adds their bytes to the footprint. It is the last
// write to the snapshot.
func (ws *WarmSnapshot) publish(measures []int, outcomes []*windowOutcome) {
	ws.windows = make(map[int]*windowOutcome, len(outcomes))
	for i, o := range outcomes {
		if o == nil {
			continue
		}
		ws.windows[measures[i]] = o
		ws.bytes += o.sizeBytes()
	}
}

// project answers a run from the stored window outcomes: ok is false
// unless every active lane's window is stored. Inactive lanes get a nil
// Result, as they do from a walk.
func (ws *WarmSnapshot) project(lanes []Options, active func(lane int) bool) (out []*Result, ok bool) {
	out = make([]*Result, len(lanes))
	for i, l := range lanes {
		if !active(i) {
			continue
		}
		o := ws.windows[l.Measure]
		if o == nil {
			return nil, false
		}
		out[i] = o.project(l)
	}
	return out, true
}

// sizeBytes approximates a window outcome's footprint: the Result
// struct, its per-node clocks and its energy breakdown entries.
func (o *windowOutcome) sizeBytes() int64 {
	const mapEntryBytes = 64 // a short key string and a float64, with map overhead
	return int64(unsafe.Sizeof(*o)) + int64(8*len(o.res.NodeCycles)) + int64(mapEntryBytes*len(o.res.EnergyByOp))
}

package d2m

import (
	"context"

	"d2m/internal/core"
	"d2m/internal/sim"
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
// at the same boundary.

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
// produces) plus the workload stream at its post-warmup position.
// Snapshots are immutable after capture and safe for concurrent
// restores.
type WarmSnapshot struct {
	key    string
	warmup int

	state core.MechSnapshot

	// src is the post-warmup stream, cloned at capture time while the
	// capturing run went on consuming the original — an interleaver
	// over generator streams or over the file reader replaying a stored
	// trace. Nil when the workload's streams cannot be cloned
	// (closure-driven kernel emitters); restores then rebuild the
	// stream and replay the warmup draws, which is deterministic and
	// still far cheaper than simulating them.
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

// warmedStream produces the stream positioned at the warmup boundary.
// On a miss (snap == nil) it builds a fresh stream and simulates the
// warmup through the engine, mutating the machine — the normal path.
// On a hit it does not touch the machine: it duplicates the snapshot's
// stored stream, or, when the streams were not cloneable, rebuilds the
// stream and replays (without simulating) the warmup draws.
func warmedStream(ctx context.Context, engine *sim.Engine, snap *WarmSnapshot, mkStream func() *trace.Interleaver, warmup int) (*trace.Interleaver, error) {
	if snap == nil {
		src := mkStream()
		if err := engine.Warmup(ctx, src, warmup); err != nil {
			return nil, err
		}
		return src, nil
	}
	if snap.src != nil {
		cp, ok := snap.src.Clone()
		if !ok {
			panic("d2m: stored warm stream lost cloneability")
		}
		return cp, nil
	}
	src := mkStream()
	for i := 0; i < snap.warmup; i++ {
		if i%4096 == 0 && ctx.Err() != nil {
			return nil, ctx.Err()
		}
		src.Next()
	}
	return src, nil
}

// finish records the post-warmup stream position (cloning it when the
// streams support cloning) and totals the snapshot's byte footprint.
func (ws *WarmSnapshot) finish(src *trace.Interleaver) {
	ws.src, _ = src.Clone() // nil when the streams cannot be cloned
	ws.bytes = streamOverheadBytes
	if ws.state != nil {
		ws.bytes += ws.state.SizeBytes()
	}
}

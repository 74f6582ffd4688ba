package baseline

import (
	"fmt"
	"unsafe"

	"d2m/internal/cache"
)

// Warm-state snapshots, mirroring the core package's: a copy of
// everything that survives ResetMeasurement — the TLBs, the tagged
// cache levels with their MESI state and dirty bits, and the LLC with
// its directory. Tables are captured sparsely (cache.TableSnapshot)
// with their payloads gathered at the captured slots, so the snapshot
// follows what the warmup wrote, not the hierarchy's capacity.
// Statistics and energy counters are zeroed at the warmup boundary on
// both the fresh and the restored path, so they are not captured. The
// coherence oracle's version maps are debug-only and unsupported
// (Snapshot panics when the oracle is on).

// cacheSnap is the frozen state of one tagged node-cache level.
type cacheSnap struct {
	tbl   *cache.TableSnapshot
	state []state // parallel to tbl's captured slots
	dirty []bool
}

// nodeSnap is the frozen state of one node's private hierarchy.
type nodeSnap struct {
	tlb, tlb2    *cache.TableSnapshot
	l1i, l1d, l2 *cacheSnap
}

// Snapshot is a complete warm-state capture of a baseline System,
// immutable after capture and safe for concurrent RestoreInto calls.
type Snapshot struct {
	cfg   Config
	nodes []nodeSnap
	llc   *cache.TableSnapshot
	dir   []dirEntry // parallel to llc's captured slots
	bytes int64
}

const dirEntrySize = int64(unsafe.Sizeof(dirEntry{}))

func (c *nodeCache) snapshot() *cacheSnap {
	tbl := c.tbl.Snapshot()
	return &cacheSnap{
		tbl:   tbl,
		state: cache.Gather(tbl, c.state),
		dirty: cache.Gather(tbl, c.dirty),
	}
}

func (c *nodeCache) restore(cs *cacheSnap) {
	c.tbl.Restore(cs.tbl)
	cache.Scatter(cs.tbl, c.state, cs.state)
	cache.Scatter(cs.tbl, c.dirty, cs.dirty)
}

func (cs *cacheSnap) sizeBytes() int64 {
	return cs.tbl.SizeBytes() + int64(len(cs.state)) + int64(len(cs.dirty))
}

// Snapshot captures the system's complete warm state. The system must
// be quiescent and must not have the coherence oracle enabled.
func (s *System) Snapshot() *Snapshot {
	if s.debug {
		panic("baseline: Snapshot with coherence oracle enabled")
	}
	sn := &Snapshot{
		cfg:   s.cfg,
		nodes: make([]nodeSnap, len(s.nodes)),
		llc:   s.llc.Snapshot(),
	}
	sn.dir = cache.Gather(sn.llc, s.dir)
	for i, n := range s.nodes {
		ns := &sn.nodes[i]
		ns.tlb = n.tlb.Snapshot()
		ns.tlb2 = n.tlb2.Snapshot()
		ns.l1i = n.l1i.snapshot()
		ns.l1d = n.l1d.snapshot()
		if n.l2 != nil {
			ns.l2 = n.l2.snapshot()
		}
	}
	sn.bytes = sn.computeSize()
	return sn
}

// RestoreInto overwrites dst (a freshly constructed System of the same
// configuration) with the snapshot's state. Multiple goroutines may
// restore from one snapshot concurrently. It panics when dst has
// already run: its tables' write logs must be empty.
func (sn *Snapshot) RestoreInto(dst *System) {
	if dst.cfg != sn.cfg {
		panic(fmt.Sprintf("baseline: snapshot restore config mismatch: %+v vs %+v", dst.cfg, sn.cfg))
	}
	dst.llc.Restore(sn.llc)
	cache.Scatter(sn.llc, dst.dir, sn.dir)
	for i, n := range dst.nodes {
		ns := &sn.nodes[i]
		n.tlb.Restore(ns.tlb)
		n.tlb2.Restore(ns.tlb2)
		n.l1i.restore(ns.l1i)
		n.l1d.restore(ns.l1d)
		if n.l2 != nil {
			n.l2.restore(ns.l2)
		}
	}
}

// SizeBytes returns the snapshot's approximate in-memory footprint.
func (sn *Snapshot) SizeBytes() int64 { return sn.bytes }

func (sn *Snapshot) computeSize() int64 {
	b := sn.llc.SizeBytes() + int64(len(sn.dir))*dirEntrySize
	for i := range sn.nodes {
		ns := &sn.nodes[i]
		b += ns.tlb.SizeBytes() + ns.tlb2.SizeBytes()
		b += ns.l1i.sizeBytes() + ns.l1d.sizeBytes()
		if ns.l2 != nil {
			b += ns.l2.sizeBytes()
		}
	}
	return b
}

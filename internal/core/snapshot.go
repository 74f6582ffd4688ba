package core

import (
	"fmt"
	"unsafe"

	"d2m/internal/cache"
	"d2m/internal/mem"
)

// Warm-state snapshots (taken at the warmup/measurement boundary) let
// runs that share a warmed prefix skip re-simulating it. A Snapshot is
// a self-contained copy of everything that survives ResetMeasurement:
// the metadata tables and their region entries, the tag-less data
// stores, the RNG position, and the protocol's cross-access state
// (placement pressure, lock window, staged transfer state). Tables are
// captured sparsely (cache.TableSnapshot: only the slots that carry
// state, with their payloads gathered at the same slots), so a short
// warmup yields a snapshot of tens of kilobytes however large the
// hierarchy. Statistics, traffic and dynamic-energy counters are NOT
// captured — both the fresh and the restored path zero them at the
// boundary, so their pre-boundary values are unobservable.
//
// Exactness contract: a system restored from a snapshot must be
// indistinguishable from the system the snapshot was taken of, so a
// measurement run on either produces byte-identical Results. The
// subtlety is the Tracking Pointer model: a node's MD1 and MD2 entry
// arrays alias the same *nodeRegion objects (flipping `active` moves
// the authoritative copy without duplicating LIs). Capture therefore
// records each distinct region object once, via an identity map, and
// restore rebuilds the same aliasing structure over fresh objects.

// storeSnap is the frozen state of one tag-less data store.
type storeSnap struct {
	tbl   *cache.TableSnapshot
	slots []slot // parallel to tbl's captured slots
}

// nodeSnap is the frozen state of one node: the three metadata tables
// plus their entry arrays, flattened through the identity map (idx
// slices, parallel to each table snapshot's captured slots, hold -1
// for an empty entry, else an index into regions), and the private
// data stores.
type nodeSnap struct {
	md1i, md1d, md2          *cache.TableSnapshot
	md1iIdx, md1dIdx, md2Idx []int32
	regions                  []nodeRegion
	l1i, l1d, l2             *storeSnap

	// Adaptive way split and its interval counters (D2M-Adaptive), and
	// the level-predictor table (D2M-LevelPred). All zero/nil outside
	// those configurations.
	l1dActive, md1dActive int
	epochDataMisses       uint64
	epochMDMisses         uint64
	pred                  []uint8
}

// Snapshot is a complete warm-state capture of a System. It is
// immutable after capture and safe for concurrent RestoreInto calls;
// its arrays are allocated outside the construction pools so a cached
// snapshot can never be recycled out from under a restore.
type Snapshot struct {
	cfg Config

	nodes  []nodeSnap
	far    *storeSnap
	slices []*storeSnap

	md3        *cache.TableSnapshot
	md3Idx     []int32 // flattened like nodeSnap's idx slices
	md3Regions []dirRegion

	rngState     uint64
	pressureCur  []uint64
	pressurePrev []uint64
	epochMark    uint64
	lockWindow   []mem.RegionAddr
	lockPos      int
	xfer         uint64
	rpFallback   Location

	bytes int64
}

const (
	slotSize    = int64(unsafe.Sizeof(slot{}))
	nodeRegSize = int64(unsafe.Sizeof(nodeRegion{}))
	dirRegSize  = int64(unsafe.Sizeof(dirRegion{}))
)

func (d *dataStore) snapshot() *storeSnap {
	tbl := d.tbl.Snapshot()
	return &storeSnap{tbl: tbl, slots: cache.Gather(tbl, d.slots)}
}

func (d *dataStore) restore(ss *storeSnap) {
	d.tbl.Restore(ss.tbl)
	cache.Scatter(ss.tbl, d.slots, ss.slots)
}

func (ss *storeSnap) sizeBytes() int64 {
	return ss.tbl.SizeBytes() + int64(len(ss.slots))*slotSize
}

// snapEntries flattens one metadata entry array at the table
// snapshot's slots: every distinct region object is appended to
// regions once (the identity map deduplicates the MD1/MD2 aliasing),
// and the returned index array records which object each captured slot
// pointed at (-1 for none).
func snapEntries[R any](tsn *cache.TableSnapshot, ent []*R, index map[*R]int32, regions *[]R) []int32 {
	ptrs := cache.Gather(tsn, ent)
	idx := make([]int32, len(ptrs))
	for j, r := range ptrs {
		if r == nil {
			idx[j] = -1
			continue
		}
		id, ok := index[r]
		if !ok {
			id = int32(len(*regions))
			*regions = append(*regions, *r)
			index[r] = id
		}
		idx[j] = id
	}
	return idx
}

// restoreEntries is snapEntries' inverse: the captured slots are
// re-pointed at the freshly copied region objects (aliasing included,
// because slots that shared an object share an index).
func restoreEntries[R any](tsn *cache.TableSnapshot, ent []*R, idx []int32, fresh []R) {
	ptrs := make([]*R, len(idx))
	for j, id := range idx {
		if id >= 0 {
			ptrs[j] = &fresh[id]
		}
	}
	cache.Scatter(tsn, ent, ptrs)
}

// Snapshot captures the system's complete warm state. The system must
// be quiescent (between accesses) and must not run with the coherence
// oracle enabled — the oracle's version maps are debug-only state that
// snapshots deliberately do not carry.
func (s *System) Snapshot() *Snapshot {
	if s.cfg.CoherenceDebug {
		panic("core: Snapshot with CoherenceDebug enabled")
	}
	sn := &Snapshot{
		cfg:        s.cfg,
		rngState:   s.rng.State(),
		epochMark:  s.epochMark,
		lockWindow: make([]mem.RegionAddr, len(s.lockWindow)),
		lockPos:    s.lockPos,
		xfer:       s.xfer,
		rpFallback: s.rpFallback,
	}
	copy(sn.lockWindow, s.lockWindow)
	if s.pressureCur != nil {
		sn.pressureCur = make([]uint64, len(s.pressureCur))
		sn.pressurePrev = make([]uint64, len(s.pressurePrev))
		copy(sn.pressureCur, s.pressureCur)
		copy(sn.pressurePrev, s.pressurePrev)
	}

	sn.nodes = make([]nodeSnap, len(s.nodes))
	for i, n := range s.nodes {
		ns := &sn.nodes[i]
		index := make(map[*nodeRegion]int32)
		ns.md1i = n.md1i.Snapshot()
		ns.md1d = n.md1d.Snapshot()
		ns.md2 = n.md2.Snapshot()
		ns.md1iIdx = snapEntries(ns.md1i, n.md1iEnt, index, &ns.regions)
		ns.md1dIdx = snapEntries(ns.md1d, n.md1dEnt, index, &ns.regions)
		ns.md2Idx = snapEntries(ns.md2, n.md2Ent, index, &ns.regions)
		ns.l1i = n.l1i.snapshot()
		ns.l1d = n.l1d.snapshot()
		if n.l2 != nil {
			ns.l2 = n.l2.snapshot()
		}
		ns.l1dActive, ns.md1dActive = n.l1dActive, n.md1dActive
		ns.epochDataMisses, ns.epochMDMisses = n.epochDataMisses, n.epochMDMisses
		if n.pred != nil {
			ns.pred = make([]uint8, len(n.pred))
			copy(ns.pred, n.pred)
		}
	}

	sn.md3 = s.md3.Snapshot()
	sn.md3Idx = snapEntries(sn.md3, s.md3Ent, make(map[*dirRegion]int32), &sn.md3Regions)

	if s.far != nil {
		sn.far = s.far.snapshot()
	}
	if s.slices != nil {
		sn.slices = make([]*storeSnap, len(s.slices))
		for i, sl := range s.slices {
			sn.slices[i] = sl.snapshot()
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
		panic(fmt.Sprintf("core: snapshot restore config mismatch: %+v vs %+v", dst.cfg, sn.cfg))
	}
	dst.rng.SetState(sn.rngState)
	dst.epochMark = sn.epochMark
	copy(dst.lockWindow, sn.lockWindow)
	dst.lockPos = sn.lockPos
	dst.xfer = sn.xfer
	dst.rpFallback = sn.rpFallback
	if sn.pressureCur != nil {
		copy(dst.pressureCur, sn.pressureCur)
		copy(dst.pressurePrev, sn.pressurePrev)
	}

	for i, n := range dst.nodes {
		ns := &sn.nodes[i]
		fresh := make([]nodeRegion, len(ns.regions))
		copy(fresh, ns.regions)
		n.md1i.Restore(ns.md1i)
		n.md1d.Restore(ns.md1d)
		n.md2.Restore(ns.md2)
		restoreEntries(ns.md1i, n.md1iEnt, ns.md1iIdx, fresh)
		restoreEntries(ns.md1d, n.md1dEnt, ns.md1dIdx, fresh)
		restoreEntries(ns.md2, n.md2Ent, ns.md2Idx, fresh)
		n.l1i.restore(ns.l1i)
		n.l1d.restore(ns.l1d)
		if n.l2 != nil {
			n.l2.restore(ns.l2)
		}
		n.l1dActive, n.md1dActive = ns.l1dActive, ns.md1dActive
		n.l1d.activeWays = ns.l1dActive // zero = all active (non-adaptive)
		n.epochDataMisses, n.epochMDMisses = ns.epochDataMisses, ns.epochMDMisses
		copy(n.pred, ns.pred)
	}

	dst.md3.Restore(sn.md3)
	freshDir := make([]dirRegion, len(sn.md3Regions))
	copy(freshDir, sn.md3Regions)
	restoreEntries(sn.md3, dst.md3Ent, sn.md3Idx, freshDir)

	if dst.far != nil {
		dst.far.restore(sn.far)
	}
	for i, sl := range dst.slices {
		sl.restore(sn.slices[i])
	}
}

// SizeBytes returns the snapshot's approximate in-memory footprint,
// the unit of the snapshot cache's byte budget.
func (sn *Snapshot) SizeBytes() int64 { return sn.bytes }

func (sn *Snapshot) computeSize() int64 {
	var b int64
	for i := range sn.nodes {
		ns := &sn.nodes[i]
		b += ns.md1i.SizeBytes() + ns.md1d.SizeBytes() + ns.md2.SizeBytes()
		b += int64(len(ns.md1iIdx)+len(ns.md1dIdx)+len(ns.md2Idx)) * 4
		b += int64(len(ns.regions)) * nodeRegSize
		b += ns.l1i.sizeBytes() + ns.l1d.sizeBytes()
		if ns.l2 != nil {
			b += ns.l2.sizeBytes()
		}
		b += int64(len(ns.pred))
	}
	b += sn.md3.SizeBytes() + int64(len(sn.md3Idx))*4 + int64(len(sn.md3Regions))*dirRegSize
	if sn.far != nil {
		b += sn.far.sizeBytes()
	}
	for _, sl := range sn.slices {
		b += sl.sizeBytes()
	}
	b += int64(len(sn.pressureCur)+len(sn.pressurePrev))*8 + int64(len(sn.lockWindow))*8
	return b
}

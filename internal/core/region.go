package core

import (
	"fmt"
	"math/bits"

	"d2m/internal/mem"
)

// regionKey mixes a region address for metadata-table set indexing.
// Program pools are typically placed at aligned bases (per-node windows,
// per-pool offsets) whose strides are multiples of any power-of-two set
// count, so raw low bits alias badly across nodes; metadata structures
// therefore use a hashed index, as real designs do.
func regionKey(r mem.RegionAddr) uint64 {
	x := uint64(r)
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// Class is the region classification derived from the MD3 Presence Bits
// (Table II). Private and untracked regions enable the dynamic-coherence
// optimizations of §IV-A.
type Class uint8

const (
	// Uncached: the region has no MD3 entry; no node and no LLC slot
	// holds any of its data.
	Uncached Class = iota
	// Untracked: an MD3 entry exists but no node has an MD2 entry
	// (#PB == 0). Data may live in the LLC; it can be evicted to memory
	// without any metadata coherence.
	Untracked
	// Private: exactly one node tracks the region (#PB == 1). That node
	// may read and write the region's data with no coherence at all.
	Private
	// Shared: more than one node tracks the region (#PB > 1).
	Shared
)

func (c Class) String() string {
	switch c {
	case Uncached:
		return "uncached"
	case Untracked:
		return "untracked"
	case Private:
		return "private"
	case Shared:
		return "shared"
	default:
		return fmt.Sprintf("class(%d)", uint8(c))
	}
}

// ClassifyPB returns the classification implied by a presence-bit mask,
// for a region that has an MD3 entry.
func ClassifyPB(pb uint16) Class {
	switch popcount16(pb) {
	case 0:
		return Untracked
	case 1:
		return Private
	default:
		return Shared
	}
}

func popcount16(v uint16) int {
	n := 0
	for v != 0 {
		v &= v - 1
		n++
	}
	return n
}

// activeStore says which metadata store currently holds a node region's
// active (authoritative) entry. Only one entry is active at a time across
// MD1-I, MD1-D and MD2 "to avoid having to update multiple LIs
// atomically" (§II-A); the MD2 Tracking Pointer of the paper is the
// hardware realization of this field.
type activeStore uint8

const (
	activeMD2 activeStore = iota
	activeMD1I
	activeMD1D
)

// nodeRegion is one node's metadata entry for a region: the paper's
// MD1/MD2 entry contents (virtual/physical tag are implicit in the map
// key; we store the LIs, the Private bit, and the dynamic-indexing
// scramble). The struct is shared between the node's MD1 and MD2 tables,
// which models the Tracking Pointer: evicting the MD1 entry "copies the
// LI information to MD2" by simply flipping active. Fields are ordered
// widest-first so the entry packs without padding holes.
type nodeRegion struct {
	region   mem.RegionAddr
	scramble uint64
	li       [mem.LinesPerRegion]Location
	// touches and installs drive the bypass predictor: a region whose
	// lines are installed but rarely re-touched is streaming. Another
	// example of "attaching properties to each region" (§IV-D).
	touches  uint32
	installs uint32
	private  bool
	active   activeStore
	// instrStream records which L1 array (I or D) the region's
	// L1-resident lines live in; a region's lines occupy one stream's
	// array at a time (footnote 2: separate MD1-I/L1-I structures).
	instrStream bool
}

// bypassMinInstalls and bypassReuseFactor parameterize the streaming
// predictor: a region is streaming once at least bypassMinInstalls lines
// were installed and the average touches per installed line stayed under
// bypassReuseFactor.
const (
	bypassMinInstalls  = 8
	bypassReuseFactor  = 2
	bypassCounterLimit = 1 << 20 // saturation, avoids overflow
)

// streaming reports whether the region's behaviour predicts no reuse.
func (nr *nodeRegion) streaming() bool {
	return nr.installs >= bypassMinInstalls &&
		nr.touches < nr.installs*bypassReuseFactor
}

func (nr *nodeRegion) noteTouch() {
	if nr.touches < bypassCounterLimit {
		nr.touches++
	}
}

func (nr *nodeRegion) noteInstall() {
	if nr.installs < bypassCounterLimit {
		nr.installs++
	}
}

func newNodeRegion(r mem.RegionAddr, private bool, scramble uint64) *nodeRegion {
	nr := &nodeRegion{region: r, private: private, scramble: scramble, active: activeMD2}
	for i := range nr.li {
		nr.li[i] = Mem()
	}
	return nr
}

// dirRegion is the MD3 entry for a region: Presence Bits over the nodes,
// the master Location Information for each line (valid only while the
// region is not private), and the region's dynamic-indexing scramble,
// assigned when the entry is created (§IV-D).
type dirRegion struct {
	region   mem.RegionAddr
	scramble uint64
	li       [mem.LinesPerRegion]Location
	pb       uint16
}

func newDirRegion(r mem.RegionAddr, scramble uint64) *dirRegion {
	dr := &dirRegion{region: r, scramble: scramble}
	for i := range dr.li {
		dr.li[i] = Mem()
	}
	return dr
}

// class returns the region's classification.
func (d *dirRegion) class() Class { return ClassifyPB(d.pb) }

// setPB marks node present.
func (d *dirRegion) setPB(node int) { d.pb |= 1 << uint(node) }

// clearPB marks node absent.
func (d *dirRegion) clearPB(node int) { d.pb &^= 1 << uint(node) }

// hasPB reports whether node is present.
func (d *dirRegion) hasPB(node int) bool { return d.pb&(1<<uint(node)) != 0 }

// pbNodes returns the indices of the set presence bits. It allocates;
// protocol hot paths iterate a pbSnapshot instead.
func (d *dirRegion) pbNodes() []int {
	var out []int
	for n := 0; n < 16; n++ {
		if d.hasPB(n) {
			out = append(out, n)
		}
	}
	return out
}

// pbSnapshot captures the presence bits for allocation-free iteration:
//
//	for pb := d.pbSnapshot(); pb != 0; pb = pb.drop() {
//		mid := pb.node()
//	}
//
// Like pbNodes, the snapshot is taken once — transactions that clear
// presence bits mid-loop (eviction cascades) still see the membership
// as of the snapshot, in ascending node order.
type pbSnapshot uint16

func (d *dirRegion) pbSnapshot() pbSnapshot { return pbSnapshot(d.pb) }

// node returns the lowest node id in the snapshot.
func (p pbSnapshot) node() int { return bits.TrailingZeros16(uint16(p)) }

// drop removes the lowest node id from the snapshot.
func (p pbSnapshot) drop() pbSnapshot { return p & (p - 1) }

// solePBNode returns the only node with a set presence bit; it panics if
// the region is not private.
func (d *dirRegion) solePBNode() int {
	if popcount16(d.pb) != 1 {
		panic(fmt.Sprintf("core: solePBNode on region with %d PB nodes", popcount16(d.pb)))
	}
	return bits.TrailingZeros16(d.pb)
}

package core

import (
	"fmt"

	"d2m/internal/cache"
	"d2m/internal/energy"
	"d2m/internal/mem"
	"d2m/internal/noc"
	"d2m/internal/timing"
)

// node is one core's private slice of the system: two first-level
// metadata stores (MD1-I virtually tagged for the instruction stream,
// MD1-D for data), a second-level metadata store (MD2, physically
// tagged), the tag-less L1 caches and the optional tag-less L2.
type node struct {
	id  int
	sys *System

	md1i, md1d *cache.Table
	md2        *cache.Table
	md1iEnt    []*nodeRegion
	md1dEnt    []*nodeRegion
	md2Ent     []*nodeRegion

	l1i, l1d *dataStore
	l2       *dataStore // nil when the config has no private L2

	// memoI and memoD cache the last MD1 hit per stream (the slot the
	// stream's previous access found its region in). Consecutive
	// accesses overwhelmingly stay within one region, so the memo lets
	// lookupMD skip the hash and associative probe; it is verified
	// against the live table before use (key match at the remembered
	// slot), so a stale memo — after an MD1 eviction, migration, or
	// snapshot restore — falls through to the full probe instead of
	// misresolving. Purely an access-path shortcut: timing, energy and
	// LRU updates are charged identically on both paths.
	memoI, memoD md1Memo

	// Adaptive way-repartitioning state (Config.AdaptiveWays): the
	// active-way split between the L1-D data store and the MD1-D
	// metadata store (l1dActive + md1dActive == AdaptiveWayBudget), and
	// the current interval's miss counters feeding the epoch policy.
	// The counters live here rather than in Stats so the measurement
	// boundary's statistics reset does not disturb the policy, and so
	// warm snapshots carry them.
	l1dActive, md1dActive int
	epochDataMisses       uint64
	epochMDMisses         uint64

	// pred is the node's direct-mapped region-level predictor
	// (Config.LevelPred): indexed by the hashed region key, each entry
	// holds the LocKind that served the region's last access, plus one
	// (zero = never seen).
	pred []uint8

	// streamInstr records, per region currently tracked, whether the
	// region's L1-resident lines live in the L1-I (true) or L1-D.
	// Keyed by the region entry itself to avoid a map.
}

// md1Memo remembers where a stream's last access found its region in
// the MD1 (slot is the flat table index).
type md1Memo struct {
	region mem.RegionAddr
	slot   int
	ok     bool
}

// System is a complete D2M machine: the nodes, the LLC (far-side
// monolith or near-side slices), the globally shared metadata MD3 with
// its presence bits, the interconnect, and the energy meter.
type System struct {
	cfg Config

	nodes  []*node
	far    *dataStore   // far-side LLC; nil when cfg.NearSide
	slices []*dataStore // near-side slices; nil when far-side

	md3    *cache.Table
	md3Ent []*dirRegion

	fab   *noc.Fabric
	meter *energy.Meter
	st    Stats
	rng   *mem.RNG

	// NS-LLC placement pressure (§IV-B): replacements per epoch per
	// slice; prev holds the last completed epoch, which is what the
	// policy consults ("periodically shared with the other NS-LLCs").
	pressureCur  []uint64
	pressurePrev []uint64
	epochMark    uint64

	// Coherence oracle (Config.CoherenceDebug): verMem is the version
	// memory holds per line, verSeq the global write sequence, and xfer
	// stages the version of data in flight toward an install.
	verMem    map[mem.LineAddr]uint64
	verLatest map[mem.LineAddr]uint64
	verSeq    uint64
	xfer      uint64

	// bypassServed marks that the current access was served by the
	// bypass path (no L1 allocation), for the oracle.
	bypassServed bool
	// inPrefetch suppresses recursive prefetching and bypassing while a
	// prefetch runs through the normal read machinery.
	inPrefetch bool

	// lockWindow holds the regions of the most recent blocking
	// transactions — a stand-in for the transactions that would be in
	// flight concurrently on real hardware (≈ one per node). A new
	// blocking transaction whose lock hash matches a different region
	// in the window would have stalled: a lock-bit collision.
	lockWindow []mem.RegionAddr
	lockPos    int

	// rpFallback stages the master location behind a replica RP in
	// flight toward an L1 install: if the install's eviction cascade
	// reclaims the RP target (e.g. a just-created slice replica), the
	// RP degrades to this master instead of to memory, which would be
	// stale while a dirty master lives.
	rpFallback Location
}

// pressureEpoch is the accounting epoch of the NS placement policy,
// "every 10k cycles" in the paper, approximated as 10k accesses.
const pressureEpoch = 10000

// NewSystem builds a D2M system from cfg. It panics on an invalid
// configuration (construction errors are programming errors in this
// simulator).
func NewSystem(cfg Config) *System {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	s := &System{
		cfg:   cfg,
		meter: energy.NewMeter(energy.Default22nm()),
		rng:   mem.NewRNG(cfg.Seed),
	}
	s.fab = noc.NewFabricTopology(s.meter, cfg.Topology)
	if cfg.LockBits == 0 {
		s.cfg.LockBits = 1024
	}
	s.lockWindow = make([]mem.RegionAddr, cfg.Nodes)
	for i := range s.lockWindow {
		s.lockWindow[i] = ^mem.RegionAddr(0)
	}
	if cfg.CoherenceDebug {
		s.verMem = make(map[mem.LineAddr]uint64)
		s.verLatest = make(map[mem.LineAddr]uint64)
	}

	s.md3 = cache.GetTable(cfg.MD3Sets, cfg.MD3Ways)
	s.md3Ent = dirRegArrays.Get(cfg.MD3Sets * cfg.MD3Ways)
	s.meter.AddLeakage(energy.LeakMD3)

	if cfg.NearSide {
		s.slices = make([]*dataStore, cfg.Nodes)
		for i := range s.slices {
			s.slices[i] = newDataStore(fmt.Sprintf("ns-llc[%d]", i), cfg.SliceSets, cfg.SliceWays, energy.OpLLCData, timing.LLCData)
			s.slices[i].scrambled = true
			s.meter.AddLeakage(energy.LeakLLCSlice)
		}
		s.pressureCur = make([]uint64, cfg.Nodes)
		s.pressurePrev = make([]uint64, cfg.Nodes)
	} else {
		s.far = newDataStore("llc", cfg.LLCSets, cfg.LLCWays, energy.OpLLCData, timing.LLCData)
		s.far.scrambled = true
		// The far-side monolith leaks like all its slices together.
		s.meter.AddLeakage(energy.LeakLLCSlice * 8)
	}

	for i := 0; i < cfg.Nodes; i++ {
		n := &node{
			id:      i,
			sys:     s,
			md1i:    cache.GetTable(cfg.MD1Sets, cfg.MD1Ways),
			md1d:    cache.GetTable(cfg.MD1Sets, cfg.MD1Ways),
			md2:     cache.GetTable(cfg.MD2Sets, cfg.MD2Ways),
			md1iEnt: nodeRegArrays.Get(cfg.MD1Sets * cfg.MD1Ways),
			md1dEnt: nodeRegArrays.Get(cfg.MD1Sets * cfg.MD1Ways),
			md2Ent:  nodeRegArrays.Get(cfg.MD2Sets * cfg.MD2Ways),
			l1i:     newDataStore(fmt.Sprintf("l1i[%d]", i), cfg.L1Sets, cfg.L1Ways, energy.OpL1Data, timing.L1),
			l1d:     newDataStore(fmt.Sprintf("l1d[%d]", i), cfg.L1Sets, cfg.L1Ways, energy.OpL1Data, timing.L1),
		}
		if cfg.L2Sets > 0 {
			n.l2 = newDataStore(fmt.Sprintf("l2[%d]", i), cfg.L2Sets, cfg.L2Ways, energy.OpL2Data, timing.L2)
			s.meter.AddLeakage(energy.LeakL2)
		}
		if cfg.AdaptiveWays {
			n.l1dActive = AdaptiveWayBudget / 2
			n.md1dActive = AdaptiveWayBudget - n.l1dActive
			n.l1d.activeWays = n.l1dActive
		}
		if cfg.LevelPred {
			pe := cfg.PredEntries
			if pe == 0 {
				pe = DefaultPredEntries
			}
			n.pred = make([]uint8, pe)
		}
		s.meter.AddLeakage(2*energy.LeakL1 + 2*energy.LeakMD1 + energy.LeakMD2)
		s.nodes = append(s.nodes, n)
	}
	return s
}

// Config returns the system's configuration.
func (s *System) Config() Config { return s.cfg }

// Stats returns the accumulated counters.
func (s *System) Stats() *Stats { return &s.st }

// ResetMeasurement zeroes every statistic, traffic and dynamic-energy
// counter while keeping all cache/metadata state — the warmup boundary.
func (s *System) ResetMeasurement() {
	s.st = Stats{}
	s.fab.Reset()
	s.meter.ResetCounts()
}

// Fabric returns the interconnect, for traffic reporting.
func (s *System) Fabric() *noc.Fabric { return s.fab }

// Meter returns the energy meter.
func (s *System) Meter() *energy.Meter { return s.meter }

// Endpoint helpers: nodes and their slices share an endpoint; the
// far-side LLC, MD3 and the memory controller live at the hub.

// llcEP returns the endpoint of the LLC store holding loc.
func (s *System) llcEP(loc Location) noc.Endpoint {
	if s.cfg.NearSide {
		return noc.NodeEP(int(loc.Node))
	}
	return noc.Hub
}

// refEP returns the endpoint of an LLC data store (a slice's node, or
// the hub for the far-side monolith).
func (s *System) refEP(st *dataStore) noc.Endpoint {
	if !s.cfg.NearSide {
		return noc.Hub
	}
	for i, sl := range s.slices {
		if sl == st {
			return noc.NodeEP(i)
		}
	}
	return noc.Hub
}

// sliceEP returns the endpoint of slice i (the hub for far-side).
func (s *System) sliceEP(i int) noc.Endpoint {
	if s.cfg.NearSide {
		return noc.NodeEP(i)
	}
	return noc.Hub
}

// sendHub sends between a node and the hub (MD3, far LLC, memory).
func (s *System) sendHub(nodeID int, class noc.Class, cat noc.Category) uint64 {
	return s.fab.SendEP(noc.NodeEP(nodeID), noc.Hub, class, cat)
}

// sendNodes sends between two nodes.
func (s *System) sendNodes(a, b int, class noc.Class, cat noc.Category) uint64 {
	return s.fab.SendEP(noc.NodeEP(a), noc.NodeEP(b), class, cat)
}

// sendLLC sends between a node and the LLC store holding loc (free when
// the store is the node's own slice).
func (s *System) sendLLC(nodeID int, loc Location, class noc.Class, cat noc.Category) uint64 {
	return s.fab.SendEP(noc.NodeEP(nodeID), s.llcEP(loc), class, cat)
}

// llcStore maps an LLC Location onto the data store backing it.
func (s *System) llcStore(loc Location) *dataStore {
	if loc.Kind != LocLLC {
		panic(fmt.Sprintf("core: llcStore on %v", loc))
	}
	if s.cfg.NearSide {
		return s.slices[loc.Node]
	}
	return s.far
}

// llcIsLocal reports whether the LLC location is in node's own slice
// (always false for a far-side LLC).
func (s *System) llcIsLocal(loc Location, nodeID int) bool {
	return s.cfg.NearSide && int(loc.Node) == nodeID
}

// --- MD3 access -----------------------------------------------------------

// acquireRegionLock models the appendix's blocking mechanism: every
// transaction that may change a region's global metadata locks a hashed
// lock bit. Collisions (a different in-flight region hashing to the same
// bit) are counted; with the default 1024 bits they are negligible, as
// the paper reports.
func (s *System) acquireRegionLock(r mem.RegionAddr) {
	s.st.LockAcquires++
	bits := uint64(s.cfg.LockBits)
	h := regionKey(r) % bits
	for _, prev := range s.lockWindow {
		if prev != ^mem.RegionAddr(0) && prev != r && regionKey(prev)%bits == h {
			s.st.LockCollisions++
			break
		}
	}
	s.lockWindow[s.lockPos] = r
	// Wraparound compare instead of modulo (hot-path divide).
	s.lockPos++
	if s.lockPos == len(s.lockWindow) {
		s.lockPos = 0
	}
}

// md3Probe returns the MD3 entry for region r, without charging anything.
func (s *System) md3Probe(r mem.RegionAddr) *dirRegion {
	set := s.md3.SetFor(regionKey(r))
	if way, ok := s.md3.Lookup(set, uint64(r)); ok {
		return s.md3Ent[s.md3.Index(set, way)]
	}
	return nil
}

// md3Touch refreshes the LRU position of region r's MD3 entry.
func (s *System) md3Touch(r mem.RegionAddr) {
	set := s.md3.SetFor(regionKey(r))
	if way, ok := s.md3.Lookup(set, uint64(r)); ok {
		s.md3.Touch(set, way)
	}
}

// md3Alloc creates the MD3 entry for region r, evicting a victim region
// globally if necessary, and returns it. The caller charges the MD3
// access.
func (s *System) md3Alloc(r mem.RegionAddr, t *txn) *dirRegion {
	set := s.md3.SetFor(regionKey(r))
	way := s.md3.VictimWayScored(set, func(w int) int {
		d := s.md3Ent[s.md3.Index(set, w)]
		// Prefer evicting untracked regions (no forced node flushes),
		// then regions tracked by few nodes.
		if d.pb == 0 {
			return 100
		}
		return -popcount16(d.pb)
	})
	if s.md3.Valid(set, way) {
		s.md3EvictEntry(set, way, t)
	}
	scramble := uint64(0)
	if s.cfg.DynamicIndexing {
		scramble = s.rng.Uint64()
	}
	d := newDirRegion(r, scramble)
	s.md3Ent[s.md3.Index(set, way)] = d
	s.md3.Put(set, way, uint64(r))
	return d
}

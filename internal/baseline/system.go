package baseline

import (
	"fmt"

	"d2m/internal/cache"
	"d2m/internal/core"
	"d2m/internal/energy"
	"d2m/internal/mem"
	"d2m/internal/noc"
)

// MESI states for node-cache lines.
type state uint8

const (
	stInvalid state = iota
	stShared
	stExclusive
	stModified
)

func (st state) String() string {
	switch st {
	case stShared:
		return "S"
	case stExclusive:
		return "E"
	case stModified:
		return "M"
	default:
		return "I"
	}
}

// nodeCache is a conventional tagged cache level inside a node.
type nodeCache struct {
	name  string
	tbl   *cache.Table
	state []state
	dirty []bool
}

func newNodeCache(name string, sets, ways int) *nodeCache {
	n := sets * ways
	return &nodeCache{
		name:  name,
		tbl:   cache.GetTable(sets, ways),
		state: stateArrays.Get(n),
		dirty: boolArrays.Get(n),
	}
}

// release returns the cache's backing arrays to the pools for reuse by
// a later newNodeCache. The cache must not be used afterwards.
func (c *nodeCache) release() {
	stateArrays.PutWritten(c.tbl, c.state)
	boolArrays.PutWritten(c.tbl, c.dirty)
	cache.PutTable(c.tbl)
	c.tbl, c.state, c.dirty = nil, nil, nil
}

func (c *nodeCache) lookup(line mem.LineAddr) (set, way int, ok bool) {
	set = c.tbl.SetFor(uint64(line))
	way, ok = c.tbl.Lookup(set, uint64(line))
	return set, way, ok
}

func (c *nodeCache) stateAt(set, way int) *state { return &c.state[c.tbl.Index(set, way)] }
func (c *nodeCache) dirtyAt(set, way int) *bool  { return &c.dirty[c.tbl.Index(set, way)] }

func (c *nodeCache) drop(set, way int) {
	i := c.tbl.Index(set, way)
	c.state[i] = stInvalid
	c.dirty[i] = false
	c.tbl.Invalidate(set, way)
}

// dirEntry is the full-map directory state attached to each (inclusive)
// LLC line.
type dirEntry struct {
	sharers uint16 // may contain stale bits after silent S evictions
	owner   int8   // node holding the line in E/M, or -1
	dirty   bool   // LLC copy newer than memory
}

// node is one core's private hierarchy.
type node struct {
	id   int
	tlb  *cache.Table
	tlb2 *cache.Table
	l1i  *nodeCache
	l1d  *nodeCache
	l2   *nodeCache // nil for Base-2L
}

// System is a complete baseline machine.
type System struct {
	cfg   Config
	nodes []*node
	llc   *cache.Table
	dir   []dirEntry

	fab   *noc.Fabric
	meter *energy.Meter
	st    core.Stats

	// Coherence oracle, mirroring the core package's.
	verMem    map[mem.LineAddr]uint64
	verLatest map[mem.LineAddr]uint64
	verLine   map[mem.LineAddr]uint64 // version of the current cached instance
	verSeq    uint64
	debug     bool
}

// NewSystem builds a baseline system. Set coherenceDebug in tests to
// enable the read-sees-latest-write oracle.
func NewSystem(cfg Config, coherenceDebug bool) *System {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	s := &System{
		cfg:   cfg,
		meter: energy.NewMeter(energy.Default22nm()),
		debug: coherenceDebug,
	}
	s.fab = noc.NewFabricTopology(s.meter, cfg.Topology)
	s.llc = cache.GetTable(cfg.LLCSets, cfg.LLCWays)
	s.dir = dirArrays.Get(cfg.LLCSets * cfg.LLCWays)
	s.meter.AddLeakage(energy.LeakLLCSlice*8 + energy.LeakDir)
	for i := 0; i < cfg.Nodes; i++ {
		n := &node{
			id:   i,
			tlb:  cache.GetTable(cfg.TLBSets, cfg.TLBWays),
			tlb2: cache.GetTable(cfg.TLB2Sets, cfg.TLB2Ways),
			l1i:  newNodeCache(fmt.Sprintf("l1i[%d]", i), cfg.L1Sets, cfg.L1Ways),
			l1d:  newNodeCache(fmt.Sprintf("l1d[%d]", i), cfg.L1Sets, cfg.L1Ways),
		}
		if cfg.L2Sets > 0 {
			n.l2 = newNodeCache(fmt.Sprintf("l2[%d]", i), cfg.L2Sets, cfg.L2Ways)
			s.meter.AddLeakage(energy.LeakL2)
		}
		s.meter.AddLeakage(2*energy.LeakL1 + 2*energy.LeakTLB)
		s.nodes = append(s.nodes, n)
	}
	if coherenceDebug {
		s.verMem = make(map[mem.LineAddr]uint64)
		s.verLatest = make(map[mem.LineAddr]uint64)
		s.verLine = make(map[mem.LineAddr]uint64)
	}
	return s
}

// Config returns the system's configuration.
func (s *System) Config() Config { return s.cfg }

// Stats returns the accumulated counters: the core package's one
// counter set, of which a baseline counts the tagged-hierarchy events.
func (s *System) Stats() *core.Stats { return &s.st }

// ResetMeasurement zeroes every statistic, traffic and dynamic-energy
// counter while keeping all cache state — the warmup boundary.
func (s *System) ResetMeasurement() {
	s.st = core.Stats{}
	s.fab.Reset()
	s.meter.ResetCounts()
}

// Fabric returns the interconnect.
func (s *System) Fabric() *noc.Fabric { return s.fab }

// Meter returns the energy meter.
func (s *System) Meter() *energy.Meter { return s.meter }

func (s *System) dirAt(set, way int) *dirEntry { return &s.dir[s.llc.Index(set, way)] }

// Package workloads provides the synthetic statistical workload
// generators standing in for the paper's benchmark suites (§V-A):
// Parallel (Parsec), HPC (Splash2x), Mobile (Chrome/Telemetry), Server
// (SPEC CPU2006 mixes) and Database (TPC-C on MySQL/InnoDB).
//
// Each benchmark is a Spec: a set of statistical parameters calibrated
// so the generated streams reproduce the published workload
// characteristics that drive the paper's results — the L1 miss and
// late-hit ratios of Table IV, the private-region miss fraction of
// Table V, and the instruction-footprint pressure of the Mobile and
// Database suites.
//
// The data-side model is three-tier: a hot set that fits the L1, a warm
// set that fits the LLC, and a cold tail that reaches memory; shared
// data has its own hot/cold split. Line-level reuse bursts (RepeatFrac)
// produce the late hits of Table IV; the instruction side fetches
// cachelines sequentially within basic-block runs and jumps mostly into
// the hot loop body, with re-jumps modeling call/return reuse.
package workloads

import (
	"d2m/internal/mem"
	"d2m/internal/trace"
)

// Address-space layout shared by all generated programs. Code, private
// data, shared data and the migratory pool live in disjoint windows so
// region classification is driven by behaviour, not aliasing.
const (
	privateBase   = 0x0000_4000
	privateSpan   = 0x1000_0000 // 256MB per node
	codeBase      = 0x1_0000_0000
	codeNodeSpan  = 0x0100_0000 // per-node window for unshared binaries
	sharedBase    = 0x2_0000_0000
	migratoryBase = 0x3_0000_0000
	streamBase    = 0x4_0000_0000
	streamSpan    = 0x0400_0000
)

// Spec parameterizes one synthetic benchmark.
type Spec struct {
	Name  string
	Suite string
	Seed  uint64

	// --- Instruction stream ---
	// Fetches walk cachelines sequentially within a basic-block run; a
	// run ends with a jump into the hot loop body (HotJumpFrac), back
	// to a recent target (RejumpFrac — call/return reuse, the source of
	// instruction late hits), or to a random line of the full binary.
	CodeBytes    int
	HotCodeBytes int
	HotJumpFrac  float64
	RejumpFrac   float64
	JumpProb     float64
	SharedCode   bool

	// --- Data stream ---
	// Each fetch is followed by a data access with probability DataFrac.
	DataFrac  float64
	WriteFrac float64

	// RepeatFrac: probability the next data access reuses the previous
	// data line (spatial/temporal bursts; the source of data late hits).
	RepeatFrac float64

	// Private data tiers: hot (fits the L1), warm (fits the LLC), cold
	// (the full working set, reaching memory).
	HotDataBytes int
	HotDataFrac  float64
	WarmBytes    int
	WarmFrac     float64 // of the non-hot private accesses
	// WarmStrideLines spaces consecutive warm lines apart (default 1 =
	// contiguous). A large power of two recreates the conflict-miss
	// pathology of power-of-two leading dimensions (LU, §IV-D): the
	// whole reused pool aliases onto a handful of cache sets unless the
	// indexing is scrambled.
	WarmStrideLines int
	PrivateWS       int

	// Shared data: hot subset plus a cold pool.
	SharedFrac      float64 // of all data accesses
	SharedHotBytes  int
	SharedHotFrac   float64 // of shared accesses
	SharedWS        int
	SharedWriteFrac float64

	// Streaming: sequential walks, StreamReuse accesses per line, with
	// a line stride (power-of-two strides recreate §IV-D's conflict
	// pathology).
	StreamFrac  float64
	StreamBytes int
	StrideLines int
	StreamReuse int
	// VectorLines models vector/SIMD streaming kernels: each stream
	// step touches this many consecutive cachelines (the vector length,
	// in lines) before the walk advances by StrideLines. Together with
	// StrideLines it is the spatial-locality knob of the Vector suite —
	// unit-stride long vectors maximize line reuse, large strides with
	// short vectors defeat it. 0 and 1 both mean scalar streaming
	// (every step advances by the stride), the pre-Vector behaviour.
	VectorLines int

	// Migratory lines: read-modify-written by different nodes in turn.
	MigratoryLines int
	MigratoryFrac  float64
}

// chances is a Spec's probabilities pre-scaled for the generator's
// integer draws (mem.Chance), one entry per probability field. Streams
// derives it once; it is immutable and shared by every node's stream
// and their clones.
type chances struct {
	hotJump, rejump, jump    mem.Chance
	data, write, repeat      mem.Chance
	hotData, warm            mem.Chance
	shared, sharedHot        mem.Chance
	sharedWrite, stream, mig mem.Chance
}

func (sp *Spec) chances() *chances {
	return &chances{
		hotJump: mem.ChanceOf(sp.HotJumpFrac), rejump: mem.ChanceOf(sp.RejumpFrac),
		jump: mem.ChanceOf(sp.JumpProb), data: mem.ChanceOf(sp.DataFrac),
		write: mem.ChanceOf(sp.WriteFrac), repeat: mem.ChanceOf(sp.RepeatFrac),
		hotData: mem.ChanceOf(sp.HotDataFrac), warm: mem.ChanceOf(sp.WarmFrac),
		shared: mem.ChanceOf(sp.SharedFrac), sharedHot: mem.ChanceOf(sp.SharedHotFrac),
		sharedWrite: mem.ChanceOf(sp.SharedWriteFrac), stream: mem.ChanceOf(sp.StreamFrac),
		mig: mem.ChanceOf(sp.MigratoryFrac),
	}
}

// stream generates one node's accesses for a Spec.
//
// The generator draws 3–6 random numbers per access. Its RNG state is a
// plain value: Fill loads it once, threads it by value through every
// helper that draws (each takes the state and returns the new one, see
// mem.Step) and stores it once at the end, so the state stays in a
// register instead of making a memory round trip around each draw.
type stream struct {
	spec *Spec
	ch   *chances
	node int
	rng  uint64 // xorshift64* state (mem.Step)

	pc       mem.LineAddr
	runLeft  int
	targets  [2]mem.LineAddr // recent jump targets for re-jumps
	lastData mem.Access
	lastW    mem.Chance // write chance of the last data line's pool
	hasLast  bool

	streamPtr  mem.LineAddr
	streamUses int
	burstLeft  int // consecutive lines left in the current vector burst

	// Region cursors give the cold pools the spatial locality real
	// programs have: several nearby lines are touched before moving to
	// another region. This is the property the paper's region-grained
	// metadata (and any TLB) relies on.
	coldCur, shColdCur regionCursor

	// The warm pool is a cyclic line walk (a loop over a medium-sized
	// structure): its reuse distance equals the pool size, which is
	// chosen between the L1 and L2 capacities — every revisit misses
	// the L1 and hits the next level (L2, NS slice, or LLC).
	warmPtr  mem.LineAddr
	warmUses int

	// pending holds the data access emitted after the current fetch. It
	// is a value plus flag rather than a pointer: a pointed-to access
	// escapes to the heap, which at one data access per fetch made the
	// generator the hot path's dominant allocation source.
	pending    mem.Access
	hasPending bool
}

// regionCursor walks a pool region-by-region: it stays within the
// current 1KB region for a geometrically distributed number of draws,
// and half of its region switches revisit one of the 64 most recently
// used regions. The 64kB revisit window sits between the L1 and L2
// capacities, producing the L2-scale temporal locality (loops over
// medium-sized structures) behind the paper's Base-3L L2 hit ratios.
type regionCursor struct {
	region  mem.RegionAddr
	valid   bool
	history [64]mem.RegionAddr
	hist    int
	histPos int
}

var (
	// regionSwitch makes a cursor touch ~16 draws per region visit.
	regionSwitch = mem.ChanceOf(1.0 / 16)
	// regionRevisit is the chance a region switch returns to a recently
	// visited region instead of a fresh one.
	regionRevisit = mem.ChanceOf(0.5)
	// migratoryWrite is the store chance of a migratory access.
	migratoryWrite = mem.ChanceOf(0.5)
)

// pick draws the cursor's next address from state s and returns the new
// state with it.
func (c *regionCursor) pick(s uint64, base mem.Addr, bytes int) (uint64, mem.Addr) {
	move := !c.valid
	if !move {
		s, move = mem.StepHit(s, regionSwitch)
	}
	if move {
		regions := bytes / mem.RegionBytes
		if regions < 1 {
			// Pools smaller than a region degrade to line picks.
			return pickLine(s, base, bytes)
		}
		revisit := false
		if c.hist > 0 {
			s, revisit = mem.StepHit(s, regionRevisit)
		}
		var k int
		if revisit {
			s, k = mem.StepIntn(s, c.hist)
			c.region = c.history[k]
		} else {
			s, k = mem.StepIntn(s, regions)
			c.region = (base + mem.Addr(k)*mem.RegionBytes).Region()
			c.history[c.histPos] = c.region
			// Wraparound compare instead of modulo (hot-path divide).
			c.histPos++
			if c.histPos == len(c.history) {
				c.histPos = 0
			}
			if c.hist < len(c.history) {
				c.hist++
			}
		}
		c.valid = true
	}
	s, k := mem.StepIntn(s, mem.LinesPerRegion)
	return s, c.region.Line(k).Addr()
}

// pickLine draws a uniformly random line of the pool at base.
func pickLine(s uint64, base mem.Addr, bytes int) (uint64, mem.Addr) {
	s, k := mem.StepIntn(s, max(bytes/mem.LineBytes, 1))
	return s, base + mem.Addr(k)*mem.LineBytes
}

// Streams builds the per-node streams for a machine with the given node
// count.
func (sp *Spec) Streams(nodes int) []trace.Stream {
	base := mem.NewRNG(sp.Seed ^ hashName(sp.Name))
	ch := sp.chances()
	out := make([]trace.Stream, nodes)
	for i := 0; i < nodes; i++ {
		st := &stream{
			spec: sp,
			ch:   ch,
			node: i,
			rng:  base.Fork(uint64(i) + 1).State(),
		}
		st.rng, st.pc = st.jumpTarget(st.rng, true)
		st.targets = [2]mem.LineAddr{st.pc, st.pc}
		st.streamPtr = st.streamStart()
		out[i] = st
	}
	return out
}

// Clone implements trace.Cloner: the returned stream continues the
// identical access sequence from the current position. Every cursor
// and the RNG state are value fields, so a struct copy suffices; spec
// and the chance table are shared (immutable after Streams).
func (st *stream) Clone() trace.Stream {
	cp := *st
	return &cp
}

// Next emits the node's next access: a Fill of one access, which
// leaves a drawn data access pending exactly as a longer Fill would.
func (st *stream) Next() mem.Access {
	var buf [1]mem.Access
	st.Fill(buf[:])
	return buf[0]
}

// Fill implements trace.Stream. The block path exists so the
// interleaver and engine pay one dynamic dispatch per block instead of
// one per access. Each step draws in a fixed order (jump decision,
// fetch, data decision, data draw); a data access that falls past the
// buffer is stashed in pending and emitted first by the next call, so
// the sequence does not depend on how it is split into blocks.
// Generator streams are infinite and node-independent, so Fill always
// fills the whole buffer and staging blocks per node is safe.
func (st *stream) Fill(buf []mem.Access) int {
	ch := st.ch
	s, node := st.rng, st.node
	i := 0
	if st.hasPending && len(buf) > 0 {
		st.hasPending = false
		buf[i] = st.pending
		i++
	}
	pc, runLeft := st.pc, st.runLeft
	for i < len(buf) {
		jump := runLeft <= 0
		if !jump {
			s, jump = mem.StepHit(s, ch.jump)
		}
		if jump {
			var t mem.LineAddr
			var k int
			s, t = st.jumpTarget(s, false)
			s, k = mem.StepIntn(s, 2)
			st.targets[k] = t
			pc = t
			s, runLeft = mem.StepIntn(s, 11)
			runLeft += 2
		}
		buf[i] = mem.Access{Node: node, Addr: pc.Addr(), Kind: mem.IFetch}
		i++
		pc++
		runLeft--

		var data bool
		if s, data = mem.StepHit(s, ch.data); data {
			var a mem.Access
			s, a = st.dataAccess(s)
			if i < len(buf) {
				buf[i] = a
				i++
			} else {
				st.pending = a
				st.hasPending = true
			}
		}
	}
	st.rng = s
	st.pc, st.runLeft = pc, runLeft
	return len(buf)
}

func hashName(name string) uint64 {
	h := uint64(1469598103934665603)
	for i := 0; i < len(name); i++ {
		h ^= uint64(name[i])
		h *= 1099511628211
	}
	return h
}

func (st *stream) codeWindow() mem.Addr {
	if st.spec.SharedCode {
		return codeBase
	}
	return codeBase + mem.Addr(st.node)*codeNodeSpan
}

// jumpTarget draws the next jump destination from state s and returns
// the new state with it.
func (st *stream) jumpTarget(s uint64, forceHot bool) (uint64, mem.LineAddr) {
	sp := st.spec
	var k int
	if !forceHot {
		var rejump bool
		if s, rejump = mem.StepHit(s, st.ch.rejump); rejump {
			s, k = mem.StepIntn(s, 2)
			return s, st.targets[k]
		}
	}
	hot := forceHot
	if !hot {
		s, hot = mem.StepHit(s, st.ch.hotJump)
	}
	span := sp.CodeBytes
	if hot {
		span = sp.HotCodeBytes
	}
	if span < mem.LineBytes {
		span = mem.LineBytes
	}
	s, k = mem.StepIntn(s, span/mem.LineBytes)
	return s, (st.codeWindow() + mem.Addr(k*mem.LineBytes)).Line()
}

func (st *stream) streamStart() mem.LineAddr {
	return (mem.Addr(streamBase) + mem.Addr(st.node)*streamSpan).Line()
}

// store draws from state s whether an access to a pool with write
// chance w is a store, and returns the new state with the access kind.
func store(s uint64, w mem.Chance) (uint64, mem.Kind) {
	s, hit := mem.StepHit(s, w)
	if hit {
		return s, mem.Store
	}
	return s, mem.Load
}

// dataAccess draws one data reference from the Spec's mixture.
func (st *stream) dataAccess(s uint64) (uint64, mem.Access) {
	if st.hasLast {
		var repeat bool
		if s, repeat = mem.StepHit(s, st.ch.repeat); repeat {
			// Reuse burst on the previous data line, drawing the write
			// chance of the pool the line belongs to (a read-only pool
			// must not see stores on repeats).
			a := st.lastData
			s, a.Kind = store(s, st.lastW)
			return s, a
		}
	}
	s, a := st.freshData(s)
	st.lastData = a
	st.hasLast = true
	return s, a
}

// freshData draws a data reference from one of the pools. A pool whose
// share is zero takes no draw.
func (st *stream) freshData(s uint64) (uint64, mem.Access) {
	sp, ch := st.spec, st.ch
	a := mem.Access{Node: st.node}
	var hit bool

	if ch.mig != 0 {
		if s, hit = mem.StepHit(s, ch.mig); hit {
			s, a.Kind = store(s, migratoryWrite)
			st.lastW = migratoryWrite
			s, a.Addr = pickLine(s, migratoryBase, sp.MigratoryLines*mem.LineBytes)
			return s, a
		}
	}

	if ch.shared != 0 {
		if s, hit = mem.StepHit(s, ch.shared); hit {
			if s, hit = mem.StepHit(s, ch.sharedHot); hit {
				s, a.Addr = pickLine(s, sharedBase, sp.SharedHotBytes)
			} else {
				s, a.Addr = st.shColdCur.pick(s, sharedBase+0x0100_0000, sp.SharedWS)
			}
			s, a.Kind = store(s, ch.sharedWrite)
			st.lastW = ch.sharedWrite
			return s, a
		}
	}

	if ch.stream != 0 {
		if s, hit = mem.StepHit(s, ch.stream); hit {
			reuse := sp.StreamReuse
			if reuse < 1 {
				reuse = 1
			}
			st.streamUses++
			if st.streamUses >= reuse {
				st.streamUses = 0
				stride := sp.StrideLines
				if stride < 1 {
					stride = 1
				}
				if st.burstLeft > 0 {
					// Continue the vector burst: the next consecutive line.
					st.burstLeft--
					st.streamPtr++
				} else {
					st.streamPtr += mem.LineAddr(stride)
					if sp.VectorLines > 1 {
						st.burstLeft = sp.VectorLines - 1
					}
				}
				limit := st.streamStart() + mem.LineAddr(max(sp.StreamBytes/mem.LineBytes, 1))
				if st.streamPtr >= limit {
					var k int
					s, k = mem.StepIntn(s, stride)
					st.streamPtr = st.streamStart() + mem.LineAddr(k)
					st.burstLeft = 0
				}
			}
			s, a.Kind = store(s, ch.write)
			st.lastW = ch.write
			a.Addr = st.streamPtr.Addr()
			return s, a
		}
	}

	base := mem.Addr(privateBase) + mem.Addr(st.node)*privateSpan
	if s, hit = mem.StepHit(s, ch.hotData); hit {
		s, a.Addr = pickLine(s, base, sp.HotDataBytes)
	} else if s, hit = mem.StepHit(s, ch.warm); hit {
		off := mem.Addr(0x0100_0000)
		if sp.WarmStrideLines > 1 {
			off = 0x0800_0000 // strided pools span far more address space
		}
		a.Addr = st.warmWalk(base + off)
	} else {
		s, a.Addr = st.coldCur.pick(s, base+0x0200_0000, sp.PrivateWS)
	}
	s, a.Kind = store(s, ch.write)
	st.lastW = ch.write
	return s, a
}

// warmWalk advances the cyclic warm-pool walk: warmReuse accesses per
// line, wrapping at the pool size, with an optional line stride.
func (st *stream) warmWalk(base mem.Addr) mem.Addr {
	lines := st.spec.WarmBytes / mem.LineBytes
	if lines < 1 {
		lines = 1
	}
	st.warmUses++
	if st.warmUses >= warmReuse {
		st.warmUses = 0
		st.warmPtr++
		if st.warmPtr >= mem.LineAddr(lines) {
			st.warmPtr = 0
		}
	}
	stride := mem.Addr(st.spec.WarmStrideLines)
	if stride < 1 {
		stride = 1
	}
	return base + mem.Addr(st.warmPtr)*stride*mem.LineBytes
}

// warmReuse is the number of consecutive accesses to each warm line
// (line-level reuse is supplied by the RepeatFrac burst mechanism).
const warmReuse = 1

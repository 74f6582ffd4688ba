// Package sim drives a simulated hierarchy with workload streams and
// derives the paper's timing metrics: per-node cycle counts under an
// out-of-order overlap model, late hits via an MSHR-style in-flight
// table, and the normalized speedups of Figure 7.
package sim

import (
	"context"

	"d2m/internal/mem"
	"d2m/internal/trace"
)

// Machine is any simulated memory hierarchy.
type Machine interface {
	// Access performs one access, returning its critical-path latency
	// and whether it hit in the L1.
	Access(a mem.Access) (latency uint64, l1Hit bool)
	// ResetMeasurement starts the measurement window: statistics reset,
	// hierarchy state preserved.
	ResetMeasurement()
}

// EpochMachine is the optional interval hook a Machine may implement:
// the engine calls EpochTick once per EpochLen accesses, in warmup and
// measurement alike, so adaptive mechanisms can reconfigure themselves
// at fixed access counts. EpochLen is read once per run phase; a value
// <= 0 disables the hook. The engine aligns epoch phase to the start of
// each phase (Warmup, MeasureLanes), so a snapshot-restored run ticks
// at exactly the positions a fresh run does inside the measurement
// window — the warm-snapshot exactness contract.
//
// The hook is implemented by clipping the refill size to the next epoch
// boundary, so the stepBlock hot loop is untouched and machines that do
// not implement the interface pay one nil-check per run phase and
// nothing per block.
type EpochMachine interface {
	Machine
	// EpochLen returns the interval in accesses between ticks (<= 0:
	// no ticks).
	EpochLen() int
	// EpochTick fires at each epoch boundary.
	EpochTick()
}

// CPU overlap model (§V-D): the simulated core is "a fairly aggressive
// OoO CPU", so "not all of this latency reduction will translate
// directly into performance". Instruction-miss stalls are unhidden (the
// frontend starves), load misses are partially hidden by the window, and
// store misses drain through the store buffer.
const (
	// InstructionsPerFetch converts fetch-group accesses to retired
	// instructions for the per-kilo-instruction metrics of Figure 5.
	InstructionsPerFetch = 6
	// baseCyclesPerAccess is the pipeline's cost of one access when the
	// memory system never stalls it.
	baseCyclesPerAccess = 1
	ifetchBlocking      = 1.0
	loadBlocking        = 0.35
	storeBlocking       = 0.05
	// lateHitBlocking applies to the residual wait of a hit under an
	// outstanding miss.
	lateHitBlocking = 0.30
)

// Report summarizes one measured run.
type Report struct {
	// Cycles is the machine time: the maximum per-node clock.
	Cycles uint64
	// NodeCycles are the individual per-node clocks.
	NodeCycles []uint64
	// Instructions is the retired-instruction estimate across all nodes.
	Instructions uint64
	// Accesses is the number of memory accesses in the window.
	Accesses uint64
	// LateHitsI and LateHitsD count L1 hits that waited on an
	// outstanding miss (the "Late Hits" columns of Table IV).
	LateHitsI, LateHitsD uint64
	// FetchAccesses counts instruction-fetch accesses.
	FetchAccesses uint64
	// missLat is the L1-miss latency histogram: missLat[c] counts
	// misses whose critical-path latency was c cycles (the last bucket
	// absorbs the overflow).
	missLat []uint64
	misses  uint64
}

// missLatBuckets bounds the latency histogram; DRAM round trips land
// well under this, so the overflow bucket stays empty in practice.
const missLatBuckets = 2048

// MissLatencyPercentile returns the latency (cycles) at or below which
// the given fraction (0 < p <= 1) of L1 misses completed.
func (r Report) MissLatencyPercentile(p float64) uint64 {
	if r.misses == 0 || len(r.missLat) == 0 {
		return 0
	}
	want := uint64(p * float64(r.misses))
	if want == 0 {
		want = 1
	}
	var cum uint64
	for c, n := range r.missLat {
		cum += n
		if cum >= want {
			return uint64(c)
		}
	}
	return uint64(len(r.missLat) - 1)
}

// LateHitRatioI returns late hits per L1-I access.
func (r Report) LateHitRatioI() float64 {
	if r.FetchAccesses == 0 {
		return 0
	}
	return float64(r.LateHitsI) / float64(r.FetchAccesses)
}

// LateHitRatioD returns late hits per L1-D access.
func (r Report) LateHitRatioD() float64 {
	d := r.Accesses - r.FetchAccesses
	if d == 0 {
		return 0
	}
	return float64(r.LateHitsD) / float64(d)
}

// Engine runs streams against a machine. Each node has two clocks: the
// issue clock advances roughly one cycle per access (the OoO frontend
// runs ahead), and determines whether a later access to an in-flight
// line is a late hit; the retire clock additionally absorbs the
// blocking fraction of each stall and is what Cycles reports.
type Engine struct {
	m      Machine
	nodes  int
	clock  []uint64   // retire clocks
	issue  []uint64   // issue clocks
	inFly  []inflight // per node: line -> issue-ready time (MSHR stand-in)
	block  []mem.Access
	report Report

	// Epoch hook state (EpochMachine): epoch is nil for plain machines;
	// epochLen caches EpochLen() for the current phase and sinceTick
	// counts accesses since the last tick.
	epoch     EpochMachine
	epochLen  int
	sinceTick int
}

// BlockAccesses is the engine's refill granularity: sources deliver up
// to this many accesses per Fill and the engine consumes them in a
// tight loop. Context cancellation and lane-group captures happen at
// block boundaries; the block is small enough that both stay
// responsive, and small enough to stay L1/L2-resident.
const BlockAccesses = 1024

// NewEngine returns an engine for a machine with the given node count.
// All hot-path state (clocks, the per-node in-flight tables and the
// refill block) is allocated here, once per engine; each measurement
// phase resets it in place. An engine drives one machine, and the d2m
// run path builds a fresh engine for every run, so these allocations
// are part of each run's setup.
func NewEngine(m Machine, nodes int) *Engine {
	e := &Engine{m: m, nodes: nodes, clock: make([]uint64, nodes), issue: make([]uint64, nodes)}
	if em, ok := m.(EpochMachine); ok {
		e.epoch = em
	}
	e.inFly = make([]inflight, nodes)
	for i := range e.inFly {
		e.inFly[i] = newInflight()
	}
	e.block = make([]mem.Access, BlockAccesses)
	return e
}

// RunContext executes warmup accesses (untimed, hierarchy state
// updates), then measures the next measure accesses and returns the
// report: Warmup, then MeasureLanes with one lane. The source is any
// access stream — typically a trace.Interleaver over workload
// generators, or a trace.Reader replaying a recorded run. The run loop
// polls ctx at every block boundary (at most BlockAccesses apart, in
// warmup and measurement alike) and abandons the simulation with
// ctx.Err() once the context is done, so a killed job stops burning CPU
// mid-run. The partial report is discarded — a cancelled run returns a
// zero Report.
func (e *Engine) RunContext(ctx context.Context, iv trace.Stream, warmup, measure int) (Report, error) {
	if err := e.Warmup(ctx, iv, warmup); err != nil {
		return Report{}, err
	}
	var rep Report
	err := e.MeasureLanes(ctx, iv, []int{measure}, func(int) bool { return true },
		func(_ int, r Report) { rep = r })
	if err != nil {
		return Report{}, err
	}
	return rep, nil
}

// Warmup drives warmup accesses through the machine untimed, updating
// hierarchy state only. It is the first half of RunContext, split out
// so the warm-state snapshot layer can capture the machine at the
// warmup/measurement boundary (after Warmup, before MeasureLanes). The
// stream is consumed a block at a time and never drawn past the warmup
// boundary, so the state a snapshot captures is the stream's state
// after exactly warmup accesses.
func (e *Engine) Warmup(ctx context.Context, iv trace.Stream, warmup int) error {
	e.beginEpochPhase()
	for done := 0; done < warmup; {
		if ctx.Err() != nil {
			return ctx.Err()
		}
		blk := e.refill(iv, e.clampEpoch(warmup-done))
		for _, a := range blk {
			e.m.Access(a)
		}
		done += len(blk)
		e.advanceEpoch(len(blk))
	}
	return nil
}

// beginEpochPhase re-reads the machine's epoch length and aligns the
// epoch phase to the start of a run phase (Warmup, MeasureLanes).
// Re-aligning at MeasureLanes is what makes a snapshot-restored run
// tick at the same in-window positions as a fresh one.
func (e *Engine) beginEpochPhase() {
	e.epochLen, e.sinceTick = 0, 0
	if e.epoch != nil {
		e.epochLen = e.epoch.EpochLen()
	}
}

// clampEpoch clips a refill request so no delivered block straddles an
// epoch boundary.
func (e *Engine) clampEpoch(want int) int {
	if e.epochLen > 0 && want > e.epochLen-e.sinceTick {
		want = e.epochLen - e.sinceTick
	}
	return want
}

// advanceEpoch accounts n stepped accesses against the epoch phase,
// firing the tick at the boundary. clampEpoch guarantees the boundary
// is never overshot.
func (e *Engine) advanceEpoch(n int) {
	if e.epochLen <= 0 {
		return
	}
	e.sinceTick += n
	if e.sinceTick >= e.epochLen {
		e.epoch.EpochTick()
		e.sinceTick = 0
	}
}

// refill draws the next block of at most want accesses. A source
// returning zero accesses is a programming error: engine sources are
// either infinite generators or looping trace readers.
func (e *Engine) refill(iv trace.Stream, want int) []mem.Access {
	if want > len(e.block) {
		want = len(e.block)
	}
	n := iv.Fill(e.block[:want])
	if n <= 0 {
		panic("sim: stream exhausted mid-run")
	}
	return e.block[:n]
}

// stepBlock processes one delivered block through the timing model and
// returns its length. The per-access step is folded in so the loop
// keeps the engine's slice headers and report pointer in locals instead
// of reloading them through e on every access.
func (e *Engine) stepBlock(blk []mem.Access) int {
	issue, clock := e.issue, e.clock
	rep := &e.report
	for _, a := range blk {
		n := a.Node
		now := issue[n]
		line := a.Addr.Line()
		lat, hit := e.m.Access(a)

		if a.Kind.IsInstr() {
			rep.FetchAccesses++
		}

		stall := 0.0
		if hit {
			// The probe can only find a live entry while some miss is
			// still in flight (maxReady bounds every entry's ready
			// time), so hit-dominated phases skip it on one compare.
			if inf := &e.inFly[n]; inf.maxReady > now {
				if ready, ok := inf.lookup(line); ok && ready > now {
					// Late hit: the line is still in flight (a
					// secondary miss on the MSHR); part of the residual
					// wait blocks. An entry whose ready time has passed
					// is dead — the table reclaims it lazily.
					wait := float64(ready - now)
					stall = wait * lateHitBlocking
					if a.Kind.IsInstr() {
						rep.LateHitsI++
					} else {
						rep.LateHitsD++
					}
				}
			}
		} else {
			e.inFly[n].insert(line, now+lat, now)
			b := lat
			if b >= missLatBuckets {
				b = missLatBuckets - 1
			}
			rep.missLat[b]++
			rep.misses++
			switch {
			case a.Kind.IsInstr():
				stall = float64(lat) * ifetchBlocking
			case a.Kind.IsWrite():
				stall = float64(lat) * storeBlocking
			default:
				stall = float64(lat) * loadBlocking
			}
		}
		issue[n] = now + baseCyclesPerAccess
		clock[n] += baseCyclesPerAccess + uint64(stall)
	}
	rep.Accesses += uint64(len(blk))
	return len(blk)
}

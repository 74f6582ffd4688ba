package core

// Stats is the one counter set every registered hierarchy counts into:
// the D2M systems here and the tagged baselines alike. Field groups map
// directly onto the paper's reported metrics: the appendix's per-kilo-
// memory-operation (PKMO) event frequencies, Table IV's hit ratios,
// Table V's invalidation and private-miss numbers, and Figure 5's traffic
// split (the latter lives in the noc.Fabric). A family leaves a field at
// 0 when it has no event for it: a baseline never counts metadata or
// appendix-case events, and a D2M system never counts directory lookups
// or back-invalidations.
type Stats struct {
	// Access demographics.
	Accesses uint64
	Instr    uint64
	Reads    uint64
	Writes   uint64

	// L1 behaviour.
	L1IHits   uint64
	L1IMisses uint64
	L1DHits   uint64
	L1DMisses uint64
	L2Hits    uint64

	// Translation (baselines only; D2M needs no TLB on the L1 path).
	TLBMisses  uint64
	TLB2Misses uint64

	// Metadata hierarchy behaviour. The MD1Cover* counters split MD1
	// hits by where the access was then served (§II-A reports 99.7%,
	// 87.2% and 75.6% coverage of L1, L2 and memory hits for D2D).
	MD1CoverL1  uint64
	MD1CoverL2  uint64
	MD1CoverLLC uint64
	MD1CoverMem uint64
	MD1Hits     uint64 // access found active LI in the first-level MD
	MD2Hits     uint64 // MD1 missed, MD2 had the entry
	MDMisses    uint64 // region metadata had to come from MD3 (case D)
	MD2Spills   uint64 // MD2 entries evicted (metadata written back to MD3)
	MD2Prunes   uint64 // MD2 entries dropped by the pruning heuristic
	MD3Evicts   uint64 // MD3 entries evicted (global region flush)

	// Coherence protocol events (appendix cases). EvA* split by where
	// the master was found.
	EvALLC      uint64 // read miss, MD hit, master in LLC
	EvAMem      uint64 // read miss, MD hit, master in memory
	EvANode     uint64 // read miss, MD hit, master in a remote node
	EvB         uint64 // write miss, private region, MD hit
	EvC         uint64 // write miss/upgrade, shared region
	EvD1        uint64 // MD miss: untracked -> private
	EvD2        uint64 // MD miss: private -> shared
	EvD3        uint64 // MD miss: shared -> shared
	EvD4        uint64 // MD miss: uncached -> private
	EvE         uint64 // eviction of master, private region
	EvF         uint64 // eviction of dirty master, shared region
	Redirect    uint64 // remote-node read redirected (stale NodeID pointer)
	NackMD3     uint64 // remote-node read NACKed, fell back to MD3
	ChaseBreaks uint64 // stale-referral cycle broken by the memory fallback

	// Direct-vs-indirected accesses: a miss is "direct" when it is
	// satisfied without consulting MD3 (cases A and B; ~90% in the
	// paper).
	DirectMisses    uint64
	IndirectMisses  uint64
	MD3Lookups      uint64
	PrivateMisses   uint64 // misses whose region was classified private
	SharedMisses    uint64
	UntrackedMisses uint64 // misses whose metadata came fresh from MD3

	// Invalidations (Table V). False invalidations hit nodes that track
	// the region but never cached the line.
	InvRecv      uint64
	FalseInvRecv uint64

	// Directory protocol (baselines only): full-map directory lookups,
	// inclusion-victim back-invalidations, S->M upgrades and dirty or
	// exclusive forwards from an owner node.
	DirLookups uint64
	BackInv    uint64
	Upgrades   uint64
	Fwd        uint64

	// LLC behaviour.
	LLCHits        uint64 // reads served by any LLC slice or the far LLC
	LLCMisses      uint64 // baseline LLC misses (D2M counts DRAMReads)
	LLCLocalHitsI  uint64 // served by the node's own NS slice, ifetch
	LLCLocalHitsD  uint64
	LLCRemoteHitsI uint64
	LLCRemoteHitsD uint64
	Replications   uint64 // lines replicated into a local slice (§IV-C)
	BypassedReads  uint64 // reads served without L1 allocation (bypass)
	PrefetchIssued uint64 // metadata-guided next-line prefetches issued
	PrefetchUseful uint64 // prefetched lines hit by a demand access
	DRAMReads      uint64
	DRAMWrites     uint64

	// Lock-bit contention (appendix): blocking region transactions
	// acquire a hashed lock bit; a collision means a transaction would
	// have stalled behind an unrelated region that hashes to the same
	// bit. The paper reports a negligible rate with 1K bits.
	LockAcquires   uint64
	LockCollisions uint64

	// Latency bookkeeping for the L1-miss-latency metric (§V-D).
	MissLatencySum uint64
	MissCount      uint64

	// Adaptive mechanisms. Repartitions counts epoch-boundary way moves
	// between the L1-D and MD1-D (D2M-Adaptive); the Pred* counters
	// account the level predictor's speculative parallel lookups
	// (D2M-LevelPred): how often one was launched, how often it matched
	// the serving level (hiding part of the MD walk), how often it
	// probed the wrong level (energy wasted, no latency penalty), and
	// the total critical-path cycles hidden.
	Repartitions     uint64
	PredSpeculations uint64
	PredHits         uint64
	PredMispredicts  uint64
	PredCyclesSaved  uint64
}

// LockCollisionRate returns collisions per acquired lock.
func (s *Stats) LockCollisionRate() float64 {
	return ratio(s.LockCollisions, s.LockAcquires)
}

// MissRatioI returns the L1-I miss ratio.
func (s *Stats) MissRatioI() float64 {
	return ratio(s.L1IMisses, s.L1IHits+s.L1IMisses)
}

// MissRatioD returns the L1-D miss ratio.
func (s *Stats) MissRatioD() float64 {
	return ratio(s.L1DMisses, s.L1DHits+s.L1DMisses)
}

// L2HitRatio returns hits in the private L2 over all L2 lookups (the
// "(L2 hits)" column of Table IV for Base-3L).
func (s *Stats) L2HitRatio() float64 {
	return ratio(s.L2Hits, s.L2Hits+s.LLCHits+s.LLCMisses)
}

// AvgMissLatency returns the average L1 miss latency in cycles.
func (s *Stats) AvgMissLatency() float64 {
	return ratio(s.MissLatencySum, s.MissCount)
}

// NearSideHitRatioI returns the fraction of LLC instruction hits served
// by the local slice.
func (s *Stats) NearSideHitRatioI() float64 {
	return ratio(s.LLCLocalHitsI, s.LLCLocalHitsI+s.LLCRemoteHitsI)
}

// NearSideHitRatioD returns the fraction of LLC data hits served by the
// local slice.
func (s *Stats) NearSideHitRatioD() float64 {
	return ratio(s.LLCLocalHitsD, s.LLCLocalHitsD+s.LLCRemoteHitsD)
}

// PrivateMissFraction returns the fraction of private-cache misses whose
// region was classified private (Table V; 68% average in the paper).
func (s *Stats) PrivateMissFraction() float64 {
	return ratio(s.PrivateMisses, s.PrivateMisses+s.SharedMisses)
}

// DirectMissFraction returns the fraction of misses handled without an
// MD3/directory indirection (~90% in the paper).
func (s *Stats) DirectMissFraction() float64 {
	return ratio(s.DirectMisses, s.DirectMisses+s.IndirectMisses)
}

// PKMO returns occurrences per kilo memory operation for a counter value.
func (s *Stats) PKMO(count uint64) float64 {
	return 1000 * ratio(count, s.Accesses)
}

func ratio(num, den uint64) float64 {
	if den == 0 {
		return 0
	}
	return float64(num) / float64(den)
}

package baseline

import (
	"fmt"
	"testing"

	"d2m/internal/core"
	"d2m/internal/mem"
)

func testConfig(threeLevel bool) Config {
	c := Config{
		Nodes:  4,
		L1Sets: 4, L1Ways: 2,
		LLCSets: 16, LLCWays: 4,
		TLBSets: 2, TLBWays: 2,
		TLB2Sets: 4, TLB2Ways: 2,
	}
	if threeLevel {
		c.L2Sets, c.L2Ways = 8, 4
	}
	return c
}

func addrOf(region, lineIdx int) mem.Addr {
	return mem.RegionAddr(region).Line(lineIdx).Addr()
}

func mustCheck(t *testing.T, s *System) {
	t.Helper()
	if err := s.CheckInvariants(); err != nil {
		t.Fatalf("invariant violation: %v", err)
	}
}

func TestConfigs(t *testing.T) {
	if err := Base2L().Validate(); err != nil {
		t.Errorf("Base2L invalid: %v", err)
	}
	if err := Base3L().Validate(); err != nil {
		t.Errorf("Base3L invalid: %v", err)
	}
	if Base2L().L2Sets != 0 {
		t.Error("Base2L has an L2")
	}
	if Base3L().L2Sets*Base3L().L2Ways*mem.LineBytes != 256<<10 {
		t.Errorf("Base3L L2 is %d bytes, want 256kB", Base3L().L2Sets*Base3L().L2Ways*mem.LineBytes)
	}
	bad := Base2L()
	bad.Nodes = 0
	if bad.Validate() == nil {
		t.Error("invalid config accepted")
	}
}

func TestColdMissThenHit(t *testing.T) {
	s := NewSystem(testConfig(false), true)
	a := addrOf(1, 0)
	res := s.Access(mem.Access{Node: 0, Addr: a, Kind: mem.Load})
	if res.L1Hit {
		t.Fatal("cold access hit")
	}
	if s.Stats().LLCMisses != 1 || s.Stats().DRAMReads != 1 {
		t.Errorf("LLCMisses=%d DRAMReads=%d", s.Stats().LLCMisses, s.Stats().DRAMReads)
	}
	res = s.Access(mem.Access{Node: 0, Addr: a, Kind: mem.Load})
	if !res.L1Hit {
		t.Fatal("second access missed")
	}
	mustCheck(t, s)
}

func TestWriteInvalidatesSharer(t *testing.T) {
	s := NewSystem(testConfig(false), true)
	a := addrOf(2, 3)
	s.Access(mem.Access{Node: 0, Addr: a, Kind: mem.Load})
	s.Access(mem.Access{Node: 1, Addr: a, Kind: mem.Load})
	mustCheck(t, s)
	s.Access(mem.Access{Node: 1, Addr: a, Kind: mem.Store})
	if s.Stats().InvRecv == 0 {
		t.Error("no invalidation for the old sharer")
	}
	mustCheck(t, s)
	// Node 0 re-reads; must see the new version (oracle enforces).
	s.Access(mem.Access{Node: 0, Addr: a, Kind: mem.Load})
	mustCheck(t, s)
}

func TestDirtyForward(t *testing.T) {
	s := NewSystem(testConfig(false), true)
	a := addrOf(3, 1)
	s.Access(mem.Access{Node: 2, Addr: a, Kind: mem.Store})
	fwd := s.Stats().Fwd
	s.Access(mem.Access{Node: 0, Addr: a, Kind: mem.Load})
	if s.Stats().Fwd != fwd+1 {
		t.Errorf("Fwd = %d, want %d (dirty line served through owner)", s.Stats().Fwd, fwd+1)
	}
	mustCheck(t, s)
}

func TestLLCEvictionBackInvalidates(t *testing.T) {
	c := testConfig(false)
	s := NewSystem(c, true)
	// Conflict one LLC set: LLCSets*RegionBytes... lines mapping to the
	// same LLC set are 16*64B apart in line space.
	stride := mem.Addr(c.LLCSets * mem.LineBytes)
	at := func(i int) mem.Addr { return mem.Addr(i) * stride }
	// Fill the LLC set (A..D); the L1 holds the two most recent (C, D).
	for i := 0; i < c.LLCWays; i++ {
		s.Access(mem.Access{Node: 0, Addr: at(i), Kind: mem.Load})
	}
	// Re-fetch A (reordering the LLC LRU), then alternate fresh fills
	// with L1 hits on D so D stays L1-resident while the LLC LRU walks
	// toward it; reclaiming D's LLC slot must back-invalidate the L1.
	s.Access(mem.Access{Node: 0, Addr: at(0), Kind: mem.Load})
	for i := c.LLCWays; i < 2*c.LLCWays; i++ {
		s.Access(mem.Access{Node: 0, Addr: at(c.LLCWays - 1), Kind: mem.Load})
		s.Access(mem.Access{Node: 0, Addr: at(i), Kind: mem.Load})
	}
	if s.Stats().BackInv == 0 {
		t.Error("LLC victim eviction did not back-invalidate the holder")
	}
	mustCheck(t, s)
}

func TestBase3LInclusionAndL2Hits(t *testing.T) {
	c := testConfig(true)
	s := NewSystem(c, true)
	a := addrOf(5, 2)
	s.Access(mem.Access{Node: 0, Addr: a, Kind: mem.Load})
	// Push the line out of the tiny L1 but keep it in the larger L2.
	for i := 1; i <= c.L1Ways; i++ {
		s.Access(mem.Access{Node: 0, Addr: a + mem.Addr(i*c.L1Sets*mem.LineBytes), Kind: mem.Load})
	}
	l2 := s.Stats().L2Hits
	s.Access(mem.Access{Node: 0, Addr: a, Kind: mem.Load})
	if s.Stats().L2Hits != l2+1 {
		t.Errorf("L2Hits = %d, want %d", s.Stats().L2Hits, l2+1)
	}
	mustCheck(t, s)
}

func TestTLBMiss(t *testing.T) {
	s := NewSystem(testConfig(false), true)
	// Touch more pages than the 4-entry TLB holds.
	for i := 0; i < 16; i++ {
		s.Access(mem.Access{Node: 0, Addr: mem.Addr(i * mem.PageBytes), Kind: mem.Load})
	}
	for i := 0; i < 16; i++ {
		s.Access(mem.Access{Node: 0, Addr: mem.Addr(i * mem.PageBytes), Kind: mem.Load})
	}
	if s.Stats().TLBMisses == 0 {
		t.Error("no TLB misses despite page thrashing")
	}
	mustCheck(t, s)
}

func randomRun(t *testing.T, cfg Config, seed uint64, accesses, regions int) {
	t.Helper()
	s := NewSystem(cfg, true)
	rng := mem.NewRNG(seed)
	for i := 0; i < accesses; i++ {
		node := rng.Intn(cfg.Nodes)
		region := rng.Intn(regions)
		kind := mem.Load
		switch {
		case rng.Bool(0.3):
			kind = mem.IFetch
			region += 1 << 20
		case rng.Bool(0.3):
			kind = mem.Store
		}
		s.Access(mem.Access{Node: node, Addr: mem.RegionAddr(region).Line(rng.Intn(16)).Addr(), Kind: kind})
		if i%997 == 0 {
			if err := s.CheckInvariants(); err != nil {
				t.Fatalf("seed %d after %d: %v", seed, i, err)
			}
		}
	}
	if err := s.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	st := s.Stats()
	if st.L1IHits+st.L1IMisses+st.L1DHits+st.L1DMisses != uint64(accesses) {
		t.Error("hit/miss counters do not add up")
	}
}

func TestRandomBase2L(t *testing.T) {
	for seed := uint64(1); seed <= 4; seed++ {
		t.Run(fmt.Sprint(seed), func(t *testing.T) { randomRun(t, testConfig(false), seed, 20000, 40) })
	}
}

func TestRandomBase3L(t *testing.T) {
	for seed := uint64(1); seed <= 4; seed++ {
		t.Run(fmt.Sprint(seed), func(t *testing.T) { randomRun(t, testConfig(true), seed, 20000, 40) })
	}
}

func TestRandomMigratory(t *testing.T) {
	cfg := testConfig(true)
	s := NewSystem(cfg, true)
	rng := mem.NewRNG(9)
	for i := 0; i < 15000; i++ {
		node := (i / 7) % cfg.Nodes
		kind := mem.Load
		if rng.Bool(0.5) {
			kind = mem.Store
		}
		s.Access(mem.Access{Node: node, Addr: mem.RegionAddr(rng.Intn(3)).Line(rng.Intn(16)).Addr(), Kind: kind})
		if i%991 == 0 {
			if err := s.CheckInvariants(); err != nil {
				t.Fatalf("after %d: %v", i, err)
			}
		}
	}
	if s.Stats().Upgrades == 0 && s.Stats().Fwd == 0 {
		t.Error("migratory pattern exercised no coherence")
	}
	mustCheck(t, s)
}

func TestStatsAccessors(t *testing.T) {
	st := core.Stats{
		L1IHits: 90, L1IMisses: 10,
		L1DHits: 60, L1DMisses: 40,
		L2Hits: 30, LLCHits: 50, LLCMisses: 20,
		MissLatencySum: 500, MissCount: 25,
	}
	if st.MissRatioI() != 0.1 || st.MissRatioD() != 0.4 {
		t.Error("miss ratios wrong")
	}
	if st.L2HitRatio() != 0.3 {
		t.Errorf("L2HitRatio = %v", st.L2HitRatio())
	}
	if st.AvgMissLatency() != 20 {
		t.Error("avg miss latency wrong")
	}
	var zero core.Stats
	if zero.MissRatioI() != 0 || zero.L2HitRatio() != 0 || zero.AvgMissLatency() != 0 {
		t.Error("zero stats not zero")
	}
}

func TestValidateCases(t *testing.T) {
	bad := []func(*Config){
		func(c *Config) { c.Nodes = 17 },
		func(c *Config) { c.L1Sets = 0 },
		func(c *Config) { c.L2Sets = -1 },
		func(c *Config) { c.L2Sets = 8; c.L2Ways = 0 },
		func(c *Config) { c.LLCSets = 0 },
		func(c *Config) { c.TLBSets = 0 },
	}
	for i, mutate := range bad {
		c := Base2L()
		mutate(&c)
		if c.Validate() == nil {
			t.Errorf("case %d accepted", i)
		}
	}
}

func TestSystemAccessors(t *testing.T) {
	cfg := testConfig(true)
	s := NewSystem(cfg, false)
	if s.Config().Nodes != cfg.Nodes {
		t.Error("Config accessor wrong")
	}
	if s.Fabric() == nil || s.Meter() == nil {
		t.Error("nil accessors")
	}
	a := addrOf(1, 0)
	s.Access(mem.Access{Node: 0, Addr: a, Kind: mem.Load})
	s.ResetMeasurement()
	if s.Stats().Accesses != 0 || s.Fabric().Messages() != 0 {
		t.Error("reset did not clear counters")
	}
	res := s.Access(mem.Access{Node: 0, Addr: a, Kind: mem.Load})
	if !res.L1Hit {
		t.Error("cache contents lost on reset")
	}
	for st, name := range map[state]string{stInvalid: "I", stShared: "S", stExclusive: "E", stModified: "M"} {
		if st.String() != name {
			t.Errorf("state %d String = %q", st, st.String())
		}
	}
}

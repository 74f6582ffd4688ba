package sim

import (
	"context"
	"testing"

	_ "d2m/internal/baseline" // registers Base-2L
	"d2m/internal/core"
	"d2m/internal/mem"
	"d2m/internal/trace"
	"d2m/internal/workloads"
)

// fakeMachine misses on first touch of a line (fixed latency), hits
// afterwards.
type fakeMachine struct {
	seen    map[mem.LineAddr]bool
	latency uint64
	resets  int
}

func newFake(lat uint64) *fakeMachine {
	return &fakeMachine{seen: map[mem.LineAddr]bool{}, latency: lat}
}

func (f *fakeMachine) Access(a mem.Access) (uint64, bool) {
	line := a.Addr.Line()
	if f.seen[line] {
		return 2, true
	}
	f.seen[line] = true
	return f.latency, false
}

func (f *fakeMachine) ResetMeasurement() { f.resets++ }

func TestEngineCountsAndResets(t *testing.T) {
	f := newFake(100)
	e := NewEngine(f, 1)
	stream := trace.StreamFunc(func() mem.Access {
		return mem.Access{Node: 0, Addr: 0x1000, Kind: mem.Load}
	})
	rep, _ := e.RunContext(context.Background(), trace.NewInterleaver([]trace.Stream{stream}), 10, 100)
	if f.resets != 1 {
		t.Errorf("resets = %d, want 1", f.resets)
	}
	if rep.Accesses != 100 {
		t.Errorf("Accesses = %d", rep.Accesses)
	}
	if rep.FetchAccesses != 0 || rep.Instructions != 0 {
		t.Errorf("fetch stats for a load-only stream: %d/%d", rep.FetchAccesses, rep.Instructions)
	}
	// All hits after warmup: cycles == accesses (base cost only).
	if rep.Cycles != 100 {
		t.Errorf("Cycles = %d, want 100", rep.Cycles)
	}
}

func TestEngineStallModel(t *testing.T) {
	// Two lines: the first access after reset misses with latency 100.
	var toggle bool
	f := newFake(100)
	e := NewEngine(f, 1)
	next := mem.Addr(0)
	stream := trace.StreamFunc(func() mem.Access {
		toggle = !toggle
		kind := mem.Load
		if !toggle {
			kind = mem.IFetch
		}
		next += mem.PageBytes
		return mem.Access{Node: 0, Addr: next, Kind: kind}
	})
	rep, _ := e.RunContext(context.Background(), trace.NewInterleaver([]trace.Stream{stream}), 0, 2)
	// One load miss (stall 35) + one ifetch miss (stall 100) + 2 base.
	want := uint64(2 + 35 + 100)
	if rep.Cycles != want {
		t.Errorf("Cycles = %d, want %d", rep.Cycles, want)
	}
	if rep.FetchAccesses != 1 {
		t.Errorf("FetchAccesses = %d", rep.FetchAccesses)
	}
	if rep.Instructions != InstructionsPerFetch {
		t.Errorf("Instructions = %d", rep.Instructions)
	}
}

func TestLateHits(t *testing.T) {
	// Access the same line twice back-to-back: the second hits while
	// the miss is still outstanding.
	f := newFake(1000)
	e := NewEngine(f, 1)
	n := 0
	stream := trace.StreamFunc(func() mem.Access {
		n++
		return mem.Access{Node: 0, Addr: 0x40, Kind: mem.Load}
	})
	rep, _ := e.RunContext(context.Background(), trace.NewInterleaver([]trace.Stream{stream}), 0, 2)
	if rep.LateHitsD != 1 {
		t.Errorf("LateHitsD = %d, want 1", rep.LateHitsD)
	}
	if rep.LateHitRatioD() != 0.5 {
		t.Errorf("LateHitRatioD = %v", rep.LateHitRatioD())
	}
}

func TestReportRatios(t *testing.T) {
	r := Report{Cycles: 100, Instructions: 300, Accesses: 10, FetchAccesses: 4, LateHitsI: 2, LateHitsD: 3}
	if r.LateHitRatioI() != 0.5 {
		t.Errorf("LateHitRatioI = %v", r.LateHitRatioI())
	}
	if r.LateHitRatioD() != 0.5 {
		t.Errorf("LateHitRatioD = %v", r.LateHitRatioD())
	}
	var zero Report
	if zero.LateHitRatioI() != 0 || zero.LateHitRatioD() != 0 {
		t.Error("zero report ratios not zero")
	}
}

// End-to-end: a real workload on both hierarchies, deterministic.
func TestEndToEndDeterministic(t *testing.T) {
	sp, _ := workloads.ByName("fft")

	run := func() (Report, Report) {
		ccfg := core.DefaultConfig()
		ccfg.Nodes = 4
		cs := core.NewSystem(ccfg)
		ce := NewEngine(core.Instance(cs), 4)
		crep, _ := ce.RunContext(context.Background(), trace.NewInterleaver(sp.Streams(4)), 5000, 20000)

		base2L, _ := core.MechanismByName("Base-2L")
		be := NewEngine(base2L.New(core.MechOptions{Nodes: 4}), 4)
		brep, _ := be.RunContext(context.Background(), trace.NewInterleaver(sp.Streams(4)), 5000, 20000)
		return crep, brep
	}
	c1, b1 := run()
	c2, b2 := run()
	if c1.Cycles != c2.Cycles || b1.Cycles != b2.Cycles {
		t.Error("simulation not deterministic")
	}
	if c1.Cycles == 0 || b1.Cycles == 0 {
		t.Error("degenerate cycle counts")
	}
	if c1.Instructions != b1.Instructions {
		t.Errorf("instruction counts differ across hierarchies: %d vs %d", c1.Instructions, b1.Instructions)
	}
}

// The miss-latency histogram must report exact percentiles: a machine
// whose misses are 90% at 10 cycles and 10% at 200 cycles has P50 = 10
// and P99 = 200.
func TestMissLatencyPercentiles(t *testing.T) {
	n := 0
	m := &percentileMachine{}
	e := NewEngine(m, 1)
	stream := trace.StreamFunc(func() mem.Access {
		n++
		return mem.Access{Node: 0, Addr: mem.Addr(n) << 6, Kind: mem.Load} // every access a new line -> all misses
	})
	rep, _ := e.RunContext(context.Background(), trace.NewInterleaver([]trace.Stream{stream}), 0, 1000)
	if got := rep.MissLatencyPercentile(0.50); got != 10 {
		t.Errorf("P50 = %d, want 10", got)
	}
	if got := rep.MissLatencyPercentile(0.89); got != 10 {
		t.Errorf("P89 = %d, want 10", got)
	}
	if got := rep.MissLatencyPercentile(0.95); got != 200 {
		t.Errorf("P95 = %d, want 200", got)
	}
	if got := rep.MissLatencyPercentile(0.99); got != 200 {
		t.Errorf("P99 = %d, want 200", got)
	}
}

// percentileMachine misses every access: 10 cycles, except every 10th
// access takes 200.
type percentileMachine struct{ n int }

func (p *percentileMachine) Access(a mem.Access) (uint64, bool) {
	p.n++
	if p.n%10 == 0 {
		return 200, false
	}
	return 10, false
}
func (p *percentileMachine) ResetMeasurement() {}

func TestMissLatencyPercentileEmpty(t *testing.T) {
	var rep Report
	if got := rep.MissLatencyPercentile(0.99); got != 0 {
		t.Errorf("empty report percentile = %d, want 0", got)
	}
}

// Overflow latencies saturate into the last bucket instead of panicking.
func TestMissLatencyOverflowBucket(t *testing.T) {
	f := newFake(1 << 20)
	e := NewEngine(f, 1)
	n := 0
	stream := trace.StreamFunc(func() mem.Access {
		n++
		return mem.Access{Node: 0, Addr: mem.Addr(n) << 6, Kind: mem.Load}
	})
	rep, _ := e.RunContext(context.Background(), trace.NewInterleaver([]trace.Stream{stream}), 0, 10)
	if got := rep.MissLatencyPercentile(0.5); got != missLatBuckets-1 {
		t.Errorf("overflow percentile = %d, want %d", got, missLatBuckets-1)
	}
}

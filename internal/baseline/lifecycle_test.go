package baseline

import (
	"context"
	"fmt"
	"testing"

	"d2m/internal/cache"
	"d2m/internal/core"
	"d2m/internal/mem"
	"d2m/internal/sim"
	"d2m/internal/trace"
	"d2m/internal/workloads"
)

// The baseline half of the core package's pristine-release guard:
// Release clears the cache state, dirty bits and LLC directory through
// their tables' write logs, so a payload element written at a slot its
// table never logged would survive into the next machine built from
// the pool. The tests walk every pooled table and payload array,
// release the machine, and require every key, stamp and payload element
// to be zero. They do not run in parallel: the walk reads arrays that
// are back in the process-wide pools.

// pooledPart is one pooled table with the payload arrays parallel to it;
// each payload reports the index of its first non-zero element, or -1.
type pooledPart struct {
	name     string
	tbl      *cache.Table
	payloads []func() int
}

func firstNonZero[T comparable](s []T) func() int {
	return func() int {
		var zero T
		for i, v := range s {
			if v != zero {
				return i
			}
		}
		return -1
	}
}

// pooledParts is the test seam onto s's pooled state.
func pooledParts(s *System) []pooledPart {
	var parts []pooledPart
	level := func(c *nodeCache) {
		parts = append(parts, pooledPart{c.name, c.tbl, []func() int{firstNonZero(c.state), firstNonZero(c.dirty)}})
	}
	for _, n := range s.nodes {
		parts = append(parts,
			pooledPart{fmt.Sprintf("tlb[%d]", n.id), n.tlb, nil},
			pooledPart{fmt.Sprintf("tlb2[%d]", n.id), n.tlb2, nil})
		level(n.l1i)
		level(n.l1d)
		if n.l2 != nil {
			level(n.l2)
		}
	}
	return append(parts, pooledPart{"llc", s.llc, []func() int{firstNonZero(s.dir)}})
}

// firstWritten returns the first slot of tbl holding a key or a stamp,
// or -1.
func firstWritten(tbl *cache.Table) int {
	for i := 0; i < tbl.Sets()*tbl.Ways(); i++ {
		if _, ok := tbl.SlotKey(i); ok || tbl.StampAt(i) != 0 {
			return i
		}
	}
	return -1
}

// releasePristine releases s and checks that every pooled table and
// payload array it held reads zero after the logged clears. It returns
// the names of the written tables whose write log had not overflowed.
func releasePristine(t *testing.T, label string, s *System) (logged []string) {
	t.Helper()
	parts := pooledParts(s)
	for _, p := range parts {
		if !p.tbl.Overflowed() && firstWritten(p.tbl) >= 0 {
			logged = append(logged, p.name)
		}
	}
	s.Release()
	for _, p := range parts {
		if i := firstWritten(p.tbl); i >= 0 {
			t.Errorf("%s: %s slot %d not cleared", label, p.name, i)
		}
		for _, nonZero := range p.payloads {
			if i := nonZero(); i >= 0 {
				t.Errorf("%s: %s payload element %d not cleared", label, p.name, i)
			}
		}
	}
	return logged
}

// lifecycleStream is the tpc-c access stream the lifecycle tests drive.
func lifecycleStream(t *testing.T, nodes int) trace.Stream {
	sp, ok := workloads.ByName("tpc-c")
	if !ok {
		t.Fatal("no tpc-c workload")
	}
	return trace.NewInterleaver(sp.Streams(nodes))
}

// cancelAfter passes src through and cancels ctx once n accesses have
// been drawn, so the engine stops at its next checkpoint mid-warmup.
func cancelAfter(src trace.Stream, n int, cancel context.CancelFunc) trace.Stream {
	return trace.StreamFunc(func() mem.Access {
		if n--; n == 0 {
			cancel()
		}
		return src.Next()
	})
}

// sweepStream walks every node through its own fresh data lines (one
// store in four), code lines (one fetch in eight) and pages, never
// revisiting a line: a run of lifecycleOverflowAccesses overflows every
// table's write log, the 8 MB LLC's included, and Release falls back
// to whole-array clears.
func sweepStream(nodes int) trace.Stream {
	i := 0
	return trace.StreamFunc(func() mem.Access {
		node, n := i%nodes, i/nodes
		i++
		base := mem.Addr(node+1) << 36
		switch {
		case n%8 == 7:
			return mem.Access{Node: node, Addr: base | 1<<35 + mem.Addr(n/8)*mem.LineBytes, Kind: mem.IFetch}
		case n%4 == 3:
			return mem.Access{Node: node, Addr: base + mem.Addr(n)*mem.LineBytes, Kind: mem.Store}
		}
		return mem.Access{Node: node, Addr: base + mem.Addr(n)*mem.LineBytes, Kind: mem.Load}
	})
}

const lifecycleOverflowAccesses = 120_000

// TestReleaseLeavesPoolsPristine runs every registered baseline kind at
// 2 and 8 nodes through a fresh run, a snapshot capture and restored
// run, a run cancelled mid-warmup and a run that overflows the write
// logs, and checks the released pools after each.
func TestReleaseLeavesPoolsPristine(t *testing.T) {
	ctx := context.Background()
	for _, m := range core.Mechanisms() {
		if !m.Baseline {
			continue
		}
		for _, nodes := range []int{2, 8} {
			t.Run(fmt.Sprintf("%s/%d", m.Name, nodes), func(t *testing.T) {
				opt := core.MechOptions{Nodes: nodes, Seed: 1, MDScale: 1}
				build := func() (*sim.Engine, core.MechInstance, *System) {
					inst := m.New(opt)
					return sim.NewEngine(inst, nodes), inst, inst.Underlying().(*System)
				}

				e, _, s := build()
				if _, err := e.RunContext(ctx, lifecycleStream(t, nodes), 2000, 2000); err != nil {
					t.Fatal(err)
				}
				releasePristine(t, "fresh", s)

				e, inst, s := build()
				src := lifecycleStream(t, nodes)
				if err := e.Warmup(ctx, src, 2000); err != nil {
					t.Fatal(err)
				}
				snap := inst.Snapshot()
				releasePristine(t, "captured", s)
				e, inst, s = build()
				inst.Restore(snap)
				if _, err := e.RunContext(ctx, src, 0, 2000); err != nil {
					t.Fatal(err)
				}
				releasePristine(t, "restored", s)

				e, _, s = build()
				cctx, cancel := context.WithCancel(ctx)
				err := e.Warmup(cctx, cancelAfter(lifecycleStream(t, nodes), 1500, cancel), 100_000)
				cancel()
				if err == nil {
					t.Fatal("cancelled warmup reported success")
				}
				releasePristine(t, "cancelled", s)

				e, _, s = build()
				if _, err := e.RunContext(ctx, sweepStream(nodes), 0, lifecycleOverflowAccesses); err != nil {
					t.Fatal(err)
				}
				if logged := releasePristine(t, "overflowed", s); len(logged) != 0 {
					t.Errorf("overflowed: the write logs of %v did not overflow; the case must reach the whole-array clear in every written table", logged)
				}
			})
		}
	}
}

// TestRestoreIntoUsedSystemPanics pins RestoreInto's precondition: the
// destination must be freshly built, its write logs empty.
func TestRestoreIntoUsedSystemPanics(t *testing.T) {
	s := NewSystem(Base2L(), false)
	defer s.Release()
	src := lifecycleStream(t, s.cfg.Nodes)
	for i := 0; i < 100; i++ {
		s.Access(src.Next())
	}
	snap := s.Snapshot()
	defer func() {
		if recover() == nil {
			t.Fatal("RestoreInto a system that has run did not panic")
		}
	}()
	snap.RestoreInto(s)
}

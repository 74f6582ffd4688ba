package core

import (
	"context"
	"fmt"
	"testing"

	"d2m/internal/cache"
	"d2m/internal/mem"
	"d2m/internal/sim"
	"d2m/internal/trace"
	"d2m/internal/workloads"
)

// Release clears a machine's pooled arrays through its tables' write
// logs, not whole: a payload element written at a slot its table never
// logged would survive the release and leak into the next machine built
// from the pool. These tests walk every pooled table and payload array
// of a machine, release it, and require every key, stamp and payload
// element to be zero. They do not run in parallel: the walk reads
// arrays that are back in the process-wide pools.

// pooledPart is one pooled table with the payload arrays parallel to it;
// each payload reports the index of its first non-zero element, or -1.
// A data store's table is tag-less: it has stamps but no keys.
type pooledPart struct {
	name     string
	tbl      *cache.Table
	tagless  bool
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
	store := func(d *dataStore) {
		parts = append(parts, pooledPart{d.name, d.tbl, true, []func() int{firstNonZero(d.slots)}})
	}
	for _, n := range s.nodes {
		parts = append(parts,
			pooledPart{fmt.Sprintf("md1i[%d]", n.id), n.md1i, false, []func() int{firstNonZero(n.md1iEnt)}},
			pooledPart{fmt.Sprintf("md1d[%d]", n.id), n.md1d, false, []func() int{firstNonZero(n.md1dEnt)}},
			pooledPart{fmt.Sprintf("md2[%d]", n.id), n.md2, false, []func() int{firstNonZero(n.md2Ent)}})
		store(n.l1i)
		store(n.l1d)
		if n.l2 != nil {
			store(n.l2)
		}
	}
	for _, sl := range s.slices {
		store(sl)
	}
	if s.far != nil {
		store(s.far)
	}
	return append(parts, pooledPart{"md3", s.md3, false, []func() int{firstNonZero(s.md3Ent)}})
}

// firstWritten returns the first slot of p's table holding a key or a
// stamp, or -1. A tag-less table has only stamps to read.
func (p pooledPart) firstWritten() int {
	for i := 0; i < p.tbl.Sets()*p.tbl.Ways(); i++ {
		if p.tbl.StampAt(i) != 0 {
			return i
		}
		if !p.tagless {
			if _, ok := p.tbl.SlotKey(i); ok {
				return i
			}
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
		if !p.tbl.Overflowed() && p.firstWritten() >= 0 {
			logged = append(logged, p.name)
		}
	}
	s.Release()
	for _, p := range parts {
		if i := p.firstWritten(); i >= 0 {
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
// store in four) and code lines (one fetch in eight), never revisiting
// a line: each access writes a slot nobody wrote before, so a run of
// lifecycleOverflowAccesses overflows every table's write log, the
// 8 MB LLC's and MD3's included, and Release falls back to whole-array
// clears.
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

// TestReleaseLeavesPoolsPristine runs every registered D2M kind at 2
// and 8 nodes through a fresh run, a snapshot capture and restored run,
// a run cancelled mid-warmup and a run that overflows the write logs,
// and checks the released pools after each.
func TestReleaseLeavesPoolsPristine(t *testing.T) {
	ctx := context.Background()
	for _, m := range Mechanisms() {
		for _, nodes := range []int{2, 8} {
			t.Run(fmt.Sprintf("%s/%d", m.Name, nodes), func(t *testing.T) {
				opt := MechOptions{Nodes: nodes, Seed: 1, MDScale: 1}
				build := func() (*sim.Engine, MechInstance, *System) {
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
	m, _ := MechanismByName("D2M-NS-R")
	inst := m.New(MechOptions{Nodes: 2, Seed: 1, MDScale: 1})
	defer inst.Release()
	src := lifecycleStream(t, 2)
	for i := 0; i < 100; i++ {
		inst.Access(src.Next())
	}
	snap := inst.Snapshot()
	defer func() {
		if recover() == nil {
			t.Fatal("RestoreInto a system that has run did not panic")
		}
	}()
	inst.Restore(snap)
}

package sim

import (
	"context"
	"sort"

	"d2m/internal/trace"
)

// Lane-group measurement: the vectorized many-run primitive. K runs
// that share a warm identity differ only in measurement-side
// parameters, so their machine and stream trajectories are prefixes of
// one another — lane i's entire simulation is the first measures[i]
// accesses of the longest lane's. MeasureLanes exploits that: it runs
// ONE machine over ONE stream to the longest lane's window and samples
// the report at every shorter lane's boundary, so a K-lane group costs
// one warmup plus max(measures) accesses instead of K warmups plus
// sum(measures). Exactness is structural, not approximate: each lane's
// report is the same bytes the scalar path would have produced, because
// it is literally the same computation observed at the same boundary.

// MeasureLanes is Measure generalized to a lane group. It performs the
// identical statistics reset at the warmup boundary, then steps the
// stream to the largest requested window, invoking sink(lane, report)
// exactly when the lane's window completes. measures[i] is lane i's
// measurement window (a window <= 0 captures at the warmup boundary
// itself); lanes with equal windows capture at the same boundary and
// receive identical reports. Measure is this walk with one lane.
//
// active reports whether a lane still wants its result; it is polled
// together with ctx at every block boundary (at most BlockAccesses
// apart). A lane that goes inactive before its boundary is skipped
// (sink is never called for it), and when every remaining lane is
// inactive the walk stops early — a cancelled lane demotes itself
// without aborting the group. ctx cancellation aborts the whole group
// with ctx.Err().
//
// The report passed to sink is deeply copied (NodeCycles and the
// latency histogram are fresh slices), so callers may retain it while
// later lanes keep accumulating.
func (e *Engine) MeasureLanes(ctx context.Context, iv trace.Stream, measures []int, active func(lane int) bool, sink func(lane int, rep Report)) error {
	e.m.ResetMeasurement()
	e.beginEpochPhase()
	for i := range e.clock {
		e.clock[i] = 0
		e.issue[i] = 0
		e.inFly[i].reset()
	}
	e.report = Report{NodeCycles: make([]uint64, e.nodes), missLat: make([]uint64, missLatBuckets)}

	// Boundary order: lane indices sorted ascending by window length,
	// stably, so equal-window lanes capture at the same step in a
	// deterministic order.
	order := make([]int, len(measures))
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool { return measures[order[a]] < measures[order[b]] })

	next := 0 // index into order of the next boundary to capture
	// limit is the step count needed to satisfy every still-active
	// pending lane; pruning inactive lanes off the tail lets a group
	// whose longest lanes were cancelled finish early.
	recompute := func() int {
		for j := len(order) - 1; j >= next; j-- {
			if active(order[j]) {
				return measures[order[j]]
			}
		}
		return 0
	}

	// Lane-group capture happens at block boundaries: each refill is
	// clipped to the nearest pending lane boundary, so the walk lands
	// exactly on every boundary and the captured reports are the same
	// bytes the scalar path produces at the same step.
	bs, _ := iv.(trace.BlockStream)
	for i := 0; ; {
		// The tick fires before any boundary capture at the same step:
		// advanceEpoch runs at the end of the previous iteration.
		for next < len(order) && measures[order[next]] <= i {
			lane := order[next]
			next++
			if active(lane) {
				sink(lane, e.laneReport())
			}
		}
		if next == len(order) {
			return nil
		}
		if ctx.Err() != nil {
			return ctx.Err()
		}
		limit := recompute()
		if i >= limit {
			return nil
		}
		want := limit - i
		if measures[order[next]]-i < want {
			want = measures[order[next]] - i
		}
		n := e.stepBlock(e.refillAny(bs, iv, e.clampEpoch(want)))
		i += n
		e.advanceEpoch(n)
	}
}

// laneReport finalizes the in-progress report at a lane boundary
// exactly as Measure does at the end of its window — per-node clocks
// copied out, Cycles as their max, Instructions derived from fetches —
// into a deep copy that stays frozen while the walk continues.
func (e *Engine) laneReport() Report {
	rep := e.report
	rep.NodeCycles = make([]uint64, e.nodes)
	rep.Cycles = 0
	for i, c := range e.clock {
		rep.NodeCycles[i] = c
		if c > rep.Cycles {
			rep.Cycles = c
		}
	}
	rep.Instructions = rep.FetchAccesses * InstructionsPerFetch
	rep.missLat = append([]uint64(nil), e.report.missLat...)
	return rep
}
